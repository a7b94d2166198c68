package reram

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/flashmark/flashmark/internal/nor"
)

// chipFile is the on-disk JSON envelope for a ReRAM chip. Array is
// kept as raw JSON (the quoted base64 text) rather than a string,
// matching the mcu and nand chip files: nor.UnmarshalChipFile reads it
// in place from a canonical file, and RawMessage's append-into-self
// decode recycles its buffer for any other.
type chipFile struct {
	Format   string          `json:"format"`
	Version  int             `json:"version"`
	Geometry nor.Geometry    `json:"geometry"`
	Timing   Timing          `json:"timing"`
	Params   Params          `json:"params"`
	Seed     uint64          `json:"seed"`
	AgeYears float64         `json:"ageYears,omitempty"`
	Array    json.RawMessage `json:"array"` // quoted base64 of nor binary encoding
}

// ChipFormat is the format tag of serialized ReRAM chips.
const ChipFormat = "flashmark-reram-chip"

const chipVersion = 1

// Save writes the chip state (geometry, timing, physics, seed, storage
// age, cell margins and conditioning wear) to w.
func (d *Device) Save(w io.Writer) error {
	return nor.SaveChip(w, d.cells, func(array json.RawMessage) any {
		return chipFile{
			Format:   ChipFormat,
			Version:  chipVersion,
			Geometry: d.geom,
			Timing:   d.timing,
			Params:   d.params,
			Seed:     d.seed,
			AgeYears: d.age,
			Array:    array,
		}
	})
}

// Load reconstructs a ReRAM chip from Save output: it reads r to the
// end and decodes the bytes with a fresh Loader.
func Load(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return new(Loader).Load(data)
}

// Loader reconstructs ReRAM chips from Save output, recycling the JSON
// envelope, the binary array form, and the cell array across loads —
// the ReRAM counterpart of mcu.Loader and nand.Loader. The zero value
// is ready. A Loader is not safe for concurrent use, and the device it
// returns aliases the loader's storage: the next Load invalidates
// every previously returned device.
type Loader struct {
	cf    chipFile
	array nor.ChipArray
}

// Load reconstructs a ReRAM chip from data, one complete chip file (the
// bytes Save writes); trailing data after the JSON object is rejected.
func (l *Loader) Load(data []byte) (*Device, error) {
	l.cf = chipFile{Array: l.cf.Array[:0]}
	token, err := nor.UnmarshalChipFile(data, &l.cf, &l.cf.Array)
	if err != nil {
		return nil, fmt.Errorf("reram: decoding chip file: %w", err)
	}
	cf := &l.cf
	if cf.Format != ChipFormat {
		return nil, fmt.Errorf("reram: not a ReRAM chip file (format %q)", cf.Format)
	}
	if cf.Version != chipVersion {
		return nil, fmt.Errorf("reram: unsupported chip file version %d", cf.Version)
	}
	if err := cf.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cf.Timing.Validate(); err != nil {
		return nil, err
	}
	if !(cf.AgeYears >= 0) || math.IsInf(cf.AgeYears, 0) {
		return nil, fmt.Errorf("reram: chip file age %v out of range", cf.AgeYears)
	}
	// Decode checks the array header against the envelope's geometry
	// before any per-cell state is sized; the model's per-sector table
	// waits for that check too.
	arr, err := l.array.Decode(token, cf.Geometry)
	if err != nil {
		return nil, fmt.Errorf("reram: %w", err)
	}
	model, err := NewModel(cf.Params, cf.Seed, cf.Geometry.TotalSegments(), cf.Geometry.CellsPerSegment())
	if err != nil {
		return nil, err
	}
	return newDevice(cf.Geometry, cf.Timing, cf.Params, cf.Seed, model, arr, cf.AgeYears), nil
}

// Retained reports how many cells the loader keeps for reuse.
func (l *Loader) Retained() int { return l.array.Cells() }
