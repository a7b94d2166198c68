package reram

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/flashmark/flashmark/internal/nor"
)

// chipFile is the on-disk JSON envelope for a ReRAM chip. Array is
// kept as raw JSON (the quoted base64 text) rather than a string,
// matching the mcu and nand chip files: RawMessage's append-into-self
// decode lets a reloading Loader recycle the payload buffer, and
// base64 text never needs unescaping.
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

// saveState recycles every per-Save transient — the binary array
// encoding, the quoted-base64 token, and the JSON envelope buffer with
// its pinned encoder — mirroring the mcu and nand chip-file save
// pools.
type saveState struct {
	raw []byte
	b64 []byte
	buf bytes.Buffer
	enc *json.Encoder
}

var savePool = sync.Pool{New: func() any {
	s := &saveState{raw: make([]byte, 0, 4096)}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

// Save writes the chip state (geometry, timing, physics, seed, storage
// age, cell margins and conditioning wear) to w.
func (d *Device) Save(w io.Writer) error {
	s := savePool.Get().(*saveState)
	defer savePool.Put(s)
	raw, err := d.cells.AppendBinary(s.raw[:0])
	s.raw = raw[:0]
	if err != nil {
		return fmt.Errorf("reram: serializing array: %w", err)
	}
	cf := chipFile{
		Format:   ChipFormat,
		Version:  chipVersion,
		Geometry: d.geom,
		Timing:   d.timing,
		Params:   d.params,
		Seed:     d.seed,
		AgeYears: d.age,
		Array:    s.quotedBase64(raw),
	}
	s.buf.Reset()
	if err := s.enc.Encode(cf); err != nil {
		return err
	}
	_, err = w.Write(s.buf.Bytes())
	return err
}

// quotedBase64 renders raw as the JSON string token the chip file
// embeds (base64 text needs no escaping, so the quotes can be placed
// directly), reusing the state's token buffer.
func (s *saveState) quotedBase64(raw []byte) json.RawMessage {
	n := base64.StdEncoding.EncodedLen(len(raw))
	if cap(s.b64) < n+2 {
		s.b64 = make([]byte, n+2)
	}
	out := s.b64[:n+2]
	out[0], out[n+1] = '"', '"'
	base64.StdEncoding.Encode(out[1:n+1], raw)
	return json.RawMessage(out)
}

// chipArrayBytes extracts the base64 text from the raw array payload.
// The fast path peels the quotes off an escape-free string token in
// place; anything else goes through encoding/json.
func chipArrayBytes(raw json.RawMessage) ([]byte, error) {
	if len(raw) >= 2 && raw[0] == '"' && raw[len(raw)-1] == '"' && bytes.IndexByte(raw, '\\') < 0 {
		return raw[1 : len(raw)-1], nil
	}
	if len(raw) == 0 {
		return nil, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// decodeChipArray base64-decodes the array payload into dst's
// capacity, allocating only when dst is too small.
func decodeChipArray(b64 []byte, dst []byte) ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(b64))
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	m, err := base64.StdEncoding.Decode(dst, b64)
	if err != nil {
		return nil, err
	}
	return dst[:m], nil
}

// Load reconstructs a ReRAM chip from Save output.
func Load(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var l Loader
	return l.Load(data)
}

// Loader reconstructs ReRAM chips from Save output, recycling the JSON
// envelope, the binary array form, and the cell array across loads —
// the ReRAM counterpart of mcu.Loader and nand.Loader. The zero value
// is ready. A Loader is not safe for concurrent use, and the device it
// returns aliases the loader's storage: the next Load invalidates
// every previously returned device.
type Loader struct {
	cf  chipFile
	bin []byte
	arr *nor.Array
}

// Load reconstructs a ReRAM chip from the serialized chip file,
// decoding strictly from the byte slice and reusing the loader's
// buffers instead of allocating a fresh cell array per call.
func (l *Loader) Load(data []byte) (*Device, error) {
	l.cf = chipFile{Array: l.cf.Array[:0]}
	if err := json.Unmarshal(data, &l.cf); err != nil {
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
	b64, err := chipArrayBytes(cf.Array)
	if err != nil {
		return nil, fmt.Errorf("reram: decoding chip file: %w", err)
	}
	bin, err := decodeChipArray(b64, l.bin)
	if err != nil {
		return nil, fmt.Errorf("reram: decoding array payload: %w", err)
	}
	l.bin = bin[:0]
	// As in mcu.Load: reject a mismatched array header before the
	// per-cell and per-sector allocations, since chip files are
	// untrusted input.
	headGeom, err := nor.ArrayGeometry(bin)
	if err != nil {
		return nil, err
	}
	if headGeom != cf.Geometry {
		return nil, fmt.Errorf("reram: chip file array geometry %+v does not match %+v", headGeom, cf.Geometry)
	}
	model, err := NewModel(cf.Params, cf.Seed, cf.Geometry.TotalSegments(), cf.Geometry.CellsPerSegment())
	if err != nil {
		return nil, err
	}
	arr, err := nor.UnmarshalArrayInto(l.arr, bin)
	if err != nil {
		return nil, err
	}
	l.arr = arr
	return newDevice(cf.Geometry, cf.Timing, cf.Params, cf.Seed, model, arr, cf.AgeYears), nil
}
