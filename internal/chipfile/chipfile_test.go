package chipfile_test

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/reram"
)

// savedChips returns one freshly saved chip file per backend, keyed by
// format tag.
func savedChips(t *testing.T) map[string][]byte {
	t.Helper()
	open := map[string]func() (device.Device, error){
		"flashmark-chip": func() (device.Device, error) { return mcu.Open(mcu.PartSmallSim(), 1) },
		nand.ChipFormat: func() (device.Device, error) {
			return nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), 2)
		},
		reram.ChipFormat: func() (device.Device, error) {
			return reram.Open(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 3)
		},
	}
	out := make(map[string][]byte, len(open))
	for format, fab := range open {
		dev, err := fab()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out[format] = buf.Bytes()
	}
	return out
}

// TestLoadDispatchesOnFormat: every backend's file loads through the
// dispatcher and re-saves to the same bytes; the same body under
// another backend's tag, trailing bytes, and non-JSON are refused.
func TestLoadDispatchesOnFormat(t *testing.T) {
	chips := savedChips(t)
	var l chipfile.Loader
	for format, file := range chips {
		dev, err := l.Load(file)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var again bytes.Buffer
		if err := dev.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), file) {
			t.Errorf("%s: load -> save is not byte-identical", format)
		}
		for other := range chips {
			if other == format {
				continue
			}
			retagged := bytes.Replace(file, []byte(`"`+format+`"`), []byte(`"`+other+`"`), 1)
			if _, err := l.Load(retagged); err == nil {
				t.Errorf("%s body under the %s tag loaded", format, other)
			}
		}
		if _, err := l.Load(append(bytes.Clone(file), "{}"...)); err == nil {
			t.Errorf("%s: trailing bytes after the chip file accepted", format)
		}
	}
	if _, err := l.Load([]byte("not json")); err == nil || !strings.HasPrefix(err.Error(), "not a chip file: ") {
		t.Errorf("non-JSON error = %v, want the not-a-chip-file prefix", err)
	}
}

// TestLoadKeepsNoReferenceToData: a Loader lets go of the caller's
// bytes when Load returns. A canonical file's array token is read in
// place; were the loader to keep it as recycled capacity, the next,
// non-canonical file's token would be written over the first caller's
// buffer.
func TestLoadKeepsNoReferenceToData(t *testing.T) {
	fresh := savedChips(t)
	for format, programmed := range programmedChips(t) {
		var cf map[string]json.RawMessage
		if err := json.Unmarshal(fresh[format], &cf); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(cf) // sorted keys: "array" is not last
		if err != nil {
			t.Fatal(err)
		}
		kept := bytes.Clone(programmed)
		var l chipfile.Loader
		for _, data := range [][]byte{programmed, reordered} {
			if _, err := l.Load(data); err != nil {
				t.Fatalf("%s: %v", format, err)
			}
		}
		if !bytes.Equal(programmed, kept) {
			t.Errorf("%s: loading a second file changed the first file's bytes", format)
		}
	}
}

// programmedChips is savedChips with a pattern programmed into the
// first 256 words, so each array token is longer than a fresh chip's.
func programmedChips(t *testing.T) map[string][]byte {
	t.Helper()
	chips := savedChips(t)
	var l chipfile.Loader
	words := make([]uint64, 256)
	for i := range words {
		words[i] = uint64(i*37) & 0xFFFF
	}
	for format, file := range chips {
		dev, err := l.Load(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Unlock(); err != nil {
			t.Fatal(err)
		}
		if err := dev.ProgramBlock(0, words); err != nil {
			t.Fatal(err)
		}
		dev.Lock()
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			t.Fatal(err)
		}
		chips[format] = buf.Bytes()
	}
	return chips
}

// TestLoadRejectsForgedGeometryCheaply: a chip file is untrusted input.
// For each backend, a small file whose claimed geometry disagrees with
// the array it carries must be refused before anything is sized from
// the claim, whichever backend the format tag selects.
func TestLoadRejectsForgedGeometryCheaply(t *testing.T) {
	chips := savedChips(t)
	forged := map[string][]byte{
		// NOR: the FM-SIM16 array under the MSP430F5438 part name,
		// 256 KB of flash and about 25 MB of cell state.
		"nor": bytes.Replace(chips["flashmark-chip"], []byte(`"part": "FM-SIM16"`), []byte(`"part": "MSP430F5438"`), 1),
		// NAND: the SmallNAND envelope claiming 1024 blocks, 4 MiB of
		// flash and about 400 MB of cell state, over its 8-block array.
		"nand": bytes.Replace(chips[nand.ChipFormat], []byte(`"Blocks": 8,`), []byte(`"Blocks": 1024,`), 1),
		// ReRAM: 4,194,304 one-byte segments, whose per-sector model
		// table alone takes about 100 MB.
		"reram": forgedReRAMGeometry(t, chips[reram.ChipFormat]),
	}
	var l chipfile.Loader
	for name, data := range forged {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := l.Load(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: chip file with a forged geometry loaded", name)
			continue
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: rejecting a %d-byte chip file allocated %d bytes, want under 1 MB", name, len(data), n)
		}
	}
}

// forgedReRAMGeometry rewrites a ReRAM chip file to claim a huge
// geometry that nor.Geometry.Validate still accepts, over a 3-byte
// array payload.
func forgedReRAMGeometry(t *testing.T, file []byte) []byte {
	t.Helper()
	var cf map[string]json.RawMessage
	if err := json.Unmarshal(file, &cf); err != nil {
		t.Fatal(err)
	}
	huge := nor.Geometry{Banks: 1, SegmentsPerBank: 1 << 22, SegmentBytes: 1, WordBytes: 1}
	if err := huge.Validate(); err != nil {
		t.Fatalf("geometry no longer passes validation, the test needs another: %v", err)
	}
	var err error
	if cf["geometry"], err = json.Marshal(huge); err != nil {
		t.Fatal(err)
	}
	cf["array"] = json.RawMessage(`"AAAA"`)
	data, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cellRecord is one serialized cell of a chip file's array.
type cellRecord struct {
	index  uint64
	margin float32
	wear   float64
}

// withCells rewrites a saved chip file's array to hold exactly the
// given cell records over the same geometry.
func withCells(t *testing.T, file []byte, records ...cellRecord) []byte {
	t.Helper()
	var cf map[string]json.RawMessage
	if err := json.Unmarshal(file, &cf); err != nil {
		t.Fatal(err)
	}
	var b64 string
	if err := json.Unmarshal(cf["array"], &b64); err != nil {
		t.Fatal(err)
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		t.Fatal(err)
	}
	const header = 22 // magic, version and geometry
	out := binary.LittleEndian.AppendUint64(append([]byte(nil), raw[:header]...), uint64(len(records)))
	for _, r := range records {
		out = binary.LittleEndian.AppendUint64(out, r.index)
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(r.margin))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(r.wear))
	}
	if cf["array"], err = json.Marshal(base64.StdEncoding.EncodeToString(out)); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadRefusesNonFiniteCells: every backend's loader refuses a chip
// file whose array holds a NaN or infinite margin or a NaN or +Inf
// wear, and names the cell. No operation leaves such a value — the
// margin sentinels are the finite ±MaxFloat32 — and a NaN margin would
// read as a deferral tag of the physics fast path. A file holding the
// same cells with finite values loads.
func TestLoadRefusesNonFiniteCells(t *testing.T) {
	programmed := cellRecord{index: 1, margin: nor.MarginProgrammed, wear: 5}
	bad := map[string]cellRecord{
		"NaN margin":              {index: 3, margin: float32(math.NaN())},
		"tag-shaped margin":       {index: 3, margin: math.Float32frombits(0x7FC00001)},
		"+Inf margin":             {index: 3, margin: float32(math.Inf(1))},
		"-Inf margin":             {index: 3, margin: float32(math.Inf(-1))},
		"NaN wear":                {index: 3, margin: nor.MarginErased, wear: math.NaN()},
		"programmed at +Inf wear": {index: 3, margin: nor.MarginProgrammed, wear: math.Inf(1)},
	}
	var l chipfile.Loader
	for format, file := range savedChips(t) {
		if _, err := l.Load(withCells(t, file, programmed, cellRecord{index: 3, margin: -2.5, wear: 7})); err != nil {
			t.Fatalf("%s: finite cells refused: %v", format, err)
		}
		for name, cell := range bad {
			_, err := l.Load(withCells(t, file, programmed, cell))
			if err == nil {
				t.Errorf("%s: chip file with a %s loaded", format, name)
			} else if !strings.Contains(err.Error(), fmt.Sprintf("cell %d", cell.index)) {
				t.Errorf("%s: %s refused without naming the cell: %v", format, name, err)
			}
		}
	}
}
