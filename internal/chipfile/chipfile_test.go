package chipfile_test

import (
	"bytes"
	"encoding/json"
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
