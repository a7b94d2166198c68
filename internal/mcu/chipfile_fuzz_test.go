package mcu_test

import (
	"bytes"
	"encoding/json"
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

// FuzzLoadDevice feeds arbitrary bytes to chipfile.Loader, the format
// dispatcher fmverifyd and the flashmark CLI load every chip file
// through, over all three backends' loaders. It must never panic, and
// any file it accepts must survive a Save/Load round trip with seed,
// part and age intact. Its committed corpus is this package's
// testdata/fuzz/FuzzLoadDevice.
func FuzzLoadDevice(f *testing.F) {
	dev, err := mcu.NewDevice(mcu.PartSmallSim(), 42)
	if err != nil {
		f.Fatal(err)
	}
	good := saveChip(f, dev)
	f.Add(good)
	// Aged chip: exercises the SetAgeYears path on reload.
	if err := dev.Age(3.5); err != nil {
		f.Fatal(err)
	}
	f.Add(saveChip(f, dev))
	// Structured near-misses: valid JSON shapes that each trip one
	// validation branch.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"format":"flashmark-chip","version":1}`))
	f.Add([]byte(`{"format":"flashmark-chip","version":99,"part":"FM-SIM16"}`))
	f.Add([]byte(`{"format":"flashmark-chip","version":1,"part":"NO-SUCH-PART"}`))
	f.Add([]byte(`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":"!!not-base64!!"}`))
	f.Add([]byte(`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","ageYears":-2,"array":""}`))
	f.Add([]byte(strings.Replace(string(good), `"seed"`, `"params":{"EnduranceCycles":0},"seed"`, 1)))
	f.Add([]byte("not json at all"))
	f.Add([]byte{})
	// Regression: the allocation bomb (forged oversized array header).
	f.Add(mcu.BombChipFile(4, 1<<15, 512))
	f.Add(mcu.BombChipFile(1<<20, 1<<20, 512))
	// Regression: non-finite cell state (a NaN margin, +Inf wear).
	f.Add(mcu.NonFiniteChipFile())

	// The other backends: a file each one's Save wrote, with one page
	// of programmed cells.
	nandDev, err := nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), 43)
	if err != nil {
		f.Fatal(err)
	}
	reramDev, err := reram.Open(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 44)
	if err != nil {
		f.Fatal(err)
	}
	nandFile := saveChip(f, programPage(f, nandDev))
	reramFile := saveChip(f, programPage(f, reramDev))
	f.Add(nandFile)
	f.Add(reramFile)
	// Forged geometries that Validate accepts but the array payload
	// contradicts: about 100 MB (ReRAM) and 400 MB (NAND) of state if
	// sized before the array-header check.
	f.Add(forgedReRAMGeometry(f, reramFile))
	f.Add(bytes.Replace(nandFile, []byte(`"Blocks": 8,`), []byte(`"Blocks": 1024,`), 1))
	// Each backend's body under another backend's format tag.
	files := map[string][]byte{"flashmark-chip": good, nand.ChipFormat: nandFile, reram.ChipFormat: reramFile}
	for _, format := range []string{"flashmark-chip", nand.ChipFormat, reram.ChipFormat} {
		for _, other := range []string{"flashmark-chip", nand.ChipFormat, reram.ChipFormat} {
			if other != format {
				f.Add(bytes.Replace(files[format], []byte(`"`+format+`"`), []byte(`"`+other+`"`), 1))
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The device aliases its loader's storage, so the reload goes
		// through a second loader.
		var first, second chipfile.Loader
		dev, err := first.Load(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			t.Fatalf("accepted chip failed to re-save: %v", err)
		}
		back, err := second.Load(buf.Bytes())
		if err != nil {
			t.Fatalf("re-saved chip failed to reload: %v", err)
		}
		if back.Seed() != dev.Seed() || back.PartName() != dev.PartName() {
			t.Fatalf("identity drifted through round trip: %d/%s vs %d/%s",
				dev.Seed(), dev.PartName(), back.Seed(), back.PartName())
		}
		if ageOf(back) != ageOf(dev) {
			t.Fatalf("age drifted through round trip: %v vs %v", ageOf(dev), ageOf(back))
		}
	})
}

func saveChip(tb testing.TB, dev device.Device) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// programPage programs the first 256 words (one SmallNAND page) with a
// pattern, so the saved array carries cell records.
func programPage(tb testing.TB, dev device.Device) device.Device {
	tb.Helper()
	words := make([]uint64, 256)
	for i := range words {
		words[i] = uint64(i*37) & 0xFFFF
	}
	if err := dev.Unlock(); err != nil {
		tb.Fatal(err)
	}
	if err := dev.ProgramBlock(0, words); err != nil {
		tb.Fatal(err)
	}
	dev.Lock()
	return dev
}

// ageOf is the device's storage age, or 0 for a backend that does not
// model aging.
func ageOf(dev device.Device) float64 {
	if a, ok := device.As[device.Ager](dev); ok {
		return a.AgeYears()
	}
	return 0
}

// forgedReRAMGeometry rewrites a ReRAM chip file to claim 4,194,304
// one-byte segments, which nor.Geometry.Validate accepts, over a 3-byte
// array payload.
func forgedReRAMGeometry(tb testing.TB, file []byte) []byte {
	tb.Helper()
	var cf map[string]json.RawMessage
	if err := json.Unmarshal(file, &cf); err != nil {
		tb.Fatal(err)
	}
	geom, err := json.Marshal(nor.Geometry{Banks: 1, SegmentsPerBank: 1 << 22, SegmentBytes: 1, WordBytes: 1})
	if err != nil {
		tb.Fatal(err)
	}
	cf["geometry"] = geom
	cf["array"] = json.RawMessage(`"AAAA"`)
	data, err := json.Marshal(cf)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
