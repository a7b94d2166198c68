package chipfile_test

import (
	"bytes"
	"testing"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// BenchmarkLoad times the load layer alone, on one core if run with
// -cpu 1: a chip file through a warm chipfile.Loader, for a genuine and
// a recycled FM-SIM16 NOR chip, a genuine ReRAM chip and a genuine
// SmallNAND chip, and the split of a 16-chip batch body in perfbench's
// batch-intake mix (NOR:ReRAM 3:1; genuine:clone:counterfeit 10:3:3).
// Each row reports MB/s of chip file.
//
// Run: go test -run '^$' -bench BenchmarkLoad -cpu 1 ./internal/chipfile
func BenchmarkLoad(b *testing.B) {
	norFab, reramFab := mcu.Fab(mcu.PartSmallSim()), reram.DefaultFab()
	fab := func(f device.Fab, class counterfeit.ChipClass, seed uint64) []byte {
		dev, err := counterfeit.Fabricate(class, counterfeit.FactoryConfig{
			Fab: f, Codec: wmcode.Codec{Key: []byte("bench")}, Manufacturer: "TC",
		}, seed, seed)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			b.Fatal(err)
		}
		return bytes.TrimSpace(buf.Bytes())
	}
	var batch [][]byte
	for i, c := range []struct {
		fab   device.Fab
		class counterfeit.ChipClass
		n     int
	}{
		{norFab, counterfeit.ClassGenuineAccept, 8},
		{norFab, counterfeit.ClassReplayImprint, 2},
		{norFab, counterfeit.ClassRecycled, 1},
		{norFab, counterfeit.ClassMetadataForgery, 1},
		{reramFab, counterfeit.ClassGenuineAccept, 2},
		{reramFab, counterfeit.ClassReplayImprint, 1},
		{reramFab, counterfeit.ClassDigitalClone, 1},
	} {
		for j := 0; j < c.n; j++ {
			batch = append(batch, fab(c.fab, c.class, uint64(100*i+j+1)))
		}
	}
	body := []byte(`{"chips":[`)
	for i, c := range batch {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, c...)
	}
	body = append(body, "]}"...)

	for _, row := range []struct {
		name string
		file []byte
	}{
		{"nor", batch[0]},
		{"nor-recycled", batch[10]},
		{"reram", batch[12]},
		{"nand", fab(nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()), counterfeit.ClassGenuineAccept, 7)},
	} {
		b.Run(row.name, func(b *testing.B) {
			var l chipfile.Loader
			if _, err := l.Load(row.file); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(row.file)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Load(row.file); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("batch-split", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if chips, ok := chipfile.SplitBatch(body); !ok || len(chips) != len(batch) {
				b.Fatalf("split %d chips, ok %v; want %d", len(chips), ok, len(batch))
			}
		}
	})
}
