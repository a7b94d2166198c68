package counterfeit

import (
	"context"
	"testing"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// BenchmarkRunPopulation measures the population engine end to end on
// one worker: each op fabricates, imprints and verifies, with the
// recycling screen on, a population of genuine dice of one backend
// (key "k", manufacturer "TC", seeds from seedBase 1000), and the row
// reports dice/s. The populations are sized so that one op of every
// row, as CI's 1x smoke pass runs them, takes about a second in all.
//
// Run: go test -run '^$' -bench BenchmarkRunPopulation ./internal/counterfeit/
func BenchmarkRunPopulation(b *testing.B) {
	rows := []struct {
		name string
		fab  device.Fab
		dice int
	}{
		{"nor", mcu.Fab(mcu.PartSmallSim()), 100},
		{"reram", reram.DefaultFab(), 100},
		{"nand", nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()), 10},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			cfg := FactoryConfig{Fab: r.fab, Codec: wmcode.Codec{Key: []byte("k")}, Manufacturer: "TC"}
			v := &Verifier{Codec: cfg.Codec, Manufacturer: "TC", CheckRecycling: true}
			spec := PopulationSpec{ClassGenuineAccept: r.dice}
			for i := 0; i < b.N; i++ {
				if _, _, err := RunPopulationContext(context.Background(), spec, cfg, v, 1000, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.dice*b.N)/b.Elapsed().Seconds(), "dice/s")
		})
	}
}
