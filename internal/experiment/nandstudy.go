package experiment

import (
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
)

func init() { register("nand", RunNANDStudy) }

// NANDStudyResult is the structured outcome of the NAND applicability
// study (paper §VI: "the proposed method is applicable broadly to NOR
// and NAND flash memories").
type NANDStudyResult struct {
	Artifact *Artifact
	// MinBER maps N_PE to the minimum extraction BER (%) on NAND.
	MinBER map[int]float64
	// ImprintTime maps N_PE to the accelerated imprint duration.
	ImprintTime map[int]time.Duration
	// NORMinBER holds the NOR comparison at the same N_PE values.
	NORMinBER map[int]float64
}

// NANDStudy imprints and extracts watermarks on a simulated SLC NAND
// part — block-granular erase, page-granular sequential programming —
// using the same cell physics, and compares the operating points with
// the NOR results.
func NANDStudy(cfg Config) (*NANDStudyResult, error) {
	cfg = cfg.withDefaults()
	levels := []int{40_000, 80_000}
	if cfg.Fast {
		levels = []int{60_000}
	}
	lo, hi := 20*time.Microsecond, 32*time.Microsecond
	step := 500 * time.Nanosecond
	if cfg.Fast {
		step = time.Microsecond
	}
	geom := nand.SmallNAND()
	wmBytes := make([]byte, geom.BlockBytes())
	text := "TRUSTED CHIPMAKER NAND DIE-SORT ACCEPT "
	for i := range wmBytes {
		wmBytes[i] = text[i%len(text)]
	}
	// The adapter views the block as 16-bit words (little-endian bytes).
	wm := make([]uint64, len(wmBytes)/2)
	for w := range wm {
		wm[w] = uint64(wmBytes[2*w]) | uint64(wmBytes[2*w+1])<<8
	}

	res := &NANDStudyResult{
		MinBER:      map[int]float64{},
		ImprintTime: map[int]time.Duration{},
		NORMinBER:   map[int]float64{},
	}
	tbl := report.Table{
		Title:   "EXT-NAND — Flashmark on SLC NAND (paper §VI applicability claim)",
		Columns: []string{"N_PE", "NAND min BER (%)", "at t_PE (µs)", "NOR min BER (%)", "NAND imprint (s)"},
	}
	plot := report.Plot{
		Title:  "EXT-NAND — extraction BER vs t_PE on NAND",
		XLabel: "t_PE (µs)",
		YLabel: "BER (%)",
	}
	cells := geom.CellsPerBlock()
	// Per level there are TWO independent devices — the NAND block under
	// test and the NOR comparison chip — so the grid fans out as
	// levels × {nand, nor} with per-device operation order untouched.
	type sweepOut struct {
		series  report.Series
		minBER  float64
		bestT   time.Duration
		imprint time.Duration
	}
	outs, err := parallel.Map(cfg.pool(), 2*len(levels), func(idx int) (sweepOut, error) {
		npe := levels[idx/2]
		if idx%2 == 0 {
			// The NAND chip rides the very same core procedures as the
			// NOR comparison below — only the fabricator differs.
			dev, err := nand.Open(geom, nand.SLCTiming(), floatgate.DefaultParams(), cfg.Seed^uint64(npe))
			if err != nil {
				return sweepOut{}, err
			}
			start := dev.Clock().Now()
			if err := core.ImprintSegment(dev, 0, wm, core.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
				return sweepOut{}, err
			}
			out := sweepOut{series: report.Series{Name: levelName(npe)}, minBER: 101.0, imprint: dev.Clock().Now() - start}
			for t := lo; t <= hi; t += step {
				got, err := core.ExtractSegment(dev, 0, core.ExtractOptions{TPEW: t})
				if err != nil {
					return sweepOut{}, err
				}
				ber := 100 * float64(core.BitErrors(got, wm, dev.Geometry().WordBits())) / float64(cells)
				out.series.X = append(out.series.X, us(t))
				out.series.Y = append(out.series.Y, ber)
				if ber < out.minBER {
					out.minBER, out.bestT = ber, t
				}
			}
			return out, nil
		}
		// NOR comparison at the same stress, same sweep.
		norDev, err := cfg.newDevice(uint64(npe) + 0x4E)
		if err != nil {
			return sweepOut{}, err
		}
		norWM := core.ReferenceWatermark(cfg.Part.Geometry.WordsPerSegment())
		if err := core.ImprintSegment(norDev, 0, norWM, core.ImprintOptions{NPE: npe, Accelerated: true}); err != nil {
			return sweepOut{}, err
		}
		out := sweepOut{minBER: 101.0}
		for t := lo; t <= hi; t += step {
			got, err := core.ExtractSegment(norDev, 0, core.ExtractOptions{TPEW: t})
			if err != nil {
				return sweepOut{}, err
			}
			if ber := 100 * core.BER(got, norWM, cfg.Part.Geometry.WordBits()); ber < out.minBER {
				out.minBER = ber
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for li, npe := range levels {
		nandOut, norOut := outs[2*li], outs[2*li+1]
		res.ImprintTime[npe] = nandOut.imprint
		res.MinBER[npe] = nandOut.minBER
		res.NORMinBER[npe] = norOut.minBER
		plot.Series = append(plot.Series, nandOut.series)
		tbl.AddRow(levelName(npe), nandOut.minBER, us(nandOut.bestT), norOut.minBER, nandOut.imprint.Seconds())
	}
	tbl.AddNote("same cell physics, block/page discipline instead of segment/word; the procedure carries over")
	res.Artifact = &Artifact{
		ID:     "nand",
		Title:  "Flashmark on NAND flash",
		Tables: []report.Table{tbl},
		Plots:  []report.Plot{plot},
	}
	return res, nil
}

// RunNANDStudy adapts NANDStudy to the registry.
func RunNANDStudy(cfg Config) (*Artifact, error) {
	res, err := NANDStudy(cfg)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}
