package experiment

import (
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
	"github.com/flashmark/flashmark/internal/vclock"
)

func init() { register("timing", RunTiming) }

// TimingResult is the structured outcome of the §V timing study.
type TimingResult struct {
	Artifact *Artifact
	// Imprint maps (N_PE, accelerated) to the virtual imprint duration.
	ImprintBaseline    map[int]time.Duration
	ImprintAccelerated map[int]time.Duration
	// Extract is the virtual duration of a replica extraction including
	// host readout (paper: ~170 ms).
	Extract time.Duration
	// OverheadSegments is the flash footprint (paper: one segment).
	OverheadSegments int
}

// paper §V timing anchors, in seconds.
var paperImprintBaseline = map[int]float64{40_000: 1380, 70_000: 2415}
var paperImprintAccelerated = map[int]float64{40_000: 387, 70_000: 678}

// Timing reproduces the §V time/overhead discussion: imprint time as a
// function of N_PE for the baseline (full nominal erase) and accelerated
// (premature erase exit) procedures, and the extraction time with
// replicated watermarks.
func Timing(cfg Config) (*TimingResult, error) {
	cfg = cfg.withDefaults()
	levels := []int{40_000, 70_000}
	if cfg.Fast {
		levels = []int{40_000}
	}
	wm := core.ReferenceWatermark(cfg.Part.Geometry.WordsPerSegment())
	res := &TimingResult{
		ImprintBaseline:    map[int]time.Duration{},
		ImprintAccelerated: map[int]time.Duration{},
		OverheadSegments:   1,
	}
	tbl := report.Table{
		Title:   "§V — imprint time per procedure and stress count",
		Columns: []string{"N_PE", "procedure", "time (s)", "paper (s)", "speedup"},
	}
	// Every timing measurement below runs on its own device (baseline vs
	// accelerated imprints per level, the extraction breakdown, and the
	// fast-NOR projections), so the whole study is one fan-out: a flat
	// item list with a union result, assembled serially afterwards.
	type item struct {
		kind string // "imprint" | "extract" | "fastnor"
		npe  int
		acc  bool
	}
	var items []item
	for _, npe := range levels {
		for _, acc := range []bool{false, true} {
			items = append(items, item{kind: "imprint", npe: npe, acc: acc})
		}
	}
	extractIdx := len(items)
	items = append(items, item{kind: "extract"})
	fastIdx := len(items)
	items = append(items, item{kind: "fastnor", acc: false}, item{kind: "fastnor", acc: true})

	type itemOut struct {
		elapsed time.Duration
		ledger  map[vclock.OpClass]time.Duration
	}
	outs, err := parallel.Map(cfg.pool(), len(items), func(i int) (itemOut, error) {
		switch it := items[i]; it.kind {
		case "imprint":
			dev, err := cfg.newDevice(uint64(it.npe)*7 + 1)
			if err != nil {
				return itemOut{}, err
			}
			start := dev.Clock().Now()
			if err := core.ImprintSegment(dev, 0, wm, core.ImprintOptions{NPE: it.npe, Accelerated: it.acc}); err != nil {
				return itemOut{}, err
			}
			return itemOut{elapsed: dev.Clock().Now() - start}, nil
		case "extract":
			// Extraction time: one extraction of a 7-replica watermark
			// with 3 majority reads, including the serial host readout of
			// the raw data.
			dev, err := cfg.newDevice(99)
			if err != nil {
				return itemOut{}, err
			}
			if err := core.ImprintSegment(dev, 0, wm, core.ImprintOptions{NPE: 1000, Accelerated: true}); err != nil {
				return itemOut{}, err
			}
			start := dev.Clock().Now()
			startLedger := dev.Ledger().Snapshot()
			if _, err := core.ExtractSegment(dev, 0, core.ExtractOptions{
				TPEW:        25 * time.Microsecond,
				Reads:       3,
				HostReadout: true,
			}); err != nil {
				return itemOut{}, err
			}
			return itemOut{elapsed: dev.Clock().Now() - start, ledger: dev.Ledger().Sub(startLedger)}, nil
		default: // "fastnor"
			fdev, err := mcu.Open(mcu.PartFastNOR(), cfg.Seed^0xFA57)
			if err != nil {
				return itemOut{}, err
			}
			fwm := core.ReferenceWatermark(mcu.PartFastNOR().Geometry.WordsPerSegment())
			start := fdev.Clock().Now()
			if err := core.ImprintSegment(fdev, 0, fwm, core.ImprintOptions{NPE: 40_000, Accelerated: it.acc}); err != nil {
				return itemOut{}, err
			}
			return itemOut{elapsed: fdev.Clock().Now() - start}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	for li, npe := range levels {
		baseline := outs[2*li].elapsed
		accelerated := outs[2*li+1].elapsed
		res.ImprintBaseline[npe] = baseline
		res.ImprintAccelerated[npe] = accelerated
		speedup := float64(baseline) / float64(accelerated)
		tbl.AddRow(levelName(npe), "baseline", baseline.Seconds(), paperImprintBaseline[npe], "1.0x")
		tbl.AddRow(levelName(npe), "accelerated", accelerated.Seconds(), paperImprintAccelerated[npe],
			formatSpeedup(speedup))
	}
	tbl.AddNote("paper reports a ~3.5x reduction from the premature erase exit")

	res.Extract = outs[extractIdx].elapsed
	diff := outs[extractIdx].ledger

	etbl := report.Table{
		Title:   "§V — extraction time breakdown (3-read, replicated watermark)",
		Columns: []string{"component", "time (ms)"},
	}
	for _, class := range []vclock.OpClass{vclock.OpErase, vclock.OpProgram, vclock.OpPartialErase, vclock.OpRead, mcu.OpHost, vclock.OpOverhead} {
		if d, ok := diff[class]; ok {
			etbl.AddRow(string(class), float64(d)/float64(time.Millisecond))
		}
	}
	etbl.AddRow("total", float64(res.Extract)/float64(time.Millisecond))
	etbl.AddNote("paper: ~170 ms with multiple replicas")
	etbl.AddNote("flash overhead: %d segment (%d bytes)", res.OverheadSegments, cfg.Part.Geometry.SegmentBytes)

	// Extension: the paper predicts stand-alone NOR chips with faster
	// erase/program imprint "significantly" faster; measure it.
	ftbl := report.Table{
		Title:   "EXT — imprint time on a stand-alone fast NOR part (paper §V projection)",
		Columns: []string{"part", "procedure", "40K imprint (s)"},
	}
	for j, name := range []string{"baseline", "accelerated"} {
		ftbl.AddRow("FAST-NOR", name, outs[fastIdx+j].elapsed.Seconds())
	}
	ftbl.AddNote("MSP430-class part needs 1381 s / 386 s for the same imprint")

	res.Artifact = &Artifact{
		ID:     "timing",
		Title:  "Imprint and extraction times (paper §V)",
		Tables: []report.Table{tbl, etbl, ftbl},
	}
	return res, nil
}

func formatSpeedup(v float64) string {
	whole := int(v)
	tenth := int(v*10) % 10
	return itoa(whole) + "." + itoa(tenth) + "x"
}

// RunTiming adapts Timing to the registry.
func RunTiming(cfg Config) (*Artifact, error) {
	res, err := Timing(cfg)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}
