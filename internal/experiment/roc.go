package experiment

import (
	"sort"
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/parallel"
	"github.com/flashmark/flashmark/internal/report"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func init() { register("roc", RunROC) }

// ROCResult is the structured outcome of the recycling-screen threshold
// study: how the wear-screen decision threshold trades missed recycled
// chips against false alarms on fresh ones, across first-life intensities.
type ROCResult struct {
	Artifact *Artifact
	// FreshFractions holds the programmed-cell fractions measured on
	// fresh chips' data segments.
	FreshFractions []float64
	// RecycledFractions maps first-life P/E cycles to the measured
	// fractions on recycled chips.
	RecycledFractions map[int][]float64
	// Separation is the gap between the worst fresh fraction and the
	// best detectable recycled fraction at the lightest first life.
	Separation float64
}

// ROC measures the wear screen's operating characteristic: the
// programmed-cell fraction distributions of fresh vs recycled data
// segments, and the detection/false-alarm rates as the threshold sweeps.
func ROC(cfg Config) (*ROCResult, error) {
	cfg = cfg.withDefaults()
	freshChips := 6
	recycledPerLevel := 3
	lives := []int{2_000, 5_000, 10_000, 20_000}
	if cfg.Fast {
		freshChips = 3
		recycledPerLevel = 2
		lives = []int{2_000, 10_000}
	}
	const tpew = 25 * time.Microsecond
	factory := counterfeit.FactoryConfig{
		Fab:   mcu.Fab(cfg.Part),
		Codec: wmcode.Codec{Key: []byte("k")},
	}
	cells := cfg.Part.Geometry.CellsPerSegment()
	segAddr := cfg.Part.Geometry.SegmentBytes // first data segment

	res := &ROCResult{RecycledFractions: map[int][]float64{}}
	measure := func(class counterfeit.ChipClass, fieldWear int, seed uint64) (float64, error) {
		f := factory
		f.FieldWearCycles = fieldWear
		dev, err := counterfeit.Fabricate(class, f, seed, 1)
		if err != nil {
			return 0, err
		}
		programmed, err := core.DetectStress(dev, segAddr, tpew, 3)
		if err != nil {
			return 0, err
		}
		return float64(programmed) / float64(cells), nil
	}

	// Every chip is an independent fabricate-and-probe: flatten fresh and
	// recycled chips into one job list and fan it out; fractions land by
	// index so the population ordering (and output) never changes.
	type chipJob struct {
		class counterfeit.ChipClass
		wear  int
		seed  uint64
	}
	var chips []chipJob
	for i := 0; i < freshChips; i++ {
		chips = append(chips, chipJob{counterfeit.ClassGenuineAccept, 10_000, 0xF0C0 + uint64(i)})
	}
	for _, life := range lives {
		for i := 0; i < recycledPerLevel; i++ {
			chips = append(chips, chipJob{counterfeit.ClassRecycled, life, 0xF1C0 + uint64(life) + uint64(i)})
		}
	}
	fracs, err := parallel.Map(cfg.pool(), len(chips), func(i int) (float64, error) {
		return measure(chips[i].class, chips[i].wear, chips[i].seed)
	})
	if err != nil {
		return nil, err
	}
	res.FreshFractions = fracs[:freshChips]
	for li, life := range lives {
		start := freshChips + li*recycledPerLevel
		res.RecycledFractions[life] = fracs[start : start+recycledPerLevel]
	}

	dist := report.Table{
		Title:   "EXT-ROC — programmed-cell fraction at t_PEW: fresh vs recycled data segments",
		Columns: []string{"population", "fractions (%)"},
	}
	dist.AddRow("fresh", fracList(res.FreshFractions))
	for _, life := range lives {
		dist.AddRow("recycled "+levelName(life)+" first life", fracList(res.RecycledFractions[life]))
	}

	// Threshold sweep: detection per first-life level and fresh false
	// alarms, computed offline from the measured fractions.
	roc := report.Table{
		Title:   "EXT-ROC — wear-screen threshold sweep",
		Columns: append([]string{"threshold (%)", "fresh false alarms"}, rocCols(lives)...),
	}
	for _, thr := range []float64{0.01, 0.02, 0.04, 0.08, 0.15, 0.30} {
		row := []any{100 * thr, countAbove(res.FreshFractions, thr)}
		for _, life := range lives {
			row = append(row, countAbove(res.RecycledFractions[life], thr))
		}
		roc.AddRow(row...)
	}
	roc.AddNote("default threshold 4%%: zero fresh false alarms; every first life >= 10K cycles is caught")
	roc.AddNote("blind spot: first lives of <= 5K cycles sit near the fresh manufacturing spread; catching them requires a ~1.3%% threshold and accepting fresh false alarms")

	// Separation: worst fresh vs best lightest-life recycled.
	fresh := append([]float64(nil), res.FreshFractions...)
	sort.Float64s(fresh)
	lightest := append([]float64(nil), res.RecycledFractions[lives[0]]...)
	sort.Float64s(lightest)
	if len(fresh) > 0 && len(lightest) > 0 {
		res.Separation = lightest[0] - fresh[len(fresh)-1]
	}
	dist.AddNote("separation between worst fresh and lightest recycled: %.3f", res.Separation)

	res.Artifact = &Artifact{
		ID:     "roc",
		Title:  "Recycling screen operating characteristic",
		Tables: []report.Table{dist, roc},
	}
	return res, nil
}

func fracList(fs []float64) string {
	out := ""
	for i, f := range fs {
		if i > 0 {
			out += " "
		}
		out += itoa(int(f*1000 + 0.5))
	}
	return out + " (per mille)"
}

func rocCols(lives []int) []string {
	out := make([]string, len(lives))
	for i, l := range lives {
		out[i] = "caught @" + levelName(l)
	}
	return out
}

func countAbove(fs []float64, thr float64) int {
	n := 0
	for _, f := range fs {
		if f > thr {
			n++
		}
	}
	return n
}

// RunROC adapts ROC to the registry.
func RunROC(cfg Config) (*Artifact, error) {
	res, err := ROC(cfg)
	if err != nil {
		return nil, err
	}
	return res.Artifact, nil
}
