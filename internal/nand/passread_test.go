package nand

import (
	"math"
	"testing"
	"time"
)

// TestPassReadsAreIndependentDraws reads a partially erased block pass
// by pass, the order a majority read uses on this adapter, and checks
// that every pass samples each metastable cell afresh: a cell read in
// n passes must read 1 about n·p times, p being ReadOneProbability of
// its margin, with binomial spread. Cells are binned by p to catch a
// bias, and a chi-square over all of them catches dependence between
// passes (a page served twice from one read gives every cell 0 or n
// ones, far outside the spread).
func TestPassReadsAreIndependentDraws(t *testing.T) {
	const passes = 200
	a := Adapt(newNAND(t, 0x5A1))
	geom := a.Geometry()
	words := geom.WordsPerSegment()
	if err := a.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := a.ProgramBlock(0, make([]uint64, words)); err != nil {
		t.Fatal(err)
	}
	// 21 µs leaves about 60% of the block's cells between p = 0.02 and
	// p = 0.98.
	if err := a.PartialEraseSegment(0, 21*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	bits := geom.WordBits()
	ones := make([]int, geom.CellsPerSegment())
	for pass := 0; pass < passes; pass++ {
		for w := 0; w < words; w++ {
			v, err := a.ReadWord(w * geom.WordBytes)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < bits; b++ {
				ones[w*bits+b] += int(v >> uint(b) & 1)
			}
		}
	}

	const nbins = 10
	var got, want, variance [nbins]float64
	var chi2 float64
	cells := 0
	arr := a.d.array() // deferred margins materialized
	for c, k := range ones {
		p := a.d.model.ReadOneProbability(arr.Margin(c))
		if p < 0.02 || p > 0.98 {
			continue
		}
		cells++
		mean, v := passes*p, passes*p*(1-p)
		d := float64(k) - mean
		chi2 += d * d / v
		bin := int(p * nbins)
		got[bin] += float64(k)
		want[bin] += mean
		variance[bin] += v
	}
	if cells < 10_000 {
		t.Fatalf("only %d cells in the metastable band; the pulse no longer reaches it", cells)
	}
	for bin := range got {
		if z := (got[bin] - want[bin]) / math.Sqrt(variance[bin]); math.Abs(z) > 4.5 {
			t.Errorf("p in [%.1f, %.1f): %.0f ones, binomial mean %.0f (z = %.2f)",
				float64(bin)/nbins, float64(bin+1)/nbins, got[bin], want[bin], z)
		}
	}
	// Under independence chi2 has mean cells and standard deviation
	// about sqrt(2·cells).
	if z := (chi2 - float64(cells)) / math.Sqrt(2*float64(cells)); math.Abs(z) > 5 {
		t.Errorf("chi-square %.0f over %d cells (z = %.2f): reads are not independent binomial draws", chi2, cells, z)
	}
}
