package floatgate

import (
	"math"
	"slices"
	"testing"

	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/rng"
)

// TestArithmeticNaNIsNoTag: a NaN that arithmetic or math.NaN yields,
// stored the way nor.ClampMargin stores a margin, never reads as a
// deferral tag, so a margin computed from finite state cannot pose as
// one. Every tag the engine writes reads as one and gives back its
// group, its read decision and its draw window, from the first group to
// the last a tag can name and from window code 0 (k = 0, narrow) to the
// largest (the largest k, wide), with no field spilling into another.
func TestArithmeticNaNIsNoTag(t *testing.T) {
	zero, inf := 0.0, math.Inf(1)
	for _, v := range []float64{math.NaN(), -math.NaN(), inf - inf, zero / zero, inf * zero, math.Sqrt(-1)} {
		if m := nor.ClampMargin(v); isTag(m) {
			t.Errorf("NaN %#x stores as %#x, a tag", math.Float64bits(v), math.Float32bits(m))
		}
	}
	for _, g := range []int{0, 1, maxGroups / 2, maxGroups - 1} {
		if b := math.Float32bits(tagOf(g)); b&(decMask|winMask) != 0 {
			t.Errorf("group %d: fresh tag %#x carries a decision or a window", g, b)
		}
		for _, dec := range []uint32{0, decZero, decOne, decDraws} {
			for _, k := range []uint32{0, 1, winSteps/2 + 1, winSteps - 1} {
				for _, wide := range []uint32{0, wideBit} {
					m := math.Float32frombits(math.Float32bits(tagOf(g)) | dec | k<<winShift | wide)
					b := math.Float32bits(m)
					steps := float64(narrowSteps)
					if wide != 0 {
						steps = wideSteps
					}
					lo, hi := windowOf(b)
					if !isTag(m) || b&tagMask != tagValue || int(b&groupMask)-1 != g || b&decMask != dec ||
						lo != float64(k)/winSteps || hi != (float64(k)+steps)/winSteps {
						t.Errorf("group %d decision %#x window k %d wide %v: tag %#x reads back wrong", g, dec, k, wide != 0, b)
					}
				}
			}
		}
	}
}

// TestWindowHoldsPhiBounds: windowFor codes the narrow window where it
// reaches phi, the wide one where only that reaches it and none past
// that, and the window it codes always holds [plo, phi]; a bracket at
// the band's top edge codes the largest k.
func TestWindowHoldsPhiBounds(t *testing.T) {
	for _, c := range []struct {
		lo, width float64 // plo and phi − plo, in window steps
		want      uint32  // 0 narrow, wideBit wide
		ok        bool
	}{
		{614, 0.5, 0, true},
		{614, narrowSteps, 0, true},
		{614.4, 1.5, 0, true},
		{614.4, 1.7, wideBit, true},
		{614, wideSteps, wideBit, true},
		{614.5, wideSteps - 0.4, 0, false},
		{winSteps - 0.5, 0.25, 0, true},
		{math.NaN(), 1, 0, false},
		{614, math.NaN(), 0, false},
	} {
		plo, phi := c.lo/winSteps, (c.lo+c.width)/winSteps
		w, ok := windowFor(plo, phi)
		if ok != c.ok || ok && w&wideBit != c.want {
			t.Errorf("windowFor(%v, %v) = %#x, %v; want wide %v, %v", plo, phi, w, ok, c.want != 0, c.ok)
			continue
		}
		if lo, hi := windowOf(w); ok && !(lo <= plo && phi <= hi) {
			t.Errorf("windowFor(%v, %v) codes [%v, %v), which does not hold the bounds", plo, phi, lo, hi)
		}
	}
	plo, phi := mathx.PhiOver(6, 6, 1)
	if w, ok := windowFor(plo, phi); !ok || w>>winShift&(winSteps-1) != winSteps-1 {
		t.Errorf("a bracket at 6σ codes %#x, %v; want the largest k, %d", w, ok, winSteps-1)
	}
}

// TestGroupBoundMatchesReference runs a partial erase and an adaptive
// max over a unit whose cells carry twice as many distinct wear values
// as a unit may group, fresh and aged, at nominal and cold
// temperature. The engine groups the first maxGroups values and stores
// the rest with the reference arithmetic; the max groups as many and
// takes the rest cell by cell. Margins and the max must equal the
// reference per-cell scan bit for bit.
func TestGroupBoundMatchesReference(t *testing.T) {
	m := testModel(t)
	const unit, cells, pulseUs = 3, 4 * maxGroups, 25.0
	bases := m.BasesInto(unit, cells, nil)
	uorder := make([]int32, cells)
	for i := range uorder {
		uorder[i] = int32(i)
	}
	SortIndexByU(bases, uorder)
	wear := make([]float64, cells)
	for i := range wear {
		wear[i] = 5000 + float64(i%(2*maxGroups))*1e-3
	}
	include := func(i int) bool { return i%3 != 0 }
	for _, c := range []struct{ ageYears, tempF float64 }{{0, 1}, {10, m.TempFactor(0)}} {
		refTau := func(i int) float64 {
			tau := m.Tau(bases[i], wear[i])
			if c.ageYears > 0 {
				tau += m.RetentionShiftUs(wear[i], c.ageYears)
			}
			return tau * c.tempF
		}

		want := 0.0
		for i := 0; i < cells; i++ {
			if tau := refTau(i); include(i) && tau > want {
				want = tau
			}
		}
		var s MaxTauScratch
		got := m.MaxTauOver(bases, uorder, include, func(i int) float64 { return wear[i] }, c.ageYears, c.tempF, &s)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("age %v tempF %v: MaxTauOver %v, scan %v", c.ageYears, c.tempF, got, want)
		}
		if len(s.groups) != maxGroups {
			t.Errorf("age %v tempF %v: MaxTauOver built %d groups, want the bound %d", c.ageYears, c.tempF, len(s.groups), maxGroups)
		}

		margins := make([]float32, cells)
		for i := range margins {
			margins[i] = nor.MarginProgrammed
		}
		w := slices.Clone(wear)
		var d Deferral
		d.Bind(m, unit, margins, w)
		d.PartialErase(pulseUs, c.ageYears, c.tempF)
		if len(d.groups) != maxGroups || d.Live() == 0 || d.Live() == cells {
			t.Errorf("age %v tempF %v: %d groups and %d deferred cells, want the bound and some cells stored eagerly",
				c.ageYears, c.tempF, len(d.groups), d.Live())
		}
		d.Flush()
		for i, v := range margins {
			if want := nor.ClampMargin(pulseUs - refTau(i)); math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("age %v tempF %v cell %d: margin %v, reference %v", c.ageYears, c.tempF, i, v, want)
			}
		}
	}
}

// TestDrawWindowsHoldPhi partial-erases a worn unit, reads every cell
// eight times, partial-erases it again (the deferred cells carry the
// second pulse in their chains) and reads it eight times more. Every
// read must equal the reference read of the exact margin, which a twin
// engine flushed after each pulse holds, with the same noise stream.
// After every read, a cell whose tag holds a draw window must have
// Φ(m/σ) at its exact margin m inside that window: a window that does
// not hold it misreads only the draws between its edge and Φ, too rare
// for the read comparison alone to catch.
func TestDrawWindowsHoldPhi(t *testing.T) {
	m := testModel(t)
	const unit, cells = 5, 4096
	sigma := m.Params().ReadNoiseSigmaUs
	newUnit := func() (*Deferral, []float32) {
		margins, wear := make([]float32, cells), make([]float64, cells)
		for i := range margins {
			margins[i], wear[i] = nor.MarginProgrammed, 40_000+float64(i%2)*5_000
		}
		d := new(Deferral)
		d.Bind(m, unit, margins, wear)
		return d, margins
	}
	fast, fastMargins := newUnit()
	ref, refMargins := newUnit()
	fastNoise, refNoise := rng.New(7), rng.New(7)
	read := func(d *Deferral, margins []float32, i int, noise *rng.Stream) bool {
		switch v := margins[i]; {
		case d.Deferred(i):
			return d.Read(i, sigma, noise)
		case v >= nor.MarginErased:
			return true
		case v <= nor.MarginProgrammed:
			return false
		default:
			return m.SampleRead(float64(v), noise)
		}
	}
	for _, pulseUs := range []float64{25, 0.75} {
		fast.PartialErase(pulseUs, 0, 1)
		ref.PartialErase(pulseUs, 0, 1)
		ref.Flush()
		windows := 0
		for pass := 0; pass < 8; pass++ {
			for i := 0; i < cells; i++ {
				if got, want := read(fast, fastMargins, i, fastNoise), read(ref, refMargins, i, refNoise); got != want {
					t.Fatalf("pulse %v µs, pass %d, cell %d: read %v, reference %v", pulseUs, pass, i, got, want)
				}
				b := math.Float32bits(fastMargins[i])
				if !isTag(fastMargins[i]) || b&decMask != decDraws {
					continue
				}
				windows++
				if lo, hi := windowOf(b); !(lo <= mathx.NormalCDF(float64(refMargins[i]), 0, sigma) && mathx.NormalCDF(float64(refMargins[i]), 0, sigma) <= hi) {
					t.Fatalf("pulse %v µs, pass %d, cell %d: window [%v, %v) misses Φ %v at margin %v",
						pulseUs, pass, i, lo, hi, mathx.NormalCDF(float64(refMargins[i]), 0, sigma), refMargins[i])
				}
			}
		}
		t.Logf("pulse %v µs: %d windowed cell reads checked, %d cells still deferred", pulseUs, windows, fast.Live())
		if windows < 1000 {
			t.Errorf("pulse %v µs: only %d windowed cell reads: the test no longer exercises draw windows", pulseUs, windows)
		}
	}
}
