package floatgate

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/rng"
)

func newTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultParams(), 0xF1A5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero sigma", func(p *Params) { p.TauBaseSigmaUs = 0 }},
		{"empty clip", func(p *Params) { p.TauBaseMinUs = p.TauBaseMaxUs }},
		{"mean outside clip", func(p *Params) { p.TauBaseMeanUs = p.TauBaseMaxUs + 1 }},
		{"negative shift coef", func(p *Params) { p.ShiftCoefUs = -1 }},
		{"zero shift power", func(p *Params) { p.ShiftPower = 0 }},
		{"zero shape base", func(p *Params) { p.ShapeBase = 0 }},
		{"negative erase wear", func(p *Params) { p.EraseOnlyWear = -0.1 }},
		{"zero read noise", func(p *Params) { p.ReadNoiseSigmaUs = 0 }},
		{"zero endurance", func(p *Params) { p.EnduranceCycles = 0 }},
	}
	for _, c := range cases {
		p := DefaultParams()
		c.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad params", c.name)
		}
		if _, err := NewModel(p, 1); err == nil {
			t.Errorf("%s: NewModel accepted bad params", c.name)
		}
	}
}

func TestBaseDeterministic(t *testing.T) {
	m1 := newTestModel(t)
	m2 := newTestModel(t)
	for seg := 0; seg < 4; seg++ {
		for cell := 0; cell < 64; cell++ {
			b1 := m1.Base(seg, cell)
			b2 := m2.Base(seg, cell)
			if b1 != b2 {
				t.Fatalf("Base(%d,%d) not deterministic: %+v vs %+v", seg, cell, b1, b2)
			}
		}
	}
}

// TestBaseUMatchesBase: BaseU is Base's U bit for bit over whole
// SmallNAND-sized blocks and NOR segments of two chips.
func TestBaseUMatchesBase(t *testing.T) {
	for _, seed := range []uint64{0xF1A5, 1000} {
		m, err := NewModel(DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range []int{0, 1, 63} {
			for cell := 0; cell < 32768; cell++ {
				if got, want := m.BaseU(seg, cell), m.Base(seg, cell).U; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %#x cell (%d, %d): BaseU %v, Base.U %v", seed, seg, cell, got, want)
				}
			}
		}
	}
}

func TestBaseVariesAcrossCells(t *testing.T) {
	m := newTestModel(t)
	seen := map[CellBase]bool{}
	for cell := 0; cell < 256; cell++ {
		b := m.Base(0, cell)
		if seen[b] {
			t.Fatalf("duplicate cell base at cell %d", cell)
		}
		seen[b] = true
	}
}

func TestBaseVariesAcrossChips(t *testing.T) {
	p := DefaultParams()
	a, _ := NewModel(p, 1)
	b, _ := NewModel(p, 2)
	same := 0
	for cell := 0; cell < 100; cell++ {
		if a.Base(0, cell) == b.Base(0, cell) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d cells identical across different chip seeds", same)
	}
}

func TestBaseDistribution(t *testing.T) {
	m := newTestModel(t)
	p := m.Params()
	var taus []float64
	for cell := 0; cell < 8192; cell++ {
		b := m.Base(0, cell)
		if b.TauBaseUs < p.TauBaseMinUs || b.TauBaseUs > p.TauBaseMaxUs {
			t.Fatalf("tauBase %v outside clip range", b.TauBaseUs)
		}
		if b.U <= 0 || b.U >= 1 {
			t.Fatalf("U %v outside (0,1)", b.U)
		}
		taus = append(taus, b.TauBaseUs)
	}
	s := mathx.Summarize(taus)
	if math.Abs(s.Mean-p.TauBaseMeanUs) > 0.1 {
		t.Errorf("tauBase mean = %v, want ~%v", s.Mean, p.TauBaseMeanUs)
	}
	if math.Abs(s.StdDev-p.TauBaseSigmaUs) > 0.15 {
		t.Errorf("tauBase stddev = %v, want ~%v", s.StdDev, p.TauBaseSigmaUs)
	}
}

func TestTauFreshEqualsBase(t *testing.T) {
	m := newTestModel(t)
	b := m.Base(3, 17)
	if got := m.Tau(b, 0); got != b.TauBaseUs {
		t.Fatalf("Tau at zero wear = %v, want %v", got, b.TauBaseUs)
	}
}

// Property: tau is monotone non-decreasing in wear for every cell —
// the physical irreversibility at the heart of the paper.
func TestQuickTauMonotoneInWear(t *testing.T) {
	m := newTestModel(t)
	wears := []float64{0, 100, 1000, 5000, 10_000, 20_000, 40_000, 60_000, 80_000, 100_000, 150_000}
	f := func(cellIdx uint16) bool {
		b := m.Base(0, int(cellIdx)%4096)
		prev := -1.0
		for _, w := range wears {
			tau := m.Tau(b, w)
			if tau < prev-1e-9 {
				return false
			}
			prev = tau
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTauStressedSpreadGrows(t *testing.T) {
	m := newTestModel(t)
	spread := func(wear float64) float64 {
		var taus []float64
		for cell := 0; cell < 2048; cell++ {
			taus = append(taus, m.Tau(m.Base(1, cell), wear))
		}
		s := mathx.Summarize(taus)
		return s.Max - s.Min
	}
	s0 := spread(0)
	s20 := spread(20_000)
	s80 := spread(80_000)
	if !(s0 < s20 && s20 < s80) {
		t.Fatalf("tau spread should grow with wear: %v, %v, %v", s0, s20, s80)
	}
}

func TestShiftAndSpreadMonotone(t *testing.T) {
	m := newTestModel(t)
	prevF, prevG := -1.0, -1.0
	for _, w := range []float64{0, 1000, 10_000, 50_000, 100_000} {
		f, g := m.ShiftUs(w), m.SpreadUs(w)
		if f < prevF || g < prevG {
			t.Fatalf("F or G not monotone at wear %v", w)
		}
		prevF, prevG = f, g
	}
	if m.ShiftUs(0) != 0 || m.SpreadUs(0) != 0 {
		t.Fatal("F(0) and G(0) must be zero")
	}
}

func TestShapeSaturates(t *testing.T) {
	m := newTestModel(t)
	p := m.Params()
	atSat := m.Shape(p.ShapeSaturation)
	beyond := m.Shape(p.ShapeSaturation * 10)
	if atSat != beyond {
		t.Fatalf("shape should saturate: %v vs %v", atSat, beyond)
	}
	if m.Shape(0) != p.ShapeBase {
		t.Fatalf("Shape(0) = %v, want %v", m.Shape(0), p.ShapeBase)
	}
}

func TestEraseWearAsymmetry(t *testing.T) {
	m := newTestModel(t)
	full := m.EraseWear(true)
	gamma := m.EraseWear(false)
	if !(full > gamma && gamma > 0) {
		t.Fatalf("wear asymmetry violated: full=%v erase-only=%v", full, gamma)
	}
}

func TestReadOneProbability(t *testing.T) {
	m := newTestModel(t)
	if p := m.ReadOneProbability(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("P(read 1) at zero margin = %v, want 0.5", p)
	}
	if p := m.ReadOneProbability(100); p < 0.999999 {
		t.Errorf("deep positive margin should read 1: %v", p)
	}
	if p := m.ReadOneProbability(-100); p > 1e-6 {
		t.Errorf("deep negative margin should read 0: %v", p)
	}
	// Symmetry.
	if a, b := m.ReadOneProbability(0.4), m.ReadOneProbability(-0.4); math.Abs(a+b-1) > 1e-12 {
		t.Errorf("read noise asymmetric: %v + %v != 1", a, b)
	}
}

func TestSampleReadDeterministicTails(t *testing.T) {
	m := newTestModel(t)
	noise := rng.New(1)
	for i := 0; i < 100; i++ {
		if !m.SampleRead(50, noise) {
			t.Fatal("large positive margin sampled as 0")
		}
		if m.SampleRead(-50, noise) {
			t.Fatal("large negative margin sampled as 1")
		}
	}
}

func TestSampleReadNoisyNearThreshold(t *testing.T) {
	m := newTestModel(t)
	noise := rng.New(2)
	ones := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.SampleRead(0, noise) {
			ones++
		}
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("zero-margin reads should be ~50/50, got %v", frac)
	}
}

func TestRetentionShift(t *testing.T) {
	m := newTestModel(t)
	if m.RetentionShiftUs(0, 0) != 0 {
		t.Error("no aging should mean no drift")
	}
	fresh := m.RetentionShiftUs(0, 10)
	worn := m.RetentionShiftUs(100_000, 10)
	if !(worn > fresh && fresh > 0) {
		t.Errorf("retention drift should grow with wear: fresh=%v worn=%v", fresh, worn)
	}
}

func TestWorn(t *testing.T) {
	m := newTestModel(t)
	if m.Worn(50_000) {
		t.Error("50K cycles should be within endurance")
	}
	if !m.Worn(100_001) {
		t.Error("beyond endurance should report worn")
	}
}

func TestTauAtMatchesBaseTau(t *testing.T) {
	m := newTestModel(t)
	if m.TauAt(2, 99, 30_000) != m.Tau(m.Base(2, 99), 30_000) {
		t.Fatal("TauAt disagrees with Base+Tau")
	}
}

func BenchmarkTauStressed(b *testing.B) {
	m, _ := NewModel(DefaultParams(), 1)
	base := m.Base(0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Tau(base, 40_000)
	}
}

func BenchmarkBase(b *testing.B) {
	m, _ := NewModel(DefaultParams(), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Base(0, i&4095)
	}
}
