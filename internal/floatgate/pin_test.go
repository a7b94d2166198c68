package floatgate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/flashmark/flashmark/internal/nor"
)

// The pinned-margin kernel may only ever report the reference margin:
// every pin is checked bit for bit against ClampMargin(p − tau) with
// tau from Model.Tau, the per-cell reference arithmetic.

// pinCase is one row of the soundness table: a partial erase of a
// 4,096-cell segment at one wear, pulse, age and temperature.
type pinCase struct {
	wear, pulseUs, ageYears, tempC float64
}

func (c pinCase) String() string {
	return fmt.Sprintf("wear=%v pulse=%vus age=%vy temp=%vC", c.wear, c.pulseUs, c.ageYears, c.tempC)
}

// dieSortWears are the wears a fresh data segment shows a partial erase:
// one erase of a never-cycled cell, and a die-sort test of a few cycles.
var dieSortWears = []float64{0.0625, 1, 8}

func pinCases() []pinCase {
	var cases []pinCase
	wears := append(append([]float64(nil), dieSortWears...), 2500, 5000, 40000, 80000)
	for _, wear := range wears {
		for _, pulse := range []float64{5, 25, 40} {
			for _, age := range []float64{0, 10} {
				for _, temp := range []float64{0, 25, 70} {
					cases = append(cases, pinCase{wear, pulse, age, temp})
				}
			}
		}
	}
	return cases
}

// refMargin is the reference path's stored margin: Model.Tau, plus
// retention when aged, times the temperature factor, through the store.
func refMargin(m *Model, c pinCase, base CellBase) float32 {
	tau := m.Tau(base, c.wear)
	if c.ageYears > 0 {
		tau += m.RetentionShiftUs(c.wear, c.ageYears)
	}
	return nor.ClampMargin(c.pulseUs - tau*m.TempFactor(c.tempC))
}

// storeFor is the same chain with the quantile term left open, as the
// fast paths hand it to the kernel.
func storeFor(m *Model, c pinCase, env *TauEnv, base CellBase) MarginStore {
	ret := m.RetentionShiftUs(c.wear, c.ageYears)
	tempF := m.TempFactor(c.tempC)
	return func(q float64) float32 {
		tau := env.TauFromQ(base, q)
		if c.ageYears > 0 {
			tau += ret
		}
		return nor.ClampMargin(c.pulseUs - tau*tempF)
	}
}

// TestPinnedMarginMatchesReference checks both brackets the fast paths
// pin from: the wear group's quantile grid (a partial erase's defer-time
// test, and NAND's) and padded neighbors in u order (NOR
// materialization). The gate is ignored here on purpose: it only skips
// work, and a pin must be sound wherever it is attempted.
func TestPinnedMarginMatchesReference(t *testing.T) {
	m := testModel(t)
	bases := m.BasesInto(5, 4096, nil)
	order := make([]int32, len(bases))
	for i := range order {
		order[i] = int32(i)
	}
	SortIndexByU(bases, order)
	const stride = 16 // every 16th member in u order is evaluated exactly

	check := func(c pinCase, how string, ci int32, v float32) {
		t.Helper()
		if want := refMargin(m, c, bases[ci]); math.Float32bits(v) != math.Float32bits(want) {
			t.Fatalf("%v: %s pin of cell %d = %v, reference %v", c, how, ci, v, want)
		}
	}
	pinnedDieSort := 0
	for _, c := range pinCases() {
		env := m.TauEnvAt(c.wear)
		var grid PinGrid
		for _, ci := range order {
			if v, ok := grid.Pin(&env, bases[ci].U, storeFor(m, c, &env, bases[ci])); ok {
				check(c, "grid", ci, v)
				if c.wear <= 8 {
					pinnedDieSort++
				}
			}
		}
		q := make([]float64, len(order))
		for pos := 0; pos < len(order); pos += stride {
			q[pos] = env.QuantileU(bases[order[pos]].U)
		}
		for pos := 1; pos < len(order)-stride; pos++ {
			if pos%stride == 0 {
				continue
			}
			below, above := pos-pos%stride, pos-pos%stride+stride
			ci := order[pos]
			if v, ok := PinnedMargin(PadQLow(q[below]), PadQHigh(q[above]), storeFor(m, c, &env, bases[ci])); ok {
				check(c, "neighbor", ci, v)
			}
		}
	}
	if pinnedDieSort == 0 {
		t.Fatal("no die-sort cell pinned: the table checks nothing")
	}
}

// TestPinEffectiveness: at die-sort wear and the 25 µs extraction pulse
// the grid pins most cells, and it evaluates no more than its points.
func TestPinEffectiveness(t *testing.T) {
	m := testModel(t)
	bases := m.BasesInto(9, 4096, nil)
	// Floors sit below the shares this segment reads (100.0% and 30.5%)
	// by a margin that covers the choice of segment.
	floors := map[float64]float64{0.0625: 0.99, 8: 0.25}
	for wear, floor := range floors {
		c := pinCase{wear: wear, pulseUs: 25, tempC: 25}
		env := m.TauEnvAt(wear)
		if !m.Pinnable(&env, 1, 0, c.pulseUs) {
			t.Fatalf("%v: gate refuses a die-sort group", c)
		}
		var grid PinGrid
		pinned := 0
		for _, b := range bases {
			if _, ok := grid.Pin(&env, b.U, storeFor(m, c, &env, b)); ok {
				pinned++
			}
		}
		share := float64(pinned) / float64(len(bases))
		evaluated := 0
		for _, q := range grid {
			if q != 0 {
				evaluated++
			}
		}
		t.Logf("%v: %.1f%% pinned, %d grid quantiles", c, 100*share, evaluated)
		if share < floor {
			t.Errorf("%v: %.3f of cells pinned, floor %.2f", c, share, floor)
		}
		if evaluated > PinGridPoints {
			t.Errorf("%v: %d grid quantiles for %d points", c, evaluated, PinGridPoints)
		}
	}
}

// TestPinnableGate: worn groups — imprinted watermark cells, recycled
// data segments, the Fig. 4 stress levels — never pay for a grid, and
// groups without a quantile term have nothing to pin.
func TestPinnableGate(t *testing.T) {
	m := testModel(t)
	for _, wear := range []float64{625, 2500, 5000, 10000, 20000, 40000, 80000, 100000} {
		env := m.TauEnvAt(wear)
		for _, pulse := range []float64{5, 25, 40, 200} {
			for _, temp := range []float64{0, 25, 70} {
				for _, age := range []float64{0, 10} {
					if m.Pinnable(&env, m.TempFactor(temp), m.RetentionShiftUs(wear, age), pulse) {
						t.Errorf("wear %v pulse %v temp %v age %v: gate admits a worn group", wear, pulse, temp, age)
					}
				}
			}
		}
	}
	zero := m.TauEnvAt(0)
	if m.Pinnable(&zero, 1, 0, 25) {
		t.Error("gate admits a group with no quantile term")
	}
	for _, wear := range dieSortWears {
		env := m.TauEnvAt(wear)
		if !m.Pinnable(&env, 1, 0, 25) {
			t.Errorf("wear %v: gate refuses a die-sort group", wear)
		}
	}
}

// TestPinGridBrackets: the grid points around u hold u — at the
// bulk/tail seam and out to the deepest tail point — and their padded
// quantiles hold the exact quantile at u, deep in the tail included,
// where the numeric quantile is least accurate. Every grid pin rests on
// this.
func TestPinGridBrackets(t *testing.T) {
	m := testModel(t)
	us := []float64{
		math.SmallestNonzeroFloat64, 1e-300, 0.5, 30.0 / 32, 31.0 / 32,
		math.Nextafter(31.0/32, 0), math.Nextafter(31.0/32, 1),
		1 - math.Ldexp(1, -20), math.Nextafter(1-math.Ldexp(1, -20), 0),
		math.Nextafter(1, 0),
	}
	rnd := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		us = append(us, rnd.Float64(), 1-math.Ldexp(1-rnd.Float64(), -rnd.Intn(24)))
	}
	envs := []TauEnv{m.TauEnvAt(0.0625), m.TauEnvAt(8), m.TauEnvAt(5000), m.TauEnvAt(80000)}
	grids := make([]PinGrid, len(envs))
	for _, u := range us {
		if !(u > 0 && u < 1) {
			continue
		}
		lo, hi, ok := pinInterval(u)
		if !ok {
			if 1-u >= math.Ldexp(1, -pinTailLog2) {
				t.Fatalf("u=%v: no bracket above 1-2^-%d", u, pinTailLog2)
			}
			continue
		}
		if hi != lo+1 || !(pinU(lo) <= u && u <= pinU(hi)) {
			t.Fatalf("u=%v: points %d (%v) and %d (%v) do not hold it", u, lo, pinU(lo), hi, pinU(hi))
		}
		for k := range envs {
			q := envs[k].QuantileU(u)
			qlo, qhi := PadQLow(grids[k].at(&envs[k], lo)), PadQHigh(grids[k].at(&envs[k], hi))
			if !(qlo <= q && q <= qhi) {
				t.Fatalf("wear %v u=%v: quantile %v outside the grid bracket [%v, %v]", envs[k].Wear, u, q, qlo, qhi)
			}
		}
	}
}
