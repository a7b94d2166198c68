package floatgate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The fast path's correctness argument rests on these differential
// tests: every batched kernel must reproduce the per-cell reference
// arithmetic bit for bit, across wear regimes (zero, fractional, deep)
// and cell populations.

func testModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(DefaultParams(), 0xBA7C4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTauEnvBitIdentical(t *testing.T) {
	m := testModel(t)
	wears := []float64{0, 0.0625, 1, 17.5, 1000, 20000, 40000, 99999, 100000, 250000}
	for _, wear := range wears {
		env := m.TauEnvAt(wear)
		for cell := 0; cell < 512; cell++ {
			base := m.Base(3, cell)
			want := m.Tau(base, wear)
			got := env.Tau(base)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("wear %v cell %d: TauEnv.Tau = %x, Model.Tau = %x",
					wear, cell, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

func TestTauEnvHoistedTermsMatch(t *testing.T) {
	m := testModel(t)
	for _, wear := range []float64{0.5, 123, 40000} {
		env := m.TauEnvAt(wear)
		if env.Shift != m.ShiftUs(wear) || env.Spread != m.SpreadUs(wear) || env.K != m.Shape(wear) {
			t.Fatalf("wear %v: hoisted terms diverge from per-call values", wear)
		}
	}
}

func TestBasesIntoMatchesBase(t *testing.T) {
	m := testModel(t)
	dst := m.BasesInto(7, 256, nil)
	if len(dst) != 256 {
		t.Fatalf("len = %d", len(dst))
	}
	for i, b := range dst {
		if b != m.Base(7, i) {
			t.Fatalf("cell %d: BasesInto diverges from Base", i)
		}
	}
	// Reuse must not reallocate.
	again := m.BasesInto(7, 128, dst)
	if &again[0] != &dst[0] {
		t.Fatal("BasesInto reallocated despite sufficient capacity")
	}
}

// referenceSortIndexByU is the comparison sort SortIndexByU replaced,
// kept as the order oracle: stable, by ascending U.
func referenceSortIndexByU(bases []CellBase, idx []int32) {
	sort.SliceStable(idx, func(a, b int) bool {
		return bases[idx[a]].U < bases[idx[b]].U
	})
}

// TestSortIndexByU pins SortIndexByU's exact output, not just its
// ascent, to the stable comparison sort: ties must keep their input
// order whatever that order is, so the MaxTauGroup member lists (and
// with them every pruned max) stay what they were.
func TestSortIndexByU(t *testing.T) {
	m := testModel(t)
	rnd := rand.New(rand.NewSource(0x5027))
	// Populations: the die's own bases; U forced onto a few values (ties
	// everywhere, including bucket edges and U a hair below 1); and die
	// bases with a third of the cells copying another cell's U.
	type population struct {
		name  string
		bases func(n int) []CellBase
	}
	populations := []population{
		{"random", func(n int) []CellBase { return m.BasesInto(5, n, nil) }},
		{"ties", func(n int) []CellBase {
			values := []float64{math.Nextafter(1, 0), 0.5, 0.25, 1e-300, 0.75, 0.5 + 1e-16}
			if n > 0 {
				values = append(values, 3/float64(n), 1/float64(n))
			}
			out := make([]CellBase, n)
			for i := range out {
				out[i] = CellBase{TauBaseUs: float64(i), U: values[rnd.Intn(len(values))]}
			}
			return out
		}},
		{"duplicates", func(n int) []CellBase {
			out := m.BasesInto(6, n, nil)
			for i := range out {
				if rnd.Intn(3) == 0 {
					out[i].U = out[rnd.Intn(n)].U
				}
			}
			return out
		}},
	}
	type order struct {
		name string
		idx  func(n int) []int32
	}
	orders := []order{
		{"ascending", func(n int) []int32 {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(i)
			}
			return idx
		}},
		{"reversed", func(n int) []int32 {
			idx := make([]int32, n)
			for i := range idx {
				idx[i] = int32(n - 1 - i)
			}
			return idx
		}},
		{"shuffled", func(n int) []int32 {
			idx := make([]int32, n)
			for i, p := range rnd.Perm(n) {
				idx[i] = int32(p)
			}
			return idx
		}},
		// A subset with repeats, as a caller's member list may be.
		{"subset", func(n int) []int32 {
			idx := make([]int32, n/2)
			for i := range idx {
				idx[i] = int32(rnd.Intn(n))
			}
			return idx
		}},
	}
	for _, pop := range populations {
		for _, ord := range orders {
			for _, n := range []int{0, 1, 2, 3, 17, 300, 4096, 32768} {
				bases := pop.bases(n)
				got := ord.idx(n)
				want := append([]int32(nil), got...)
				referenceSortIndexByU(bases, want)
				SortIndexByU(bases, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/%s n=%d: position %d holds cell %d (U=%v), stable sort has %d (U=%v)",
							pop.name, ord.name, n, i, got[i], bases[got[i]].U, want[i], bases[want[i]].U)
					}
				}
			}
		}
	}
}

// TestSortIndexByUSteadyStateAllocs: the bucket scratch is pooled, so a
// warm sort of a NOR segment or a NAND block allocates nothing. The race
// detector makes sync.Pool drop items on purpose, so the count is only
// meaningful without it.
func TestSortIndexByUSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	m := testModel(t)
	for _, n := range []int{4096, 32768} {
		bases := m.BasesInto(2, n, nil)
		idx := make([]int32, n)
		sortIdentity := func() {
			for i := range idx {
				idx[i] = int32(i)
			}
			SortIndexByU(bases, idx)
		}
		sortIdentity()
		if allocs := testing.AllocsPerRun(20, sortIdentity); allocs != 0 {
			t.Errorf("n=%d: %v allocs/op in steady state, want 0", n, allocs)
		}
	}
}

// TestSortIndexByUConcurrent: the bucket scratch is one process-wide
// pool, and segments are sorted from many goroutines at once (the
// parallel experiment engine, concurrent service requests). Each sort
// must still produce its own stable order. Run it under -race.
func TestSortIndexByUConcurrent(t *testing.T) {
	m := testModel(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		bases := m.BasesInto(10+g, 4096<<(g%2), nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				got := make([]int32, len(bases))
				for i := range got {
					got[i] = int32(len(got) - 1 - i)
				}
				want := append([]int32(nil), got...)
				referenceSortIndexByU(bases, want)
				SortIndexByU(bases, got)
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%d cells: position %d holds %d, stable sort has %d", len(bases), i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSortIndexByU times the per-segment U-order build: a 4,096-cell
// NOR segment and a 32,768-cell SmallNAND block.
func BenchmarkSortIndexByU(b *testing.B) {
	m, err := NewModel(DefaultParams(), 0xBA7C4)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4096, 32768} {
		bases := m.BasesInto(0, n, nil)
		idx := make([]int32, n)
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range idx {
					idx[j] = int32(j)
				}
				SortIndexByU(bases, idx)
			}
		})
	}
}

// TestMaxTauGroupBitIdentical drives the pruned max against the full
// sequential scan across group sizes, wear regimes, and random member
// subsets. The returned max must match bit for bit every time: pruning
// may only skip cells it proved cannot win.
func TestMaxTauGroupBitIdentical(t *testing.T) {
	m := testModel(t)
	bases := m.BasesInto(0, 4096, nil)
	rnd := rand.New(rand.NewSource(99))
	var scratch MaxTauScratch
	for _, wear := range []float64{0, 3, 800, 20000, 100000, 180000} {
		env := m.TauEnvAt(wear)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 17, 64, 1000, 4096} {
			idx := make([]int32, 0, n)
			for _, p := range rnd.Perm(4096)[:n] {
				idx = append(idx, int32(p))
			}
			SortIndexByU(bases, idx)
			got, ok := MaxTauGroup(&env, bases, idx, &scratch)
			want := 0.0
			for _, ci := range idx {
				if tau := m.Tau(bases[ci], wear); tau > want {
					want = tau
				}
			}
			if n == 0 {
				if ok {
					t.Fatal("empty group reported ok")
				}
				continue
			}
			if !ok || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("wear %v n %d: MaxTauGroup = %x (ok=%v), scan = %x",
					wear, n, math.Float64bits(got), ok, math.Float64bits(want))
			}
		}
	}
}

// TestMaxTauGroupZeroSpread covers the SpreadCoefUs=0 parameter variant,
// where tau must shortcut past the quantile entirely.
func TestMaxTauGroupZeroSpread(t *testing.T) {
	p := DefaultParams()
	p.SpreadCoefUs = 0
	m, err := NewModel(p, 0xBA7C5)
	if err != nil {
		t.Fatal(err)
	}
	bases := m.BasesInto(0, 512, nil)
	idx := make([]int32, len(bases))
	for i := range idx {
		idx[i] = int32(i)
	}
	SortIndexByU(bases, idx)
	env := m.TauEnvAt(5000)
	if env.Spread != 0 {
		t.Fatalf("spread = %v, want 0", env.Spread)
	}
	var scratch MaxTauScratch
	got, ok := MaxTauGroup(&env, bases, idx, &scratch)
	want := 0.0
	for _, ci := range idx {
		if tau := m.Tau(bases[ci], 5000); tau > want {
			want = tau
		}
	}
	if !ok || got != want {
		t.Fatalf("zero-spread max = %v, want %v", got, want)
	}
}

func TestQuantilePadBrackets(t *testing.T) {
	m := testModel(t)
	env := m.TauEnvAt(40000)
	q := env.QuantileU(0.5)
	if !(PadQLow(q) < q && q < PadQHigh(q)) {
		t.Fatalf("pads do not bracket: %v %v %v", PadQLow(q), q, PadQHigh(q))
	}
}
