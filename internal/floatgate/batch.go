package floatgate

import (
	"sort"
	"sync"

	"github.com/flashmark/flashmark/internal/mathx"
)

// This file holds the batched evaluation kernels behind the segment-
// granularity physics fast path. The per-cell methods on Model remain
// the reference implementation; everything here is a reorganization of
// the same arithmetic that (a) hoists the wear-dependent terms shared by
// every cell evaluated at one wear value, and (b) exposes the quantile
// term separately so callers can bracket it instead of evaluating it.
// Bit-identity with the per-cell path is a hard requirement (experiment
// artifacts are pinned byte-for-byte) and is covered by differential
// tests in batch_test.go.

// TauEnv captures the wear-dependent terms of the erase crossing time
//
//	tau_i(w) = tauBase_i + F(w) + G(w)·Q(k(w), u_i)
//
// for one fixed wear value w, with the Gamma-shape constants hoisted
// (mathx.GammaDist). All cells of a segment evaluated at the same wear
// share one TauEnv, so a batched sweep pays the wear-dependent
// transcendental work (Pow, Lgamma) once per wear group instead of once
// per cell. Tau is bit-identical to Model.Tau at the same wear: the
// hoisted values are pure functions of the wear, and the combining
// expression keeps Model.Tau's operation order.
type TauEnv struct {
	Wear   float64
	Shift  float64 // F(w), µs
	Spread float64 // G(w), µs
	K      float64 // k(w); meaningful only when Wear > 0

	scale float64 // 1/k, the Gamma scale Model.Tau passes
	dist  mathx.GammaDist
}

// TauEnvAt hoists the wear-dependent tau terms at the given wear.
func (m *Model) TauEnvAt(wear float64) TauEnv {
	if wear <= 0 {
		return TauEnv{Wear: wear}
	}
	k := m.Shape(wear)
	env := TauEnv{Wear: wear, Shift: m.ShiftUs(wear), Spread: m.SpreadUs(wear), K: k}
	if dist, err := mathx.NewGammaDist(k); err == nil {
		env.scale = 1 / k
		env.dist = dist
	}
	return env
}

// QuantileU returns Q(k(w), u) of the unit-mean Gamma — the exact
// quantile term of Model.Tau, including its degrade-to-1 fallback on an
// (unreachable for validated params) evaluation failure.
func (e *TauEnv) QuantileU(u float64) float64 {
	q, err := e.dist.QuantileScaled(u, e.scale)
	if err != nil {
		return 1
	}
	return q
}

// TauFromQ combines a cell's immutable base with an already-computed
// quantile term, in Model.Tau's operation order.
func (e *TauEnv) TauFromQ(base CellBase, q float64) float64 {
	return base.TauBaseUs + e.Shift + e.Spread*q
}

// Tau is bit-identical to Model.Tau(base, e.Wear).
func (e *TauEnv) Tau(base CellBase) float64 {
	if e.Wear <= 0 {
		return base.TauBaseUs
	}
	return e.TauFromQ(base, e.QuantileU(base.U))
}

// QuantilePad is the relative widening applied to an exactly-evaluated
// quantile before it is used as a bound for a *different* cell's
// quantile. The numerically evaluated quantile is monotone in u up to
// its convergence tolerance (~1e-13 relative); the pad keeps four
// orders of magnitude of margin, so a padded neighbor bound always
// brackets the exact value. Bounds are only ever used to *decide*
// (prune a max candidate, classify a read as deterministic); any cell
// whose decision the pad cannot make is evaluated exactly, so the pad
// affects speed, never results.
const QuantilePad = 1e-9

// PadQLow / PadQHigh widen a quantile evaluated at a neighboring u into
// a safe lower/upper bound for the quantile at any smaller/larger u.
func PadQLow(q float64) float64  { return q * (1 - QuantilePad) }
func PadQHigh(q float64) float64 { return q * (1 + QuantilePad) }

// BasesInto fills dst with the immutable parameters of the first `cells`
// cells of segment seg, reusing dst's capacity, and returns the filled
// slice. Equivalent to calling Base per cell.
func (m *Model) BasesInto(segIndex, cells int, dst []CellBase) []CellBase {
	if cap(dst) < cells {
		dst = make([]CellBase, cells)
	}
	dst = dst[:cells]
	for i := range dst {
		dst[i] = m.Base(segIndex, i)
	}
	return dst
}

// SortIndexByU sorts idx (cell indices into bases) so the referenced U
// values ascend. Stable order for equal U keeps results deterministic:
// the result is exactly sort.SliceStable's by U.
//
// U is uniform on (0,1) by construction, so the sort runs in expected
// linear time: a stable counting sort on the bucket ⌊U·n⌋, then an
// insertion pass that only ever moves a cell past strictly larger U
// (which, the bucket being monotone in U, stays inside its bucket).
// Both passes are stable, so ties keep their input order. The bucket
// counts and staging copy come from a process-wide pool, so steady-state
// calls allocate nothing. U must not be NaN.
func SortIndexByU(bases []CellBase, idx []int32) {
	n := len(idx)
	if n < 2 {
		return
	}
	s := sortScratchPool.Get().(*sortScratch)
	defer sortScratchPool.Put(s)
	if cap(s.count) < n+1 {
		s.count = make([]int32, n+1)
		s.staged = make([]int32, n)
	}
	count, staged := s.count[:n+1], s.staged[:n]
	clear(count)
	scale := float64(n)
	bucket := func(u float64) int {
		switch f := u * scale; {
		case !(f > 0):
			return 0
		case f >= scale:
			return n - 1
		default:
			return int(f)
		}
	}
	for _, ci := range idx {
		count[bucket(bases[ci].U)+1]++
	}
	for b := 1; b <= n; b++ {
		count[b] += count[b-1]
	}
	copy(staged, idx)
	for _, ci := range staged {
		b := bucket(bases[ci].U)
		idx[count[b]] = ci
		count[b]++
	}
	for i := 1; i < n; i++ {
		ci := idx[i]
		u := bases[ci].U
		j := i
		for ; j > 0 && bases[idx[j-1]].U > u; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = ci
	}
}

// sortScratch is SortIndexByU's reusable working storage: bucket start
// offsets and the staged input order.
type sortScratch struct {
	count  []int32
	staged []int32
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// MaxTauScratch holds the reusable buffers of MaxTauGroup so steady-state
// callers allocate nothing.
type MaxTauScratch struct {
	cand  []maxCand
	grid  []int
	gridQ []float64
}

type maxCand struct {
	pos int
	ub  float64
}

// MaxTauGroup returns the maximum of env.Tau(bases[i]) over the cells
// listed in members, which MUST be sorted by ascending U (SortIndexByU).
// The value is bit-identical to scanning every cell: quantiles are exact
// where they are evaluated, and cells are skipped only when a padded
// monotone upper bound proves they cannot exceed the best exact value
// already found. Zero cells return (0, false).
func MaxTauGroup(env *TauEnv, bases []CellBase, members []int32, scratch *MaxTauScratch) (float64, bool) {
	n := len(members)
	if n == 0 {
		return 0, false
	}
	best := 0.0
	if env.Wear <= 0 || env.Spread == 0 {
		// tau has no per-cell quantile dependence worth bracketing:
		// evaluate directly (Tau short-circuits to tauBase at zero wear,
		// and a zero spread contributes exactly 0 regardless of q).
		for _, ci := range members {
			if tau := env.Tau(bases[ci]); tau > best {
				best = tau
			}
		}
		return best, true
	}

	// Small groups: bracketing overhead cannot pay for itself.
	if n <= 8 {
		for _, ci := range members {
			if tau := env.Tau(bases[ci]); tau > best {
				best = tau
			}
		}
		return best, true
	}

	// Evaluate an exact quantile grid over the U-sorted members
	// (endpoints included) and remember each grid cell's exact tau.
	gridN := 17
	if gridN > n {
		gridN = n
	}
	grid := scratch.grid[:0]
	for g := 0; g < gridN; g++ {
		pos := g * (n - 1) / (gridN - 1)
		if len(grid) > 0 && grid[len(grid)-1] == pos {
			continue
		}
		grid = append(grid, pos)
	}
	scratch.grid = grid
	// Exact taus at the grid; grid quantiles become neighbor bounds.
	gridQ := scratch.gridQ[:0]
	for range grid {
		gridQ = append(gridQ, 0)
	}
	scratch.gridQ = gridQ
	for gi, pos := range grid {
		base := bases[members[pos]]
		q := env.QuantileU(base.U)
		gridQ[gi] = q
		if tau := env.TauFromQ(base, q); tau > best {
			best = tau
		}
	}

	// Upper-bound every non-grid member from its grid neighbor above;
	// survivors are evaluated exactly in descending-bound order until the
	// next bound cannot beat the best exact tau seen.
	cand := scratch.cand[:0]
	gi := 0
	for pos := 0; pos < n; pos++ {
		if gi < len(grid) && grid[gi] == pos {
			gi++
			continue
		}
		for gi < len(grid) && grid[gi] < pos {
			gi++
		}
		// grid[gi] is the first grid position above pos (grid ends at n-1,
		// so one always exists).
		qub := PadQHigh(gridQ[gi])
		if ub := env.TauFromQ(bases[members[pos]], qub); ub > best {
			cand = append(cand, maxCand{pos: pos, ub: ub})
		}
	}
	sort.Slice(cand, func(a, b int) bool { return cand[a].ub > cand[b].ub })
	for _, cd := range cand {
		if cd.ub <= best {
			break
		}
		if tau := env.Tau(bases[members[cd.pos]]); tau > best {
			best = tau
		}
	}
	scratch.cand = cand
	return best, true
}
