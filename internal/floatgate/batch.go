package floatgate

import (
	"math"
	"slices"
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

// Pinned margins. A partial erase stores a programmed cell's margin as
// the float32 of p − tau (the NOR controller adds each later pulse and
// stores again). On a barely worn cell the quantile term G(w)·Q moves
// that margin by less than one float32 step, so the stored value is
// known before the quantile is. A margin is *pinned* when both ends of
// a padded quantile bracket, pushed through the exact store chain, give
// the same float32. Every step of the chain is monotone in q, so the
// cell's own quantile, which the bracket holds, stores that same value:
// a pinned margin is the reference margin bit for bit.

// MarginStore maps a quantile term to the float32 margin the caller's
// exact store chain keeps for it. It must be monotone non-increasing in
// q, as tau + retention, the temperature factor, p − tau and every
// float32 store are.
type MarginStore func(q float64) float32

// PinnedMargin returns the margin store keeps for every quantile in
// [qlo, qhi], or false when the two ends store different values.
func PinnedMargin(qlo, qhi float64, store MarginStore) (float32, bool) {
	v := store(qhi)
	if qlo != qhi && store(qlo) != v {
		return 0, false
	}
	return v, true
}

// The PinGrid points: pinBulk uniform points j/pinBulk, then 1 − 2^−m
// for m = pinBulkLog2+1 … pinTailLog2, where the quantile is steep.
const (
	pinBulkLog2 = 5
	pinBulk     = 1 << pinBulkLog2
	pinTailLog2 = 20

	// PinGridPoints is the number of points in a PinGrid.
	PinGridPoints = pinBulk + pinTailLog2 - pinBulkLog2
)

// pinGateStep is how far Q rises across a typical low-u grid interval,
// the kind of interval a pin needs on a lightly worn cell (Pinnable).
const pinGateStep = 0.5 / pinBulk

// PinGrid brackets the quantile term of cells whose own quantile was
// never evaluated, for one wear group. Entry j is the exact quantile
// TauEnv.QuantileU at the fixed point pinU(j), evaluated when a bracket
// first needs it (zero until then; entry 0 is Q(0) = 0 itself). A cell's
// bracket is the padded pair of grid quantiles around its u, so it is
// sound for the same reason a neighbor bracket is (QuantilePad). The
// grid is a plain array, so a wear group keeps one inline, the zero
// value is ready, and no operation allocates one.
type PinGrid [PinGridPoints]float64

// pinU returns the u of grid point j.
func pinU(j int) float64 {
	if j < pinBulk {
		return float64(j) / pinBulk
	}
	return 1 - math.Ldexp(1, -(j-pinBulk+pinBulkLog2+1))
}

// pinInterval returns the grid points around u (pinU(lo) ≤ u ≤
// pinU(hi)); ok is false above the deepest tail point.
func pinInterval(u float64) (lo, hi int, ok bool) {
	if u < float64(pinBulk-1)/pinBulk {
		j := int(u * pinBulk) // exact: the scale is a power of two
		return j, j + 1, true
	}
	// 1−u is exact here, and lies in [2^(e−1), 2^e): u is above the
	// point 1−2^e and at or below the point 1−2^(e−1).
	_, e := math.Frexp(1 - u)
	hi = pinBulk - pinBulkLog2 - e
	if hi >= PinGridPoints {
		return 0, 0, false
	}
	return hi - 1, hi, true
}

func (g *PinGrid) at(env *TauEnv, j int) float64 {
	q := g[j]
	if q == 0 && j > 0 {
		q = env.QuantileU(pinU(j))
		g[j] = q
	}
	return q
}

// evaluated counts the grid points whose quantile has been evaluated.
func (g *PinGrid) evaluated() int {
	n := 0
	for _, q := range g[1:] {
		if q != 0 {
			n++
		}
	}
	return n
}

// Pin returns the margin store keeps for the cell at u when the grid
// bracket pins it. Cells above the deepest tail point never pin.
func (g *PinGrid) Pin(env *TauEnv, u float64, store MarginStore) (float32, bool) {
	lo, hi, ok := pinInterval(u)
	if !ok {
		return 0, false
	}
	return PinnedMargin(PadQLow(g.at(env, lo)), PadQHigh(g.at(env, hi)), store)
}

// Pinnable reports whether pins can pay for their grid in a wear group:
// whether a typical low-u grid interval moves a typical margin of the
// group by less than one float32 step. A typical margin is the pulse
// minus the group's mean crossing time, widened by one manufacturing
// sigma; retUs and tempF are the retention shift and temperature factor
// the caller's store chain applies to tau (0 and 1 when it has none).
// Worn groups fail the test and so pay no grid quantile, and a group
// with no quantile term has nothing to skip.
func (m *Model) Pinnable(env *TauEnv, tempF, retUs, pulseUs float64) bool {
	if env.Wear <= 0 || env.Spread == 0 {
		return false
	}
	tau := (m.params.TauBaseMeanUs + env.Shift + env.Spread + retUs) * tempF
	margin := float32(math.Abs(pulseUs-tau) + m.params.TauBaseSigmaUs*tempF)
	step := float64(math.Nextafter32(margin, math.MaxFloat32) - margin)
	return tempF*env.Spread*pinGateStep < step
}

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

// MaxTauScratch holds the reusable buffers of MaxTauOver and
// MaxTauGroup so steady-state callers allocate nothing.
type MaxTauScratch struct {
	cand   []maxCand
	grid   []int
	gridQ  []float64
	gid    []int32
	groups []wearGroup
}

// wearGroup is MaxTauOver's grouping of the cells that share one wear
// value.
type wearGroup struct {
	key     uint64 // math.Float64bits of the wear
	env     TauEnv
	retUs   float64
	members []int32 // ascending U (the uorder walk)
}

// MaxTauOver returns the largest crossing time over the cells of one
// erase unit that include selects, cell i at wear wearOf(i), as the
// caller's per-cell scan computes it: Model.Tau, plus the retention
// shift at ageYears when that is positive, times tempF (NAND passes 0
// and 1, which apply nothing). bases are the unit's cell parameters and
// uorder their U-ascending order (SortIndexByU). The result is
// bit-identical to the sequential scan, which starts from 0 and keeps
// every larger value: cells sharing a wear value form a group whose max
// MaxTauGroup finds, and the retention and temperature transform,
// monotone, commutes with each group's max. Past maxGroups groups, a
// cell with a new wear value joins none and its crossing time is taken
// on its own, so the group scan stays short whatever wear values a chip
// file carries.
func (m *Model) MaxTauOver(bases []CellBase, uorder []int32, include func(i int) bool,
	wearOf func(i int) float64, ageYears, tempF float64, s *MaxTauScratch) float64 {
	cells := len(bases)
	if cap(s.gid) < cells {
		s.gid = make([]int32, cells)
	}
	gid := s.gid[:cells]
	groups := s.groups[:0]
	best := 0.0
	lastKey, last := uint64(0), int32(-1)
	for i := 0; i < cells; i++ {
		if !include(i) {
			gid[i] = -1
			continue
		}
		w := wearOf(i)
		key := math.Float64bits(w)
		if last >= 0 && key == lastKey {
			gid[i] = last
			continue
		}
		g := int32(-1)
		for j := range groups {
			if groups[j].key == key {
				g = int32(j)
				break
			}
		}
		switch {
		case g < 0 && len(groups) >= maxGroups:
			gid[i] = -1
			if tau := m.crossingTau(bases[i], w, ageYears, tempF); tau > best {
				best = tau
			}
			continue
		case g < 0:
			// Recycle a spare slot's member slice when there is one.
			groups = slices.Grow(groups, 1)[:len(groups)+1]
			wg := &groups[len(groups)-1]
			*wg = wearGroup{key: key, env: m.TauEnvAt(w), retUs: m.RetentionShiftUs(w, ageYears), members: wg.members[:0]}
			g = int32(len(groups) - 1)
		}
		gid[i], lastKey, last = g, key, g
	}
	for _, i := range uorder {
		if g := gid[i]; g >= 0 {
			groups[g].members = append(groups[g].members, i)
		}
	}
	for j := range groups {
		tau, ok := MaxTauGroup(&groups[j].env, bases, groups[j].members, s)
		if !ok {
			continue
		}
		if ageYears > 0 {
			tau += groups[j].retUs
		}
		if tau *= tempF; tau > best {
			best = tau
		}
	}
	s.groups = groups
	return best
}

// crossingTau is a cell's crossing time as the per-cell reference paths
// compute it: Model.Tau, plus the retention shift at ageYears when that
// is positive, times the temperature factor tempF.
func (m *Model) crossingTau(base CellBase, wear, ageYears, tempF float64) float64 {
	tau := m.Tau(base, wear)
	if ageYears > 0 {
		tau += m.RetentionShiftUs(wear, ageYears)
	}
	return tau * tempF
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
