package flashctl

// The batched physics fast path, which every controller runs. Only this
// package's tests select the per-cell reference path (export_test.go),
// the executable specification the fast path must match bit for bit.
//
// The reference path in controller.go evaluates one Gamma quantile per
// cell per partial erase and per adaptive-erase scan — the dominant cost
// of every characterization sweep. This file reorganizes the same
// arithmetic around two observations:
//
//  1. Every cell of a segment evaluated at the same wear shares the
//     whole tau environment (shift, spread, shape, lgamma); only the
//     per-cell quantile position u differs, and the numerically
//     evaluated quantile is monotone in u (floatgate.QuantilePad covers
//     the convergence tolerance).
//
//  2. Almost no partial-erase margin is ever *observed* at full
//     precision: a read only needs the margin's relation to the ±6σ
//     metastable band, a noisy read needs only to know which side of
//     its draw Φ(m/σ) lies, a subsequent erase only needs its sign, and
//     the next full erase discards it entirely.
//
// So a partial erase does not compute margins for fully-programmed
// cells. It records, per (operation, wear) group, everything the
// reference arithmetic would have consumed — the hoisted tau environment
// (floatgate.TauEnv), the defer-time retention shift and temperature
// factor, the pulse length, and the position of each later partial-erase
// pulse — and parks the cells in the group, ordered by u. Observations
// answer from *margin brackets*: padded quantile bounds taken from
// already-evaluated neighbors in u order, pushed through the exact
// (monotone) float chain the reference path would have executed,
// including the float32 store after every pulse. A bracket that decides
// the observation costs no quantile; a noisy read inside the band takes
// its draw and is decided by Φ at the bracket's two ends
// (mathx.NormalDrawOver). A bracket that straddles the decision
// boundary, or a draw that falls between Φ at its ends, materializes
// the cell by replaying the reference arithmetic operation for
// operation, so the stored value — and every downstream artifact — is
// bit-identical to the reference path.
//
// On a barely worn cell not even that is needed. Where the float32
// store cannot see the quantile term (floatgate.PinnedMargin), the
// partial erase stores the margin outright from the wear group's
// quantile grid, and a materialization stores it from its evaluated
// neighbors, with no quantile of the cell's own. Both tests run only in
// groups where a pin can succeed (floatgate.Model.Pinnable), so worn
// groups pay nothing for them. The equivalence suite
// (equivalence_test.go, pin_test.go, and the registry and population
// oracles in physics_equiv_test.go) pins all of this.
//
// Wear is never deferred: it is updated eagerly and exactly on every
// operation, because wear feeds the *next* operation's physics.
//
// Decorators observe identical behavior on both paths: the fast path
// changes arithmetic inside an operation, never the operation sequence,
// the charged times, the stats, or the noise-stream consumption (a
// bracket decides a read without a draw only where the reference path
// would have decided it without consuming noise, and draws exactly
// once where the reference path is certain to draw).

import (
	"math"
	"slices"

	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/nor"
)

// fastSeg holds the per-segment state of the fast path: the immutable
// cell order by wear-sensitivity percentile u, and the live deferral
// state (groups, per-cell group assignment, pulse log).
type fastSeg struct {
	seg   int
	cells int
	bases []floatgate.CellBase // aliases the controller's base cache

	// uorder lists local cell indices sorted by ascending u, computed
	// once per segment: per-operation groups walk it to attach their
	// members already sorted, with no per-operation sort.
	uorder []int32

	// group maps each local cell to its deferral group (-1 = concrete).
	// posOf is the cell's position inside its group's members.
	group []int32
	posOf []int32
	live  int // number of currently deferred cells

	// pulseLog records the partial-erase pulses (µs) issued since the
	// oldest live group was created; a group's chain is the suffix
	// starting at its logFrom.
	pulseLog []float64

	groups []*tauGroup
	free   []*tauGroup // retired groups, kept for slice reuse

	// Conclusive read decisions are cached per cell: a deferred cell
	// whose bracket proves it outside the metastable band reads the same
	// value on every subsequent read (no noise is consumed), until the
	// next partial erase moves its margin or wear — which bumps decGen
	// and invalidates every stamp at once.
	decGen   uint32
	decStamp []uint32
	decision []uint8
}

// tauGroup captures the defer-time physics shared by every cell a single
// partial erase deferred at a single wear value.
type tauGroup struct {
	wearKey uint64           // Float64bits of the defer-time wear
	env     floatgate.TauEnv // hoisted tau terms at that wear
	direct  bool             // tau has no quantile term (zero wear/spread)
	hasRet  bool             // defer-time ageYears > 0
	retUs   float64          // RetentionShiftUs(wear, age) at defer time
	tempF   float64          // TempFactor at defer time
	p0Us    float64          // the deferring partial-erase pulse, µs
	logFrom int              // pulseLog index of the first later pulse
	pinOn   bool             // pins can succeed here (Model.Pinnable)
	pin     floatgate.PinGrid

	size    int       // cells the creating operation deferred
	members []int32   // local cell indices, ascending u
	q       []float64 // memoized exact quantiles per member (NaN = none)
	evalPos []int32   // member positions with exact q, ascending
}

// flushPhysics materializes every deferred margin in every segment.
func (c *Controller) flushPhysics() {
	for _, fs := range c.phys {
		fs.flush(c)
	}
}

// fastSegFor returns (building on first touch) the fast-path state of a
// segment.
func (c *Controller) fastSegFor(seg int) *fastSeg {
	fs := c.phys[seg]
	if fs == nil {
		cells := c.array.Geometry().CellsPerSegment()
		fs = &fastSeg{seg: seg, cells: cells, bases: c.segBases(seg)}
		fs.uorder = make([]int32, cells)
		for i := range fs.uorder {
			fs.uorder[i] = int32(i)
		}
		floatgate.SortIndexByU(fs.bases, fs.uorder)
		fs.group = make([]int32, cells)
		for i := range fs.group {
			fs.group[i] = -1
		}
		fs.posOf = make([]int32, cells)
		fs.decGen = 1
		fs.decStamp = make([]uint32, cells)
		fs.decision = make([]uint8, cells)
		if c.phys == nil {
			c.phys = make(map[int]*fastSeg)
		}
		c.phys[seg] = fs
	}
	return fs
}

// fastSegIfLive returns the segment's deferral state when the fast path
// is on and the segment has pending deferred margins; nil otherwise, so
// concrete-only code paths skip all deferral checks.
func (c *Controller) fastSegIfLive(seg int) *fastSeg {
	if c.physRef || c.phys == nil {
		return nil
	}
	fs := c.phys[seg]
	if fs == nil || fs.live == 0 {
		return nil
	}
	return fs
}

// clearDeferred drops a cell's deferral without materializing it (its
// pending margin is about to be overwritten). When the last deferred
// cell clears, the group and pulse-log state resets.
func (fs *fastSeg) clearDeferred(local int32) {
	fs.group[local] = -1
	fs.live--
	if fs.live == 0 {
		fs.reset()
	}
}

// reset retires every group, recycling their slices.
func (fs *fastSeg) reset() {
	fs.pulseLog = fs.pulseLog[:0]
	for _, g := range fs.groups {
		g.members = g.members[:0]
		g.q = g.q[:0]
		g.evalPos = g.evalPos[:0]
		fs.free = append(fs.free, g)
	}
	fs.groups = fs.groups[:0]
}

// newGroup takes a group from the free list (or allocates one) and
// appends it to the live set.
func (fs *fastSeg) newGroup() (*tauGroup, int32) {
	var g *tauGroup
	if n := len(fs.free); n > 0 {
		g = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		g = &tauGroup{}
	}
	fs.groups = append(fs.groups, g)
	return g, int32(len(fs.groups) - 1)
}

// tauOf combines a member's quantile (exact or bound) into the full
// transformed crossing time, in the reference cellTau operation order.
func (g *tauGroup) tauOf(fs *fastSeg, local int32, q float64) float64 {
	tau := g.env.TauFromQ(fs.bases[local], q)
	if g.hasRet {
		tau += g.retUs
	}
	return tau * g.tempF
}

// exactQ returns the member's exact quantile, evaluating and memoizing
// it on first use (and registering the position for neighbor brackets).
func (g *tauGroup) exactQ(fs *fastSeg, pos int32) float64 {
	if q := g.q[pos]; !math.IsNaN(q) {
		return q
	}
	q := g.env.QuantileU(fs.bases[g.members[pos]].U)
	g.q[pos] = q
	// Insert pos into the sorted evalPos (manual binary search: this is
	// on the read path, and closures passed to sort.Search are a risk to
	// the zero-allocation guarantee).
	lo, hi := 0, len(g.evalPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.evalPos[mid] < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	g.evalPos = append(g.evalPos, 0)
	copy(g.evalPos[lo+1:], g.evalPos[lo:])
	g.evalPos[lo] = pos
	return q
}

// bracketQ returns bounds on the member's exact quantile, derived from
// already-evaluated members in u order (the numeric quantile is monotone
// in u up to floatgate.QuantilePad). If nothing is evaluated at or above
// pos, evalTop evaluates the group's top member once — it bounds every
// member from above — and without it ok is false. Equal bounds mean the
// value is exact.
func (g *tauGroup) bracketQ(fs *fastSeg, pos int32, evalTop bool) (qlo, qhi float64, ok bool) {
	if q := g.q[pos]; !math.IsNaN(q) {
		return q, q, true
	}
	lo, hi := 0, len(g.evalPos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.evalPos[mid] < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	qlo = 0
	if lo > 0 {
		qlo = floatgate.PadQLow(g.q[g.evalPos[lo-1]])
	}
	if lo < len(g.evalPos) {
		return qlo, floatgate.PadQHigh(g.q[g.evalPos[lo]]), true
	}
	if !evalTop {
		return 0, 0, false
	}
	last := int32(len(g.members) - 1)
	q := g.exactQ(fs, last)
	if last == pos {
		return q, q, true
	}
	return qlo, floatgate.PadQHigh(q), true
}

// pinnedAtDefer returns the margin this operation's pulse stores for a
// programmed cell when the group's quantile grid pins it.
func (g *tauGroup) pinnedAtDefer(fs *fastSeg, local int32) (float32, bool) {
	return g.pin.Pin(&g.env, fs.bases[local].U, func(q float64) float32 {
		return nor.ClampMargin(g.p0Us - g.tauOf(fs, local, q))
	})
}

// chainMargin pushes a crossing-time value through the float chain the
// reference path would have stored: the defer-time margin p0-tau clamped
// to float32, then each later pulse added and clamped again. Every step
// is monotone non-increasing in tau, so applying it to a tau bound
// yields a valid margin bound.
func (fs *fastSeg) chainMargin(g *tauGroup, tau float64) float64 {
	v := nor.ClampMargin(g.p0Us - tau)
	for _, p := range fs.pulseLog[g.logFrom:] {
		v = nor.ClampMargin(float64(v) + p)
	}
	return float64(v)
}

// marginBracket returns conservative bounds [lo, hi] on the margin a
// deferred cell would materialize to. Equal bounds are exact.
func (fs *fastSeg) marginBracket(g *tauGroup, local int32) (lo, hi float64) {
	if g.direct {
		m := fs.chainMargin(g, g.tauOf(fs, local, 0))
		return m, m
	}
	pos := fs.posOf[local]
	qlo, qhi, _ := g.bracketQ(fs, pos, true)
	lo = fs.chainMargin(g, g.tauOf(fs, local, qhi))
	if qlo == qhi {
		return lo, lo
	}
	hi = fs.chainMargin(g, g.tauOf(fs, local, qlo))
	return lo, hi
}

// pinnedByNeighbors returns a deferred member's margin when its
// already-evaluated neighbors pin it (floatgate.PinnedMargin), evaluating
// no quantile.
func (fs *fastSeg) pinnedByNeighbors(g *tauGroup, local int32) (float32, bool) {
	qlo, qhi, ok := g.bracketQ(fs, fs.posOf[local], false)
	if !ok {
		return 0, false
	}
	return floatgate.PinnedMargin(qlo, qhi, func(q float64) float32 {
		return float32(fs.chainMargin(g, g.tauOf(fs, local, q)))
	})
}

// materializeCell computes a deferred cell's exact margin by replaying
// the reference arithmetic — the defer-time partial-erase store, then
// every later partial-erase pulse in order, each through the float32
// store — and makes the cell concrete. In a group where pins can
// succeed, a margin its neighbors already pin is stored as is, with no
// quantile of its own.
func (c *Controller) materializeCell(fs *fastSeg, local int32) {
	g := fs.groups[fs.group[local]]
	cell := fs.seg*fs.cells + int(local)
	if g.pinOn {
		if v, ok := fs.pinnedByNeighbors(g, local); ok {
			c.array.SetMargin(cell, float64(v))
			fs.clearDeferred(local)
			return
		}
	}
	var tau float64
	if g.direct {
		tau = g.tauOf(fs, local, 0)
	} else {
		tau = g.tauOf(fs, local, g.exactQ(fs, fs.posOf[local]))
	}
	c.array.SetMargin(cell, g.p0Us-tau)
	for _, p := range fs.pulseLog[g.logFrom:] {
		c.array.SetMargin(cell, c.array.Margin(cell)+p)
	}
	fs.clearDeferred(local)
}

// flush materializes every deferred cell of the segment.
func (fs *fastSeg) flush(c *Controller) {
	if fs.live == 0 {
		return
	}
	for local, gid := range fs.group {
		if gid >= 0 {
			c.materializeCell(fs, int32(local))
		}
	}
}

// deferredSign reports whether a deferred cell's pending margin is
// negative (the cell reads as programmed), deciding from brackets where
// possible and materializing only on a straddle.
func (c *Controller) deferredSign(fs *fastSeg, local int32) bool {
	g := fs.groups[fs.group[local]]
	lo, hi := fs.marginBracket(g, local)
	if hi < 0 {
		return true
	}
	if lo >= 0 {
		return false
	}
	c.materializeCell(fs, local)
	return c.array.Margin(fs.seg*fs.cells+int(local)) < 0
}

// readDeferred performs one digital read of a deferred cell. Reads the
// bracket proves to lie outside the ±6σ metastable band are decided
// without consuming noise — exactly where SampleReadAt decides without
// consuming noise. A bracket inside the band is one where SampleReadAt
// is certain to draw: the read takes that draw and decides it from the
// bracket's bounds (mathx.NormalDrawOver), materializing the cell only
// when they cannot, to compare the same draw with its exact margin.
// Only a bracket that straddles a band edge materializes first.
func (c *Controller) readDeferred(fs *fastSeg, local int32) bool {
	if fs.decStamp[local] == fs.decGen {
		return fs.decision[local] == 1
	}
	g := fs.groups[fs.group[local]]
	lo, hi := fs.marginBracket(g, local)
	cell := fs.seg*fs.cells + int(local)
	sigma := c.model.ReadSigmaUs(c.array.Wear(cell))
	switch {
	case lo > 6*sigma:
		fs.decStamp[local] = fs.decGen
		fs.decision[local] = 1
		return true
	case hi < -6*sigma:
		fs.decStamp[local] = fs.decGen
		fs.decision[local] = 0
		return false
	case -6*sigma <= lo && hi <= 6*sigma &&
		float64(nor.MarginProgrammed) < lo && hi < float64(nor.MarginErased):
		r := c.noise.Float64()
		if one, ok := mathx.NormalDrawOver(r, lo, hi, sigma); ok {
			return one
		}
		c.materializeCell(fs, local)
		return mathx.NormalDraw(r, c.array.Margin(cell), sigma)
	}
	c.materializeCell(fs, local)
	margin := c.array.Margin(cell)
	switch {
	case margin >= float64(nor.MarginErased):
		return true
	case margin <= float64(nor.MarginProgrammed):
		return false
	}
	return c.model.SampleReadAt(margin, c.array.Wear(cell), c.noise)
}

// eraseCellsFast is the batched eraseCells: contiguous-slice wear and
// margin updates, with deferred cells resolved to their sign only (their
// pending margins are discarded, never computed).
func (c *Controller) eraseCellsFast(seg int) {
	margins, wear := c.array.CellSpan(seg)
	fs := c.fastSegIfLive(seg)
	fullWear := c.model.EraseWear(true)
	onlyWear := c.model.EraseWear(false)
	for i := range margins {
		var wasProgrammed bool
		if fs != nil && fs.group[i] >= 0 {
			wasProgrammed = c.deferredSign(fs, int32(i))
			if fs.group[i] >= 0 {
				fs.clearDeferred(int32(i))
			}
		} else {
			wasProgrammed = margins[i] < 0
		}
		if wasProgrammed {
			wear[i] += fullWear
		} else {
			wear[i] += onlyWear
		}
		margins[i] = nor.MarginErased
	}
}

// partialEraseFast applies a partial-erase pulse with lazy margins: the
// quantile term of each fully-programmed cell is deferred into a
// per-(operation, wear) group and only evaluated when an observation
// needs it. Wear updates and already-metastable margin updates are
// applied eagerly, in the reference path's cell order.
func (c *Controller) partialEraseFast(seg int, pulseUs float64) {
	fs := c.fastSegFor(seg)
	fs.decGen++ // margins and wear are moving: drop cached read decisions
	margins, wear := c.array.CellSpan(seg)
	groupsFrom := len(fs.groups)
	carried := false  // pre-existing deferrals extend their chains
	deferred := false // this operation deferred at least one cell
	tempF := c.model.TempFactor(c.AmbientTempC())
	for i := 0; i < fs.cells; i++ {
		local := int32(i)
		var wasProgrammed bool
		isDeferred := fs.live > 0 && fs.group[local] >= 0
		if isDeferred {
			wasProgrammed = c.deferredSign(fs, local)
			isDeferred = fs.group[local] >= 0 // sign query may materialize
		}
		if isDeferred {
			carried = true // chain extended via the pulse log below
		} else {
			margin := float64(margins[i])
			wasProgrammed = margin < 0
			switch {
			case margin <= float64(nor.MarginProgrammed):
				// Fully programmed: the reference path computes
				// pulseUs - cellTau(wear) here. Find or create this
				// operation's group for the cell's wear.
				wearKey := math.Float64bits(wear[i])
				gid := int32(-1)
				for j := groupsFrom; j < len(fs.groups); j++ {
					if fs.groups[j].wearKey == wearKey {
						gid = int32(j)
						break
					}
				}
				if gid < 0 {
					g, id := fs.newGroup()
					env := c.model.TauEnvAt(wear[i])
					retUs := c.model.RetentionShiftUs(wear[i], c.ageYears)
					*g = tauGroup{
						wearKey: wearKey,
						env:     env,
						direct:  env.Wear <= 0 || env.Spread == 0,
						hasRet:  c.ageYears > 0,
						retUs:   retUs,
						tempF:   tempF,
						p0Us:    pulseUs,
						pinOn:   c.model.Pinnable(&env, tempF, retUs, pulseUs),
						members: g.members,
						q:       g.q,
						evalPos: g.evalPos,
					}
					gid = id
				}
				g := fs.groups[gid]
				v, pinned := float32(0), false
				if g.pinOn {
					v, pinned = g.pinnedAtDefer(fs, local)
				}
				switch {
				case g.direct:
					// No quantile term: the margin is as cheap to compute
					// as to defer.
					margins[i] = nor.ClampMargin(pulseUs - g.tauOf(fs, local, 0))
				case pinned:
					// The store cannot see the quantile: the cell stays
					// concrete and never joins the group.
					margins[i] = v
				default:
					fs.group[local] = gid
					g.size++
					fs.live++
					margins[i] = float32(math.NaN()) // fail loud if observed raw
					deferred = true
				}
			case margin >= float64(nor.MarginErased):
				// Already erased: stays erased.
			default:
				// Metastable from an earlier (materialized) partial erase.
				margins[i] = nor.ClampMargin(margin + pulseUs)
			}
		}
		if wasProgrammed {
			wear[i] += c.model.EraseWear(true)
		} else {
			wear[i] += c.model.EraseWear(false)
		}
	}
	// Chain bookkeeping: surviving older deferrals absorb this pulse;
	// groups created by this operation start their chains after it.
	if carried {
		fs.pulseLog = append(fs.pulseLog, pulseUs)
	}
	for j := groupsFrom; j < len(fs.groups); j++ {
		g := fs.groups[j]
		g.logFrom = len(fs.pulseLog)
		// Size the member slices once for the walk below and for every
		// quantile exactQ may record.
		g.members = slices.Grow(g.members, g.size)
		g.q = slices.Grow(g.q, g.size)
		g.evalPos = slices.Grow(g.evalPos, g.size)
	}
	// Attach members in u order by walking the segment's immutable
	// u-sorted cell order once.
	if deferred {
		for _, local := range fs.uorder {
			gid := fs.group[local]
			if gid >= 0 && int(gid) >= groupsFrom {
				g := fs.groups[gid]
				fs.posOf[local] = int32(len(g.members))
				g.members = append(g.members, local)
				g.q = append(g.q, math.NaN())
			}
		}
	}
	if fs.live == 0 {
		fs.reset()
	}
}

// wearGroup is the scratch grouping of maxTauOver.
type wearGroup struct {
	wearKey uint64
	env     floatgate.TauEnv
	retUs   float64
	members []int32
}

// maxTauOver computes the maximum of cellTau(i, wearOf(i)) over the
// segment's cells selected by include, bit-identical to the sequential
// reference scan: cells sharing a wear value form a group evaluated by
// the pruned exact max (floatgate.MaxTauGroup), and the per-group
// retention/temperature transform is applied to the group maximum —
// valid because the transform is monotone, so the max commutes with it.
func (c *Controller) maxTauOver(seg int, include func(int) bool, wearOf func(int) float64) float64 {
	fs := c.fastSegFor(seg)
	cells := fs.cells
	if cap(c.gidScratch) < cells {
		c.gidScratch = make([]int32, cells)
	}
	gid := c.gidScratch[:cells]
	groups := c.wearGroups[:0]
	last := int32(-1)
	for i := 0; i < cells; i++ {
		if !include(i) {
			gid[i] = -1
			continue
		}
		wearKey := math.Float64bits(wearOf(i))
		g := int32(-1)
		if last >= 0 && groups[last].wearKey == wearKey {
			g = last
		} else {
			for j := range groups {
				if groups[j].wearKey == wearKey {
					g = int32(j)
					break
				}
			}
			if g < 0 {
				w := wearOf(i)
				groups = append(groups, wearGroup{
					wearKey: wearKey,
					env:     c.model.TauEnvAt(w),
					retUs:   c.model.RetentionShiftUs(w, c.ageYears),
				})
				g = int32(len(groups) - 1)
			}
			last = g
		}
		gid[i] = g
	}
	for j := range groups {
		groups[j].members = groups[j].members[:0]
	}
	for _, local := range fs.uorder {
		if g := gid[local]; g >= 0 {
			groups[g].members = append(groups[g].members, local)
		}
	}
	tempF := c.model.TempFactor(c.AmbientTempC())
	maxTau := 0.0
	for j := range groups {
		raw, ok := floatgate.MaxTauGroup(&groups[j].env, fs.bases, groups[j].members, &c.maxScratch)
		if !ok {
			continue
		}
		tau := raw
		if c.ageYears > 0 {
			tau += groups[j].retUs
		}
		tau *= tempF
		if tau > maxTau {
			maxTau = tau
		}
	}
	c.wearGroups = groups
	return maxTau
}

// adaptiveMaxTau is the fast-path replacement of the adaptive-erase scan:
// the max crossing time over the currently-programmed cells at their
// current wear.
func (c *Controller) adaptiveMaxTau(seg int) float64 {
	margins, wear := c.array.CellSpan(seg)
	fs := c.fastSegIfLive(seg)
	include := func(i int) bool {
		if fs != nil && fs.group[i] >= 0 {
			return c.deferredSign(fs, int32(i))
		}
		return margins[i] < 0
	}
	wearOf := func(i int) float64 { return wear[i] }
	return c.maxTauOver(seg, include, wearOf)
}

// cellProgrammed resolves a cell's stable digital sign, deciding
// deferred cells from margin brackets.
func (c *Controller) cellProgrammed(seg, cell int) bool {
	if fs := c.fastSegIfLive(seg); fs != nil {
		if local := int32(cell - fs.seg*fs.cells); fs.group[local] >= 0 {
			return c.deferredSign(fs, local)
		}
	}
	return c.array.Programmed(cell)
}

// setCellMargin overwrites a cell's margin, discarding any deferred
// state (the new value supersedes the never-materialized one).
func (c *Controller) setCellMargin(seg, cell int, v float64) {
	if fs := c.fastSegIfLive(seg); fs != nil {
		if local := int32(cell - fs.seg*fs.cells); fs.group[local] >= 0 {
			fs.clearDeferred(local)
		}
	}
	c.array.SetMargin(cell, v)
}

// MaxTauOver implements device.AdaptiveMaxer for the stress kernel: the
// batched exact max over an arbitrary include/wear view of the segment.
// Declined on the reference path so the kernel's sequential scan runs.
func (s segmentCells) MaxTauOver(include func(i int) bool, wearOf func(i int) float64) (float64, bool) {
	if s.c.physRef {
		return 0, false
	}
	return s.c.maxTauOver(s.seg, include, wearOf), true
}
