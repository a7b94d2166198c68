package floatgate

// The deferred partial-erase engine: one per erase unit (a NOR segment
// of the flash controller in internal/flashctl, a block of the NAND
// device in internal/nand), run by both on their fast paths. Only those
// packages' tests select their per-cell reference paths, the executable
// specification this engine must match bit for bit.
//
// The reference path evaluates one Gamma quantile per programmed cell
// per partial erase, the dominant cost of every extraction. The engine
// rests on two observations:
//
//  1. Every cell of a unit evaluated at the same wear shares the whole
//     tau environment (TauEnv); only the cell's quantile position u
//     differs, and the numerically evaluated quantile is monotone in u
//     (QuantilePad covers its convergence tolerance).
//
//  2. Almost no partial-erase margin is ever *observed* at full
//     precision: a read only needs the margin's relation to the ±6σ
//     metastable band, a noisy read only which side of its draw Φ(m/σ)
//     lies, a later erase only its sign, and the next full erase
//     discards it.
//
// So a partial erase does not compute margins for fully programmed
// cells. It records, per (operation, wear) group, everything the
// reference arithmetic would have consumed — the hoisted TauEnv, the
// caller's retention shift and temperature factor, the pulse, and the
// pulses of every later partial erase (the pulse log) — and parks a tag
// in the cell's margin slot. Observations answer from *margin
// brackets*: the padded pair of already evaluated quantiles around the
// cell's u, pushed through the exact monotone float chain the reference
// path would have stored (nor.ClampMargin after the deferring pulse and
// after each later one). A bracket that decides the observation costs
// no quantile. A noisy read inside the band takes its one draw and is
// decided from Φ at the bracket's two ends (mathx.PhiOver). A
// bracket that straddles the decision boundary, or a draw that falls
// between Φ at its ends, materializes the cell: the reference
// arithmetic replayed operation for operation, so the stored value, and
// every artifact downstream of it, is bit-identical to the reference
// path.
//
// On a barely worn cell not even that is needed. Where the float32
// store cannot see the quantile term (PinnedMargin), the partial erase
// stores the margin outright from the group's quantile grid, and a
// materialization stores it from its evaluated neighbours, with no
// quantile of its own. Both run only in groups where a pin can succeed
// (Model.Pinnable), so worn groups pay nothing for them.
//
// Wear is never deferred: it is updated eagerly and exactly on every
// operation, because wear feeds the next operation's physics. The
// engine changes arithmetic inside an operation, never the operation
// sequence, the charged times or the noise-stream consumption: a
// bracket decides a read without a draw only where the reference read
// decides without one, and draws exactly once where the reference read
// is certain to draw, comparing that same draw with the materialized
// margin when its bracket cannot decide it.
//
// Without the owner's cached bases, a cell's base is derived where it
// is needed, and the engine needs it as little as it can. A partial
// erase that defers a cell in a group where nothing pins needs only the
// cell's U, for the group's top, and derives U alone (Model.BaseU); the
// full base waits for the first read that needs the cell's bracket. A
// read whose bracket lies inside the band stores a draw window in the
// tag: the dyadic interval [k, k+w)/2^11, w 2 or 32 steps, that holds
// Φ at both of the bracket's ends. Each later read of the cell takes
// its draw and decides it from the window alone, without the base or
// the bracket, unless the draw falls inside the window. The bracket
// only tightens until the next partial erase, which voids the window,
// so the window holds Φ at every margin the cell can still materialize
// to.
//
// The deferral lives in the margin slot it replaces, so the engine
// keeps no per-cell state. A deferred cell's float32 margin holds a
// positive quiet NaN (bits 31–22) whose payload caches its read
// decision (bits 21–20: undecided, reads 0, reads 1, or draws) and its
// draw window (bit 19 for the wide width, k in bits 18–8) and names its
// group plus one (bits 7–0, so the payload is never zero). No
// arithmetic on finite values yields such a NaN (IEEE operations give
// the default NaN, whose payload is zero), and the chip-file loaders
// refuse NaN margins, so nothing but the engine writes one. A tag never
// leaves the engine: its owners flush it before any caller sees the
// array, and every path that reads a raw margin asks the engine. A
// unit names at most maxGroups groups; past that bound, and so whatever
// wear values a chip file carries, a programmed cell's margin is stored
// eagerly with the reference arithmetic.

import (
	"math"
	"slices"

	"github.com/flashmark/flashmark/internal/mathx"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/rng"
)

// The tag layout of a deferred cell's margin bits.
const (
	tagMask  = 0xFFC00000 // sign, exponent and quiet bit
	tagValue = 0x7FC00000 // a positive quiet NaN

	decShift = 20
	decMask  = 3 << decShift
	decZero  = 1 << decShift // a read proved to read 0 without noise
	decOne   = 2 << decShift // a read proved to read 1 without noise
	decDraws = 3 << decShift // a read draws; its draw window decides most draws

	// A draw window is [k, k+w)/winSteps, w narrowSteps or, with
	// wideBit, wideSteps: a draw below it reads 1, one at or above it 0.
	winShift    = 8
	winMask     = 1<<decShift - 1<<winShift // wideBit and k
	wideBit     = 1 << (decShift - 1)
	winSteps    = 1 << (decShift - 1 - winShift)
	narrowSteps = 2
	wideSteps   = 32

	groupMask = 1<<winShift - 1 // group id plus one
	maxGroups = groupMask       // ids a tag can name
)

// isTag reports whether a margin slot holds a deferral tag.
func isTag(m float32) bool {
	b := math.Float32bits(m)
	return b&tagMask == tagValue && b&groupMask != 0
}

func tagOf(group int) float32 { return math.Float32frombits(tagValue | uint32(group+1)) }

// windowFor returns the draw-window bits for a bracket whose Φ bounds
// (mathx.PhiOver) are [plo, phi]: k = ⌊plo·winSteps⌋ and the narrower
// width whose window reaches phi. ok is false when neither reaches it.
func windowFor(plo, phi float64) (bits uint32, ok bool) {
	k := math.Floor(plo * winSteps)
	switch {
	case !(k < winSteps):
		return 0, false
	case k+narrowSteps >= phi*winSteps:
		return uint32(k) << winShift, true
	case k+wideSteps >= phi*winSteps:
		return uint32(k)<<winShift | wideBit, true
	}
	return 0, false
}

// windowOf returns the draw window [lo, hi) the tag bits b hold.
func windowOf(b uint32) (lo, hi float64) {
	k, w := float64((b&winMask&^wideBit)>>winShift), float64(narrowSteps)
	if b&wideBit != 0 {
		w = wideSteps
	}
	return k / winSteps, (k + w) / winSteps
}

// Deferral is the deferred partial-erase state of one erase unit: its
// live groups, its pulse log and the tags in its margin slots. The zero
// value is ready for Bind, which a recycled Deferral takes again
// without giving up its storage.
type Deferral struct {
	model   *Model
	unit    int
	margins []float32
	wear    []float64
	bases   []CellBase // nil: Model.Base derives each cell's base

	live int // margin slots holding a tag

	// pulseLog records the partial-erase pulses (µs) issued since the
	// oldest live group was created; a group's chain is the suffix
	// starting at its logFrom.
	pulseLog []float64

	groups []*deferGroup
	free   []*deferGroup // retired groups, kept for slice reuse

	stats DeferStats
}

// deferGroup captures the defer-time physics shared by every cell one
// partial erase deferred at one wear value.
type deferGroup struct {
	wearKey uint64  // Float64bits of the defer-time wear
	env     TauEnv  // hoisted tau terms at that wear
	direct  bool    // tau has no quantile term (zero wear or spread)
	hasRet  bool    // the caller's age is positive
	retUs   float64 // RetentionShiftUs(wear, age) at defer time
	tempF   float64 // the caller's temperature factor at defer time
	p0Us    float64 // the deferring partial-erase pulse, µs
	logFrom int     // pulseLog index of the first later pulse
	pinOn   bool    // pins can succeed here (Model.Pinnable)
	pin     PinGrid

	topU  float64     // the largest member u: its quantile bounds every member
	evals []quantileU // exact quantiles evaluated so far, ascending u
}

// quantileU is one exactly evaluated quantile of a group.
type quantileU struct{ u, q float64 }

// DeferStats counts a Deferral's work since it was bound: the cells its
// partial erases deferred, the Gamma quantiles it evaluated (grid points
// included), the full cell bases it derived (none once it has the
// unit's cached bases), and the reads it decided from a draw window.
type DeferStats struct {
	Deferred    int
	Quantiles   int
	Bases       int
	WindowReads int
}

// Bind points the engine at one erase unit — margin and wear spans that
// alias the unit's cell store, and unit, the segment index Model.Base
// derives its cells from — and drops every deferral, keeping the
// storage. Until UseBases, the engine derives each base it needs.
func (d *Deferral) Bind(m *Model, unit int, margins []float32, wear []float64) {
	d.reset()
	*d = Deferral{
		model: m, unit: unit, margins: margins, wear: wear,
		pulseLog: d.pulseLog, groups: d.groups, free: d.free,
	}
}

// UseBases hands the engine the unit's cached cell parameters once its
// owner has built them; they equal what Model.Base derives.
func (d *Deferral) UseBases(bases []CellBase) { d.bases = bases }

// Live returns how many of the unit's margins are deferred.
func (d *Deferral) Live() int { return d.live }

// Deferred reports whether cell i's margin is deferred.
func (d *Deferral) Deferred(i int) bool { return isTag(d.margins[i]) }

// Stats returns the work counted since Bind.
func (d *Deferral) Stats() DeferStats {
	s := d.stats
	for _, g := range d.groups {
		s.Quantiles += g.pin.evaluated()
	}
	return s
}

func (d *Deferral) base(i int) CellBase {
	if d.bases != nil {
		return d.bases[i]
	}
	d.stats.Bases++
	return d.model.Base(d.unit, i)
}

func (d *Deferral) baseU(i int) float64 {
	if d.bases != nil {
		return d.bases[i].U
	}
	return d.model.BaseU(d.unit, i)
}

// reset retires every group, recycling its storage. Only a unit with
// no deferred cell may reset.
func (d *Deferral) reset() {
	d.pulseLog = d.pulseLog[:0]
	for _, g := range d.groups {
		d.stats.Quantiles += g.pin.evaluated()
		d.free = append(d.free, g)
	}
	d.groups = d.groups[:0]
}

// groupFor returns this operation's group for wear w — the groups from
// index from on are the operation's own — building it on the wear
// value's first appearance. Once the unit holds maxGroups groups a new
// wear value gets none (nil): no tag could name it, and the bound keeps
// the scan short whatever wear values a chip file carries.
func (d *Deferral) groupFor(w float64, from int, pulseUs, ageYears, tempF float64) (*deferGroup, int) {
	key := math.Float64bits(w)
	for j := from; j < len(d.groups); j++ {
		if d.groups[j].wearKey == key {
			return d.groups[j], j
		}
	}
	if len(d.groups) >= maxGroups {
		return nil, -1
	}
	var g *deferGroup
	if n := len(d.free); n > 0 {
		g, d.free = d.free[n-1], d.free[:n-1]
	} else {
		g = new(deferGroup)
	}
	d.groups = append(d.groups, g)
	env := d.model.TauEnvAt(w)
	retUs := d.model.RetentionShiftUs(w, ageYears)
	*g = deferGroup{
		wearKey: key,
		env:     env,
		direct:  env.Wear <= 0 || env.Spread == 0,
		hasRet:  ageYears > 0,
		retUs:   retUs,
		tempF:   tempF,
		p0Us:    pulseUs,
		pinOn:   d.model.Pinnable(&env, tempF, retUs, pulseUs),
		evals:   g.evals[:0],
	}
	return g, len(d.groups) - 1
}

// tauOf combines a member's quantile (exact or a bound) into its full
// crossing time, in the reference operation order: Model.Tau, plus the
// retention shift, times the temperature factor.
func (g *deferGroup) tauOf(base CellBase, q float64) float64 {
	tau := g.env.TauFromQ(base, q)
	if g.hasRet {
		tau += g.retUs
	}
	return tau * g.tempF
}

// search returns the index of the first evaluated quantile at or above
// u (a manual binary search: this is on the read path, and closures
// passed to sort.Search are a risk to the zero-allocation guarantee).
func (g *deferGroup) search(u float64) int {
	lo, hi := 0, len(g.evals)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.evals[mid].u < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// exactQ returns the group's exact quantile at u, evaluating and
// recording it on first use.
func (d *Deferral) exactQ(g *deferGroup, u float64) float64 {
	k := g.search(u)
	if k < len(g.evals) && g.evals[k].u == u {
		return g.evals[k].q
	}
	q := g.env.QuantileU(u)
	d.stats.Quantiles++
	if cap(g.evals) == 0 {
		// A deferring group evaluates tens to hundreds: start past the
		// smallest sizes.
		g.evals = make([]quantileU, 0, 64)
	}
	g.evals = slices.Insert(g.evals, k, quantileU{u, q})
	return q
}

// bracketQ returns bounds on the group's quantile at u, the padded
// evaluated quantiles around it (the numeric quantile is monotone in u
// up to QuantilePad). If none is evaluated at or above u, evalTop
// evaluates the group's top once — it bounds every member from above —
// and without it ok is false. Equal bounds mean the value is exact.
func (d *Deferral) bracketQ(g *deferGroup, u float64, evalTop bool) (qlo, qhi float64, ok bool) {
	k := g.search(u)
	if k < len(g.evals) && g.evals[k].u == u {
		q := g.evals[k].q
		return q, q, true
	}
	if k > 0 {
		qlo = PadQLow(g.evals[k-1].q)
	}
	if k < len(g.evals) {
		return qlo, PadQHigh(g.evals[k].q), true
	}
	if !evalTop {
		return 0, 0, false
	}
	q := d.exactQ(g, g.topU)
	if u == g.topU {
		return q, q, true
	}
	return qlo, PadQHigh(q), true
}

// chain pushes a crossing time through the float chain the reference
// path stores: the defer-time margin p0−tau through nor.ClampMargin,
// then each later pulse added and clamped again. Every step is
// monotone non-increasing in tau, so a tau bound yields a margin bound.
func (d *Deferral) chain(g *deferGroup, tau float64) float32 {
	v := nor.ClampMargin(g.p0Us - tau)
	for _, p := range d.pulseLog[g.logFrom:] {
		v = nor.ClampMargin(float64(v) + p)
	}
	return v
}

// marginBracket returns bounds [lo, hi] on the margin a deferred cell
// would materialize to. Equal bounds are exact.
func (d *Deferral) marginBracket(g *deferGroup, base CellBase) (lo, hi float64) {
	qlo, qhi, _ := d.bracketQ(g, base.U, true)
	lo = float64(d.chain(g, g.tauOf(base, qhi)))
	if qlo == qhi {
		return lo, lo
	}
	return lo, float64(d.chain(g, g.tauOf(base, qlo)))
}

// materialize stores deferred cell i's exact margin, the reference
// arithmetic replayed through the chain, and returns it. In a group
// where pins can succeed, a margin its evaluated neighbours already pin
// is stored with no quantile of its own.
func (d *Deferral) materialize(i int, g *deferGroup, base CellBase) float32 {
	v, pinned := float32(0), false
	if g.pinOn {
		if qlo, qhi, ok := d.bracketQ(g, base.U, false); ok {
			v, pinned = PinnedMargin(qlo, qhi, func(q float64) float32 {
				return d.chain(g, g.tauOf(base, q))
			})
		}
	}
	if !pinned {
		v = d.chain(g, g.tauOf(base, d.exactQ(g, base.U)))
	}
	d.margins[i] = v
	d.live--
	return v
}

// groupOf returns the group a tag names.
func (d *Deferral) groupOf(bits uint32) *deferGroup { return d.groups[bits&groupMask-1] }

// sign reports whether deferred cell i's margin is negative (the cell
// reads as programmed), deciding from its read decision or its bracket
// where they can and materializing it only on a straddle.
func (d *Deferral) sign(i int) bool {
	b := math.Float32bits(d.margins[i])
	switch b & decMask {
	case decZero:
		return true
	case decOne:
		return false
	}
	g, base := d.groupOf(b), d.base(i)
	lo, hi := d.marginBracket(g, base)
	if hi < 0 {
		return true
	}
	if lo >= 0 {
		return false
	}
	return d.materialize(i, g, base) < 0
}

// Programmed reports whether cell i's margin is negative: its stable
// digital sign.
func (d *Deferral) Programmed(i int) bool {
	if m := d.margins[i]; !isTag(m) {
		return m < 0
	}
	return d.sign(i)
}

// Set overwrites cell i's margin with v, a value already in stored
// form, dropping any deferral (the pending margin is never computed).
func (d *Deferral) Set(i int, v float32) {
	if isTag(d.margins[i]) {
		d.live--
	}
	d.margins[i] = v
}

// Read performs one digital read of deferred cell i at read noise
// sigma: the reference read of its margin — 1 at or above the erased
// sentinel, 0 at or below the programmed one, no draw outside ±6σ, and
// otherwise one draw r reading 1 when r < Φ(m/σ). A bracket outside
// the band decides without noise, and the decision stays in the tag
// until the next partial erase moves the margin. A bracket inside the
// band is one where the reference read is certain to draw: the read
// stores the draw window that holds Φ over the bracket when one does,
// takes the draw and decides it from the bracket's ends, materializing
// the cell only when they cannot, to compare the same draw with its
// exact margin. A later read of a windowed cell decides its draw from
// the window, and falls back to the bracket with that same draw only
// inside it. Only a bracket that straddles a band edge materializes
// first.
func (d *Deferral) Read(i int, sigma float64, noise *rng.Stream) bool {
	b := math.Float32bits(d.margins[i])
	switch b & decMask {
	case decZero:
		return false
	case decOne:
		return true
	case decDraws:
		r := noise.Float64()
		switch lo, hi := windowOf(b); {
		case r < lo:
			d.stats.WindowReads++
			return true
		case r >= hi:
			d.stats.WindowReads++
			return false
		}
		// Inside the window: the cell's bracket, still inside the band,
		// decides this same draw.
		g, base := d.groupOf(b), d.base(i)
		lo, hi := d.marginBracket(g, base)
		plo, phi := mathx.PhiOver(lo, hi, sigma)
		return d.drawRead(i, g, base, plo, phi, r, sigma)
	}
	g, base := d.groupOf(b), d.base(i)
	lo, hi := d.marginBracket(g, base)
	switch {
	case lo > 6*sigma:
		d.margins[i] = math.Float32frombits(b | decOne)
		return true
	case hi < -6*sigma:
		d.margins[i] = math.Float32frombits(b | decZero)
		return false
	case -6*sigma <= lo && hi <= 6*sigma &&
		float64(nor.MarginProgrammed) < lo && hi < float64(nor.MarginErased):
		plo, phi := mathx.PhiOver(lo, hi, sigma)
		if w, ok := windowFor(plo, phi); ok {
			d.margins[i] = math.Float32frombits(b | decDraws | w)
		}
		return d.drawRead(i, g, base, plo, phi, noise.Float64(), sigma)
	}
	margin := float64(d.materialize(i, g, base))
	switch {
	case margin >= float64(nor.MarginErased):
		return true
	case margin <= float64(nor.MarginProgrammed):
		return false
	case margin > 6*sigma:
		return true
	case margin < -6*sigma:
		return false
	}
	return mathx.NormalDraw(noise.Float64(), margin, sigma)
}

// drawRead decides the read of deferred cell i whose draw r is taken,
// from the Φ bounds [plo, phi] of its bracket (mathx.PhiOver) where
// they can, and from the materialized margin otherwise.
func (d *Deferral) drawRead(i int, g *deferGroup, base CellBase, plo, phi, r, sigma float64) bool {
	switch {
	case r < plo:
		return true
	case r >= phi:
		return false
	}
	return mathx.NormalDraw(r, float64(d.materialize(i, g, base)), sigma)
}

// Flush materializes every deferred margin of the unit.
func (d *Deferral) Flush() {
	for i := 0; d.live > 0 && i < len(d.margins); i++ {
		if m := d.margins[i]; isTag(m) {
			d.materialize(i, d.groupOf(math.Float32bits(m)), d.base(i))
		}
	}
	d.reset()
}

// Erase applies a completed erase to the unit: each cell's wear accrues
// by its prior state, a deferred cell's decided from its bracket, and
// every cell ends deeply erased.
func (d *Deferral) Erase() {
	fullWear, onlyWear := d.model.EraseWear(true), d.model.EraseWear(false)
	for i, m := range d.margins {
		programmed := m < 0
		if d.live > 0 && isTag(m) {
			programmed = d.sign(i)
		}
		if programmed {
			d.wear[i] += fullWear
		} else {
			d.wear[i] += onlyWear
		}
		d.margins[i] = nor.MarginErased
	}
	d.live = 0
	d.reset()
}

// deferCell parks programmed cell i, at quantile position u, in group g
// with id id.
func (d *Deferral) deferCell(i int, g *deferGroup, id int, u float64) {
	d.margins[i] = tagOf(id)
	d.live++
	d.stats.Deferred++
	g.topU = max(g.topU, u)
}

// referenceMargin returns the margin the reference path stores for
// programmed cell i under a pulse of pulseUs: the pulse minus the
// cell's crossing time at its wear.
func (d *Deferral) referenceMargin(i int, pulseUs, ageYears, tempF float64) float32 {
	w := d.wear[i]
	if w > 0 {
		d.stats.Quantiles++
	}
	return nor.ClampMargin(pulseUs - d.model.crossingTau(d.base(i), w, ageYears, tempF))
}

// PartialErase applies a partial-erase pulse of pulseUs to the unit.
// ageYears and tempF are the storage age and temperature factor the
// reference crossing time carries (0 and 1 apply none, exactly). A
// fully programmed cell's margin is stored outright when its group has
// no quantile term or its quantile grid pins it, and deferred
// otherwise. Wear and already metastable margins update eagerly, in the
// reference path's cell order. A cell whose wear value finds no group
// (groupFor) is stored with the reference arithmetic.
func (d *Deferral) PartialErase(pulseUs, ageYears, tempF float64) {
	if d.live == 0 {
		d.reset()
	}
	fullWear, onlyWear := d.model.EraseWear(true), d.model.EraseWear(false)
	groupsFrom := len(d.groups)
	carried := false // older deferrals extend their chains
	for i := range d.margins {
		margin := d.margins[i]
		if isTag(margin) {
			programmed := d.sign(i)
			if margin = d.margins[i]; isTag(margin) {
				// Still deferred: the pulse joins its chain through the
				// pulse log, and the margin it moves voids its read
				// decision and draw window.
				d.margins[i] = math.Float32frombits(math.Float32bits(margin) &^ (decMask | winMask))
				carried = true
				if programmed {
					d.wear[i] += fullWear
				} else {
					d.wear[i] += onlyWear
				}
				continue
			}
		}
		switch {
		case margin <= nor.MarginProgrammed:
			// The reference path stores pulseUs − tau at the pre-pulse
			// wear here.
			g, id := d.groupFor(d.wear[i], groupsFrom, pulseUs, ageYears, tempF)
			switch {
			case g == nil:
				d.margins[i] = d.referenceMargin(i, pulseUs, ageYears, tempF)
			case g.direct:
				d.margins[i] = nor.ClampMargin(pulseUs - g.tauOf(d.base(i), 0))
			case g.pinOn:
				base := d.base(i)
				v, pinned := g.pin.Pin(&g.env, base.U, func(q float64) float32 {
					return nor.ClampMargin(pulseUs - g.tauOf(base, q))
				})
				if pinned {
					d.margins[i] = v
				} else {
					d.deferCell(i, g, id, base.U)
				}
			default:
				// Nothing pins here, so the deferral needs only U.
				d.deferCell(i, g, id, d.baseU(i))
			}
			d.wear[i] += fullWear
		case margin >= nor.MarginErased:
			d.wear[i] += onlyWear
		default:
			// Metastable from an earlier partial erase: the pulse
			// continues the interrupted charge transfer.
			d.margins[i] = nor.ClampMargin(float64(margin) + pulseUs)
			if margin < 0 {
				d.wear[i] += fullWear
			} else {
				d.wear[i] += onlyWear
			}
		}
	}
	// Surviving older deferrals absorb this pulse; groups this operation
	// created start their chains after it.
	if carried {
		d.pulseLog = append(d.pulseLog, pulseUs)
	}
	for _, g := range d.groups[groupsFrom:] {
		g.logFrom = len(d.pulseLog)
	}
}
