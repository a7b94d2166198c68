package nand

import (
	"fmt"
	"math"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
)

// The NAND batched physics path. NAND shares the floating-gate physics
// with NOR but applies no retention/temperature transform, so the fast
// path here is simpler than the NOR controller's: wear-grouped TauEnv
// hoisting shares the transcendental work of one erase across every cell
// at the same wear, and the adaptive-erase max rides the pruned
// floatgate.MaxTauGroup kernel over per-block CellBase caches and
// U-orders, which every later adaptive erase of the block reuses (the
// reference TauAt re-derives the die RNG per call). A partial erase
// stores a programmed cell's margin without its Gamma quantile wherever
// the float32 store cannot see the quantile term (floatgate.PinGrid).
// All of it is a reorganization of the reference arithmetic — results
// are bit-identical, pinned by the equivalence tests — and the
// reference per-cell loops remain selectable through
// device.PhysicsSelector.

// PhysicsPath reports which physics implementation the device runs.
func (d *Device) PhysicsPath() device.PhysicsPath {
	if d.physRef {
		return device.PhysicsReference
	}
	return device.PhysicsFast
}

// SetPhysicsPath selects the physics implementation. Both paths are
// bit-identical; the reference path exists as the equivalence oracle.
func (d *Device) SetPhysicsPath(p device.PhysicsPath) error {
	switch p {
	case device.PhysicsFast:
		d.physRef = false
	case device.PhysicsReference:
		d.physRef = true
	default:
		return fmt.Errorf("nand: unknown physics path %q", p)
	}
	return nil
}

// blockPhys returns the lazily-built immutable cell parameters of one
// block: the CellBase cache and the U-ascending index order MaxTauGroup
// requires. Bases depend only on the die seed and the cell address —
// never on wear or margins — so the cache is never invalidated.
func (d *Device) blockPhys(block int) ([]floatgate.CellBase, []int32) {
	if d.bases == nil {
		d.bases = make([][]floatgate.CellBase, d.geom.Blocks)
		d.uorder = make([][]int32, d.geom.Blocks)
	}
	if d.bases[block] == nil {
		cells := d.geom.CellsPerBlock()
		bases := d.model.BasesInto(block, cells, nil)
		idx := make([]int32, cells)
		for i := range idx {
			idx[i] = int32(i)
		}
		floatgate.SortIndexByU(bases, idx)
		d.bases[block], d.uorder[block] = bases, idx
	}
	return d.bases[block], d.uorder[block]
}

// nandWearGroup collects the cells of one op that share a wear value, so
// the wear-dependent tau terms are hoisted once per group.
type nandWearGroup struct {
	key     uint64 // math.Float64bits of the wear
	env     floatgate.TauEnv
	members []int32 // ascending U (uorder walk)
}

// appendWearGroup grows groups by one entry for (key, env), recycling a
// spare slot's member slice when capacity allows.
func appendWearGroup(groups []nandWearGroup, key uint64, env floatgate.TauEnv) []nandWearGroup {
	if len(groups) < cap(groups) {
		groups = groups[:len(groups)+1]
		g := &groups[len(groups)-1]
		g.key, g.env, g.members = key, env, g.members[:0]
		return groups
	}
	return append(groups, nandWearGroup{key: key, env: env})
}

// peGroup is one wear group of a partial erase: the hoisted tau terms,
// and the quantile grid that pins its cells' margins where the float32
// store cannot see the quantile (floatgate.PinGrid).
type peGroup struct {
	key   uint64 // math.Float64bits of the wear
	env   floatgate.TauEnv
	pinOn bool // pins can succeed here (Model.Pinnable)
	pin   floatgate.PinGrid
}

// peGroupFor returns this partial erase's group for wear w, building it
// on the wear value's first appearance (the common case: a stress leaves
// two wear classes, one per watermark polarity). Groups live in
// per-device scratch, so no operation allocates.
func (d *Device) peGroupFor(w, pulseUs float64) *peGroup {
	key := math.Float64bits(w)
	for j := range d.peScratch {
		if d.peScratch[j].key == key {
			return &d.peScratch[j]
		}
	}
	d.peScratch = append(d.peScratch, peGroup{key: key, env: d.model.TauEnvAt(w)})
	g := &d.peScratch[len(d.peScratch)-1]
	g.pinOn = d.model.Pinnable(&g.env, 1, 0, pulseUs)
	return g
}

// pinned returns the margin the pulse stores for a programmed cell of
// the group when the group's quantile grid pins it.
func (g *peGroup) pinned(base floatgate.CellBase, pulseUs float64) (float32, bool) {
	if !g.pinOn {
		return 0, false
	}
	return g.pin.Pin(&g.env, base.U, func(q float64) float32 {
		return nor.ClampMargin(pulseUs - g.env.TauFromQ(base, q))
	})
}

// maxTauOver computes max TauAt(block, i, wearOf(i)) over the included
// cells in one batched pass: cells are grouped by exact wear value, each
// group's max rides the pruned MaxTauGroup kernel, and the group maxima
// combine with the same > comparison the reference scan uses — the
// result is bit-identical to the sequential loop. Declines (ok=false)
// when the reference physics path is selected.
func (d *Device) maxTauOver(block int, include func(i int) bool, wearOf func(i int) float64) (float64, bool) {
	if d.physRef {
		return 0, false
	}
	bases, uorder := d.blockPhys(block)
	cells := len(bases)
	if cap(d.gidScratch) < cells {
		d.gidScratch = make([]int32, cells)
	}
	gid := d.gidScratch[:cells]

	groups := d.wgScratch[:0]
	lastKey, lastGid := uint64(0), int32(-1)
	for i := 0; i < cells; i++ {
		if !include(i) {
			gid[i] = -1
			continue
		}
		key := math.Float64bits(wearOf(i))
		if lastGid >= 0 && key == lastKey {
			gid[i] = lastGid
			continue
		}
		g := int32(-1)
		for j := range groups {
			if groups[j].key == key {
				g = int32(j)
				break
			}
		}
		if g < 0 {
			groups = appendWearGroup(groups, key, d.model.TauEnvAt(wearOf(i)))
			g = int32(len(groups) - 1)
		}
		gid[i], lastKey, lastGid = g, key, g
	}
	// Walking the immutable U-order keeps every group's member list
	// ascending in U, which MaxTauGroup requires.
	for _, i := range uorder {
		if g := gid[i]; g >= 0 {
			groups[g].members = append(groups[g].members, i)
		}
	}
	best := 0.0
	for j := range groups {
		if tau, ok := floatgate.MaxTauGroup(&groups[j].env, bases, groups[j].members, &d.maxScratch); ok && tau > best {
			best = tau
		}
	}
	d.wgScratch = groups
	return best, true
}

// partialEraseBlockFast is the batched body of PartialEraseBlock: one
// pass over the block's contiguous cell span, with the wear-dependent
// tau terms hoisted per wear group. Margin stores go through
// nor.ClampMargin (the exact SetMargin semantics) and wear updates add
// the same EraseWear increments in the same order as the reference loop.
//
// A programmed cell's CellBase comes from the block's cache when the
// adaptive-erase max has built one, and is derived on the spot
// otherwise: a verification partial-erases each block it touches once,
// so building the cache (and the U-order beside it) would cost more
// than it ever saves. A cell whose margin its wear group's quantile grid
// pins is stored without a quantile of its own.
func (d *Device) partialEraseBlockFast(block int, pulseUs float64) {
	var bases []floatgate.CellBase
	if d.bases != nil {
		bases = d.bases[block]
	}
	margins, wear := d.cells.CellSpan(block)
	fullWear := d.model.EraseWear(true)
	eraseOnly := d.model.EraseWear(false)
	d.peScratch = d.peScratch[:0]
	for i := range margins {
		m := margins[i]
		switch {
		case m <= nor.MarginProgrammed:
			var base floatgate.CellBase
			if bases != nil {
				base = bases[i]
			} else {
				base = d.model.Base(block, i)
			}
			g := d.peGroupFor(wear[i], pulseUs)
			v, ok := g.pinned(base, pulseUs)
			if !ok {
				v = nor.ClampMargin(pulseUs - g.env.Tau(base))
			}
			margins[i] = v
			wear[i] += fullWear
		case m >= nor.MarginErased:
			wear[i] += eraseOnly
		default:
			wasProgrammed := m < 0
			margins[i] = nor.ClampMargin(float64(m) + pulseUs)
			if wasProgrammed {
				wear[i] += fullWear
			} else {
				wear[i] += eraseOnly
			}
		}
	}
}

// Interface conformance: the device itself is physics-selectable.
var _ device.PhysicsSelector = (*Device)(nil)
