package nand

import (
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
)

// The NAND batched physics path. NAND shares the floating-gate physics
// with NOR, and its fast path runs on the same engines: each block's
// partial erase, erase, page program and page read, and the stress
// kernel's view of it, go through the block's floatgate.Deferral, which
// defers every programmed cell's Gamma quantile that its quantile grid
// does not pin and decides later observations from margin brackets;
// the adaptive-erase max rides the shared floatgate.Model.MaxTauOver.
// What sets NAND apart enters as values: no retention shift and a
// temperature factor of 1 (both exact), and the nominal read noise
// ReadNoiseSigmaUs that Model.SampleRead uses. A block's engine reads
// the adaptive-erase base cache once an adaptive max has built one and
// otherwise derives on the spot only what it needs: a worn cell's U
// alone when the partial erase defers it, its full base at the first
// read that needs its bracket, and none at a later read that its draw
// window decides. A verification partial-erases each block it touches
// once, so a per-block cache would cost more memory than its time
// saves. The engines live beside the device's cell store, and a Loader
// recycles them across the chips it loads. All of it is a
// reorganization of the reference arithmetic — results are
// bit-identical, pinned by the equivalence tests. The reference
// per-cell loops in nand.go stay as the oracle, and only this package's
// tests select them (export_test.go).

// blockPhys returns the lazily-built immutable cell parameters of one
// block: the CellBase cache and the U-ascending index order MaxTauOver
// requires. Bases depend only on the die seed and the cell address —
// never on wear or margins — so the cache is never invalidated, and the
// block's engine reads it from then on.
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
		d.deferred[block].UseBases(bases)
	}
	return d.bases[block], d.uorder[block]
}

// maxTauOver computes max TauAt(block, i, wearOf(i)) over the included
// cells in one batched pass (floatgate.Model.MaxTauOver, with no
// retention and a temperature factor of 1), bit-identical to the
// sequential loop. Declines (ok=false) when the reference physics path
// is selected.
func (d *Device) maxTauOver(block int, include func(i int) bool, wearOf func(i int) float64) (float64, bool) {
	if d.physRef {
		return 0, false
	}
	bases, uorder := d.blockPhys(block)
	return d.model.MaxTauOver(bases, uorder, include, wearOf, 0, 1, &d.maxScratch), true
}

// array returns the cell store with every deferred margin materialized,
// the only form that leaves the device.
func (d *Device) array() *nor.Array {
	for b := range d.deferred {
		d.deferred[b].Flush()
	}
	return d.cells
}
