package flashctl

// The physics fast path, which every controller runs. Only this
// package's tests select the per-cell reference path (export_test.go),
// the executable specification the fast path must match bit for bit.
//
// A partial erase runs on the segment's deferral engine
// (floatgate.Deferral, shared with the NAND device): it defers the
// Gamma quantile of every fully programmed cell that its quantile grid
// does not pin, and later reads, sign queries, erases and programs ask
// the engine, which decides each from margin brackets (a noisy re-read
// from the draw window its first read stored) and materializes a cell
// only when a bracket cannot decide. The controller passes the
// values that set NOR apart: the chip's storage age and the ambient
// temperature factor its crossing time carries, and each read's
// σ = ReadSigmaUs(wear). The adaptive-erase max rides the shared
// floatgate.Model.MaxTauOver over the segment's cached bases and U
// order. Array() flushes every deferral first, so a tag never leaves
// the controller.
//
// Decorators observe identical behavior on both paths: the fast path
// changes arithmetic inside an operation, never the operation sequence,
// the charged times, the stats, or the noise-stream consumption. The
// equivalence suite (equivalence_test.go, pin_test.go,
// bracketread_test.go, and the registry and population oracles in
// physics_equiv_test.go) pins all of this.

import "github.com/flashmark/flashmark/internal/floatgate"

// segPhys is one segment's fast-path state: the deferral engine over
// its cells, and the U-ascending cell order the adaptive-erase max
// walks, built when a max first needs it.
type segPhys struct {
	def    floatgate.Deferral
	uorder []int32
}

// segPhysFor returns (building on first touch) the fast-path state of a
// segment, its engine bound to the segment's cells. The engine gets the
// segment's cached bases from the operations that need them, so an
// erase alone computes none.
func (c *Controller) segPhysFor(seg int) *segPhys {
	if c.phys == nil {
		c.phys = make([]*segPhys, c.array.Geometry().TotalSegments())
	}
	sp := c.phys[seg]
	if sp == nil {
		sp = new(segPhys)
		margins, wear := c.array.CellSpan(seg)
		sp.def.Bind(c.model, seg, margins, wear)
		c.phys[seg] = sp
	}
	return sp
}

// liveDeferral returns the segment's engine when the segment has
// deferred margins, nil otherwise, so concrete-only paths skip it.
func (c *Controller) liveDeferral(seg int) *floatgate.Deferral {
	if seg >= len(c.phys) {
		return nil
	}
	if sp := c.phys[seg]; sp != nil && sp.def.Live() > 0 {
		return &sp.def
	}
	return nil
}

// flushPhysics materializes every deferred margin in every segment.
func (c *Controller) flushPhysics() {
	for _, sp := range c.phys {
		if sp != nil {
			sp.def.Flush()
		}
	}
}

// partialEraseFast applies a partial-erase pulse through the segment's
// engine, at the chip's age and the ambient temperature factor.
func (c *Controller) partialEraseFast(seg int, pulseUs float64) {
	e := &c.segPhysFor(seg).def
	e.UseBases(c.segBases(seg))
	e.PartialErase(pulseUs, c.ageYears, c.model.TempFactor(c.AmbientTempC()))
}

// maxTauOver computes the maximum of cellTau(i, wearOf(i)) over the
// segment's cells selected by include, bit-identical to the sequential
// reference scan (floatgate.Model.MaxTauOver).
func (c *Controller) maxTauOver(seg int, include func(int) bool, wearOf func(int) float64) float64 {
	sp := c.segPhysFor(seg)
	bases := c.segBases(seg)
	sp.def.UseBases(bases)
	if sp.uorder == nil {
		sp.uorder = make([]int32, len(bases))
		for i := range sp.uorder {
			sp.uorder[i] = int32(i)
		}
		floatgate.SortIndexByU(bases, sp.uorder)
	}
	return c.model.MaxTauOver(bases, sp.uorder, include, wearOf,
		c.ageYears, c.model.TempFactor(c.AmbientTempC()), &c.maxScratch)
}

// adaptiveMaxTau is the fast-path replacement of the adaptive-erase scan:
// the max crossing time over the currently-programmed cells at their
// current wear.
func (c *Controller) adaptiveMaxTau(seg int) float64 {
	_, wear := c.array.CellSpan(seg)
	e := &c.segPhysFor(seg).def
	return c.maxTauOver(seg, e.Programmed, func(i int) float64 { return wear[i] })
}

// cellProgrammed resolves a cell's stable digital sign, deciding
// deferred cells from margin brackets.
func (c *Controller) cellProgrammed(seg, cell int) bool {
	if e := c.liveDeferral(seg); e != nil {
		return e.Programmed(cell - seg*c.array.Geometry().CellsPerSegment())
	}
	return c.array.Programmed(cell)
}

// setCellMargin overwrites a cell's margin with a sentinel, discarding
// any deferred state (the new value supersedes the never-materialized
// one).
func (c *Controller) setCellMargin(seg, cell int, v float32) {
	if e := c.liveDeferral(seg); e != nil {
		e.Set(cell-seg*c.array.Geometry().CellsPerSegment(), v)
		return
	}
	c.array.SetMargin(cell, float64(v))
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
