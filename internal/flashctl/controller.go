package flashctl

import (
	"math"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/vclock"
)

// UnlockKey is the password accepted by Unlock, mirroring the MSP430
// FCTL password convention: any write to the flash control registers
// with the wrong high byte triggers an access violation.
const UnlockKey = 0xA5

// Controller is the embedded flash memory controller. It owns the array
// state, applies the floating-gate physics to every operation, enforces
// the lock protocol, and charges virtual time.
type Controller struct {
	array  *nor.Array
	model  *floatgate.Model
	timing Timing
	clock  *vclock.Clock
	ledger *vclock.Ledger
	noise  *rng.Stream

	locked   bool
	ageYears float64
	tempC    float64
	stats    Stats
	trace    *vclock.Trace

	// baseCache memoizes the immutable per-cell manufacturing parameters
	// of touched segments. Base derivation is a pure function of the chip
	// seed, so caching is bit-exact; it removes the per-cell RNG work
	// from every partial erase and tau sweep (~10x on those paths).
	baseCache map[int][]floatgate.CellBase

	// Fast-path state (see fastphys.go). physRef selects the reference
	// per-cell path (New copies referencePhysics); phys holds
	// per-segment deferral state; the rest is reusable scratch so
	// steady-state operations allocate nothing.
	physRef    bool
	phys       map[int]*fastSeg
	maxScratch floatgate.MaxTauScratch
	gidScratch []int32
	wearGroups []wearGroup
}

// Stats counts controller activity, like the diagnostic counters of a
// real flash controller driver.
type Stats struct {
	Erases         int // full segment/mass erase commands
	PartialErases  int // erases terminated by emergency exit
	AdaptiveErases int // erases terminated early after verify
	ProgramWords   int // words programmed (single or block mode)
	ReadWords      int // words read
	EmergencyExits int // emergency exit commands issued
	AccessErrors   int // rejected commands (lock violations, bad addresses)
}

// Config assembles a Controller.
type Config struct {
	Array  *nor.Array
	Model  *floatgate.Model
	Timing Timing
	Clock  *vclock.Clock
	Ledger *vclock.Ledger
	// NoiseSeed seeds the read-noise stream. Reads of metastable cells
	// (after a partial erase) are stochastic but reproducible.
	NoiseSeed uint64
}

// referencePhysics is the physics path New gives a controller: false,
// the batched fast path, in every build. Only export_test.go sets it,
// so the equivalence oracles can run controllers that experiment and
// counterfeit build internally on the per-cell reference path.
var referencePhysics bool

// New creates a controller. Array and Model are required; Clock and
// Ledger default to fresh instances.
func New(cfg Config) (*Controller, error) {
	if cfg.Array == nil {
		return nil, &Error{Op: "new", Addr: -1, Msg: "nil array"}
	}
	if cfg.Model == nil {
		return nil, &Error{Op: "new", Addr: -1, Msg: "nil model"}
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	clock := cfg.Clock
	if clock == nil {
		clock = &vclock.Clock{}
	}
	ledger := cfg.Ledger
	if ledger == nil {
		ledger = &vclock.Ledger{}
	}
	return &Controller{
		array:   cfg.Array,
		model:   cfg.Model,
		timing:  cfg.Timing,
		clock:   clock,
		ledger:  ledger,
		noise:   rng.New(cfg.NoiseSeed ^ cfg.Model.Seed()),
		locked:  true,
		tempC:   25,
		physRef: referencePhysics,
	}, nil
}

// Array exposes the underlying array (read-mostly; mutate through the
// controller to keep physics and timing consistent). Any lazily deferred
// fast-path margins are materialized first, so external observers always
// see fully concrete state.
func (c *Controller) Array() *nor.Array {
	c.flushPhysics()
	return c.array
}

// Model returns the physics model in use.
func (c *Controller) Model() *floatgate.Model { return c.model }

// Timing returns the controller's timing configuration.
func (c *Controller) Timing() Timing { return c.timing }

// Clock returns the controller's virtual clock.
func (c *Controller) Clock() *vclock.Clock { return c.clock }

// Ledger returns the controller's time ledger.
func (c *Controller) Ledger() *vclock.Ledger { return c.ledger }

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// Locked reports whether the controller rejects erase/program commands.
func (c *Controller) Locked() bool { return c.locked }

// AgeYears returns the chip's unpowered-storage age.
func (c *Controller) AgeYears() float64 { return c.ageYears }

// SetAgeYears sets the chip's storage age. Aging is monotone: attempts to
// rejuvenate are rejected. Age slows the erase response further on worn
// cells (retention drift, an extension hook for watermark-longevity
// studies; the paper's experiments run at age 0).
func (c *Controller) SetAgeYears(years float64) error {
	if years < c.ageYears {
		return &Error{Op: "age", Addr: -1, Msg: "chips do not get younger"}
	}
	c.ageYears = years
	return nil
}

// AmbientTempC returns the ambient temperature the chip operates at
// (25 °C unless set).
func (c *Controller) AmbientTempC() float64 { return c.tempC }

// SetAmbientTempC sets the operating temperature (erase physics is
// thermally assisted; see floatgate.TempFactor). The commercial range
// 0–70 °C is accepted.
func (c *Controller) SetAmbientTempC(t float64) error {
	if t < 0 || t > 70 {
		return &Error{Op: "temp", Addr: -1, Msg: "temperature outside the commercial 0-70 C range"}
	}
	c.tempC = t
	return nil
}

// segBases returns the memoized immutable parameters of every cell of
// seg.
func (c *Controller) segBases(seg int) []floatgate.CellBase {
	bases, ok := c.baseCache[seg]
	if !ok {
		cells := c.array.Geometry().CellsPerSegment()
		bases = c.model.BasesInto(seg, cells, nil)
		if c.baseCache == nil {
			c.baseCache = make(map[int][]floatgate.CellBase)
		}
		c.baseCache[seg] = bases
	}
	return bases
}

// cellBase returns the memoized immutable parameters of cell i of seg.
func (c *Controller) cellBase(seg, i int) floatgate.CellBase {
	return c.segBases(seg)[i]
}

// cellTau returns the effective erase crossing time of cell i of seg,
// including retention drift at the chip's current age and the ambient
// temperature factor.
func (c *Controller) cellTau(seg, i int, wear float64) float64 {
	tau := c.model.Tau(c.cellBase(seg, i), wear)
	if c.ageYears > 0 {
		tau += c.model.RetentionShiftUs(wear, c.ageYears)
	}
	return tau * c.model.TempFactor(c.AmbientTempC())
}

// Unlock accepts the FCTL password and enables erase/program commands.
func (c *Controller) Unlock(key byte) error {
	if key != UnlockKey {
		c.stats.AccessErrors++
		c.locked = true
		return &Error{Op: "unlock", Addr: -1, Msg: "access violation: bad key"}
	}
	c.locked = false
	return nil
}

// Lock re-enables write protection.
func (c *Controller) Lock() { c.locked = true }

func (c *Controller) charge(class vclock.OpClass, d time.Duration) {
	c.clock.Advance(c.ledger.Charge(class, d))
}

// SetTrace attaches an operation trace; nil detaches. Reads are not
// traced (they would dominate the event stream); every erase/program
// class operation is, with its virtual start time and duration.
func (c *Controller) SetTrace(t *vclock.Trace) { c.trace = t }

// Trace returns the attached trace, if any.
func (c *Controller) Trace() *vclock.Trace { return c.trace }

// chargeOp charges the setup overhead plus the operation itself and
// records the operation in the trace.
func (c *Controller) chargeOp(class vclock.OpClass, addr int, d time.Duration) {
	c.charge(vclock.OpOverhead, c.timing.OpSetup)
	start := c.clock.Now()
	c.charge(class, d)
	if c.trace != nil {
		c.trace.Record(class, addr, start, d)
	}
}

func (c *Controller) requireUnlocked(op string, addr int) error {
	if c.locked {
		c.stats.AccessErrors++
		return &Error{Op: op, Addr: addr, Msg: "controller locked"}
	}
	return nil
}

func (c *Controller) segmentOf(op string, addr int) (int, error) {
	seg, err := c.array.Geometry().SegmentOfAddr(addr)
	if err != nil {
		c.stats.AccessErrors++
		return 0, &Error{Op: op, Addr: addr, Msg: err.Error()}
	}
	return seg, nil
}

// eraseCells applies the physical effect of a completed erase to every
// cell of a segment: wear accrues per the cell's prior state and the cell
// ends deeply erased.
func (c *Controller) eraseCells(seg int) {
	if !c.physRef {
		c.eraseCellsFast(seg)
		return
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	for i := 0; i < cells; i++ {
		cell := base + i
		c.array.AddWear(cell, c.model.EraseWear(c.array.Programmed(cell)))
		c.array.SetMargin(cell, float64(nor.MarginErased))
	}
}

// EraseSegment performs a nominal full segment erase of the segment
// containing addr.
func (c *Controller) EraseSegment(addr int) error {
	if err := c.requireUnlocked("erase", addr); err != nil {
		return err
	}
	seg, err := c.segmentOf("erase", addr)
	if err != nil {
		return err
	}
	c.eraseCells(seg)
	c.stats.Erases++
	c.chargeOp(vclock.OpErase, addr, c.timing.SegmentErase)
	return nil
}

// MassEraseBank erases every segment of the bank containing addr.
func (c *Controller) MassEraseBank(addr int) error {
	if err := c.requireUnlocked("mass-erase", addr); err != nil {
		return err
	}
	geom := c.array.Geometry()
	seg, err := c.segmentOf("mass-erase", addr)
	if err != nil {
		return err
	}
	bank, err := geom.BankOfSegment(seg)
	if err != nil {
		c.stats.AccessErrors++
		return &Error{Op: "mass-erase", Addr: addr, Msg: err.Error()}
	}
	for s := bank * geom.SegmentsPerBank; s < (bank+1)*geom.SegmentsPerBank; s++ {
		c.eraseCells(s)
	}
	c.stats.Erases++
	c.chargeOp(vclock.OpErase, addr, c.timing.MassErase)
	return nil
}

// EraseSegmentAdaptive erases the segment containing addr but terminates
// the erase with an emergency exit as soon as every cell has physically
// crossed to the erased state (plus a settle margin), instead of waiting
// out the nominal erase time. The paper's accelerated imprint procedure
// (§V) uses this: the premature exit does not change the wear outcome
// because the cells have completed their charge transfer.
// It returns the erase pulse duration actually spent.
func (c *Controller) EraseSegmentAdaptive(addr int) (time.Duration, error) {
	if err := c.requireUnlocked("erase-adaptive", addr); err != nil {
		return 0, err
	}
	seg, err := c.segmentOf("erase-adaptive", addr)
	if err != nil {
		return 0, err
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	// The erase must run until the slowest currently-programmed cell
	// crosses; erased cells impose no wait.
	maxTau := 0.0
	if !c.physRef {
		maxTau = c.adaptiveMaxTau(seg)
	} else {
		for i := 0; i < cells; i++ {
			cell := base + i
			if !c.array.Programmed(cell) {
				continue
			}
			tau := c.cellTau(seg, i, c.array.Wear(cell))
			if tau > maxTau {
				maxTau = tau
			}
		}
	}
	c.eraseCells(seg)
	c.stats.AdaptiveErases++
	c.stats.EmergencyExits++
	pulse := time.Duration(maxTau*float64(time.Microsecond)) + c.timing.AdaptiveEraseSettle
	if pulse > c.timing.SegmentErase {
		pulse = c.timing.SegmentErase
	}
	c.chargeOp(vclock.OpErase, addr, pulse)
	return pulse, nil
}

// PartialEraseSegment initiates a segment erase, waits for the given
// duration, and issues the emergency exit command (paper §III). Cells
// whose erase crossing time exceeds the pulse remain programmed; cells
// near the boundary are left metastable and read noisily. Wear accrues
// as for a full erase: the stress is applied even if the charge transfer
// is incomplete.
func (c *Controller) PartialEraseSegment(addr int, pulse time.Duration) error {
	if err := c.requireUnlocked("partial-erase", addr); err != nil {
		return err
	}
	if pulse < 0 {
		c.stats.AccessErrors++
		return &Error{Op: "partial-erase", Addr: addr, Msg: "negative pulse duration"}
	}
	seg, err := c.segmentOf("partial-erase", addr)
	if err != nil {
		return err
	}
	if pulse >= c.timing.SegmentErase {
		// A pulse at or beyond the nominal time is a plain erase.
		c.eraseCells(seg)
		c.stats.Erases++
		c.chargeOp(vclock.OpErase, addr, c.timing.SegmentErase)
		return nil
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	pulseUs := float64(pulse) / float64(time.Microsecond)
	if !c.physRef {
		c.partialEraseFast(seg, pulseUs)
	} else {
		for i := 0; i < cells; i++ {
			cell := base + i
			margin := c.array.Margin(cell)
			wasProgrammed := margin < 0
			switch {
			case margin <= float64(nor.MarginProgrammed):
				// Fully programmed: the erase ran for pulseUs against a
				// crossing time evaluated at the cell's pre-pulse wear.
				tau := c.cellTau(seg, i, c.array.Wear(cell))
				c.array.SetMargin(cell, pulseUs-tau)
			case margin >= float64(nor.MarginErased):
				// Already erased: stays erased.
			default:
				// Metastable from an earlier partial erase: the new pulse
				// continues the interrupted charge transfer.
				c.array.SetMargin(cell, margin+pulseUs)
			}
			c.array.AddWear(cell, c.model.EraseWear(wasProgrammed))
		}
	}
	c.stats.PartialErases++
	c.stats.EmergencyExits++
	c.chargeOp(vclock.OpPartialErase, addr, pulse)
	return nil
}

// PartialProgramSegment initiates programming of every cell of the
// segment containing addr and aborts after the given pulse (the
// prior-work FFD characterization primitive [6]; the counterpart of
// PartialEraseSegment on the program side). Cells whose program crossing
// time is within the pulse flip to programmed; others keep their state;
// boundary cells are left metastable. The segment should normally be
// erased first so the sweep starts from a known state.
func (c *Controller) PartialProgramSegment(addr int, pulse time.Duration) error {
	if err := c.requireUnlocked("partial-program", addr); err != nil {
		return err
	}
	if pulse < 0 {
		c.stats.AccessErrors++
		return &Error{Op: "partial-program", Addr: addr, Msg: "negative pulse duration"}
	}
	seg, err := c.segmentOf("partial-program", addr)
	if err != nil {
		return err
	}
	// Partial programming inspects every margin at full precision, so any
	// deferred fast-path margins are materialized up front (the primitive
	// is a prior-work comparator, not on the watermark hot path).
	if fs := c.fastSegIfLive(seg); fs != nil {
		fs.flush(c)
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	pulseUs := float64(pulse) / float64(time.Microsecond)
	for i := 0; i < cells; i++ {
		cell := base + i
		margin := c.array.Margin(cell)
		if margin <= float64(nor.MarginProgrammed) {
			continue // already programmed
		}
		progTau := c.model.ProgTau(c.cellBase(seg, i), c.array.Wear(cell))
		// Margin convention: positive reads erased. The cell's distance
		// from programming is progTau - pulse.
		newMargin := progTau - pulseUs
		if newMargin < margin {
			c.array.SetMargin(cell, newMargin)
		}
		c.array.AddWear(cell, c.model.ProgramWear())
	}
	c.stats.ProgramWords += geom.WordsPerSegment()
	c.stats.EmergencyExits++
	c.chargeOp(vclock.OpProgram, addr, pulse)
	return nil
}

func (c *Controller) wordAddr(op string, addr int) (seg, word int, err error) {
	geom := c.array.Geometry()
	if addr%geom.WordBytes != 0 {
		c.stats.AccessErrors++
		return 0, 0, &Error{Op: op, Addr: addr, Msg: "unaligned word address"}
	}
	seg, gerr := geom.SegmentOfAddr(addr)
	if gerr != nil {
		c.stats.AccessErrors++
		return 0, 0, &Error{Op: op, Addr: addr, Msg: gerr.Error()}
	}
	word = (addr - seg*geom.SegmentBytes) / geom.WordBytes
	return seg, word, nil
}

// programWordCells applies the physical effect of programming `value`
// into (seg, word): bits that are 0 in value are driven to the programmed
// state; bits that are 1 leave the cell untouched (flash programming can
// only move cells toward '0'; going back requires an erase, §II-B).
func (c *Controller) programWordCells(seg, word int, value uint64) {
	geom := c.array.Geometry()
	bits := geom.WordBits()
	fs := c.fastSegIfLive(seg)
	for b := 0; b < bits; b++ {
		if value&(1<<uint(b)) != 0 {
			continue
		}
		cell := geom.CellIndex(seg, word, b)
		if fs != nil {
			if local := int32(cell - fs.seg*fs.cells); fs.group[local] >= 0 {
				// Programming overwrites the pending margin unread.
				fs.clearDeferred(local)
			}
		}
		c.array.AddWear(cell, c.model.ProgramWear())
		c.array.SetMargin(cell, float64(nor.MarginProgrammed))
	}
}

// ProgramWord programs one word at a word-aligned byte address in
// single-word mode.
func (c *Controller) ProgramWord(addr int, value uint64) error {
	if err := c.requireUnlocked("program", addr); err != nil {
		return err
	}
	seg, word, err := c.wordAddr("program", addr)
	if err != nil {
		return err
	}
	c.programWordCells(seg, word, value)
	c.stats.ProgramWords++
	c.chargeOp(vclock.OpProgram, addr, c.timing.WordProgram)
	return nil
}

// ProgramBlock programs consecutive words starting at a word-aligned byte
// address using the controller's faster block-write mode. The block must
// not cross a segment boundary (matching the MSP430 row restriction).
func (c *Controller) ProgramBlock(addr int, values []uint64) error {
	if err := c.requireUnlocked("program-block", addr); err != nil {
		return err
	}
	if len(values) == 0 {
		return nil
	}
	seg, word, err := c.wordAddr("program-block", addr)
	if err != nil {
		return err
	}
	geom := c.array.Geometry()
	if word+len(values) > geom.WordsPerSegment() {
		c.stats.AccessErrors++
		return &Error{Op: "program-block", Addr: addr, Msg: "block crosses segment boundary"}
	}
	for i, v := range values {
		c.programWordCells(seg, word+i, v)
	}
	c.stats.ProgramWords += len(values)
	c.chargeOp(vclock.OpProgram, addr, c.timing.BlockProgramFirst+
		time.Duration(len(values)-1)*c.timing.BlockProgramNext)
	return nil
}

// ReadWord reads the word at a word-aligned byte address. Reads work
// regardless of the lock state. Metastable cells (interrupted erase)
// sample their value per read; stable cells read deterministically.
func (c *Controller) ReadWord(addr int) (uint64, error) {
	seg, word, err := c.wordAddr("read", addr)
	if err != nil {
		return 0, err
	}
	geom := c.array.Geometry()
	bits := geom.WordBits()
	fs := c.fastSegIfLive(seg)
	cellBase := seg * geom.CellsPerSegment()
	var v uint64
	for b := 0; b < bits; b++ {
		cell := geom.CellIndex(seg, word, b)
		var one bool
		if fs != nil && fs.group[cell-cellBase] >= 0 {
			one = c.readDeferred(fs, int32(cell-cellBase))
		} else {
			margin := c.array.Margin(cell)
			switch {
			case margin >= float64(nor.MarginErased):
				one = true
			case margin <= float64(nor.MarginProgrammed):
				one = false
			default:
				one = c.model.SampleReadAt(margin, c.array.Wear(cell), c.noise)
			}
		}
		if one {
			v |= 1 << uint(b)
		}
	}
	c.stats.ReadWords++
	c.charge(vclock.OpRead, c.timing.WordRead)
	return v, nil
}

// ReadSegment reads every word of the segment containing addr, in order.
func (c *Controller) ReadSegment(addr int) ([]uint64, error) {
	return c.ReadSegmentInto(addr, nil)
}

// ReadSegmentInto reads every word of the segment containing addr into
// dst, reusing its capacity — the allocation-free form for callers that
// read segments in a loop.
func (c *Controller) ReadSegmentInto(addr int, dst []uint64) ([]uint64, error) {
	seg, err := c.segmentOf("read-segment", addr)
	if err != nil {
		return nil, err
	}
	geom := c.array.Geometry()
	base := seg * geom.SegmentBytes
	words := geom.WordsPerSegment()
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for w := range dst {
		v, err := c.ReadWord(base + w*geom.WordBytes)
		if err != nil {
			return nil, err
		}
		dst[w] = v
	}
	return dst, nil
}

// StressSegmentWords fast-forwards n imprint cycles over one segment:
// each cycle is an erase of the whole segment followed by programming the
// given word values (the Fig. 7 loop body). The physical outcome is
// bit-for-bit identical to issuing the commands n times — wear per cycle
// is state-independent after the first cycle — but runs in O(cells)
// instead of O(cells·n). Time is charged exactly as n adaptive or nominal
// cycles would be; the adaptive erase pulse durations are integrated in
// closed form against the growing wear.
//
// This is the simulator's acceleration of the hardware-native loop, used
// by the imprint procedure for large cycle counts; equivalence against
// the literal loop is covered by tests.
func (c *Controller) StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error {
	if err := c.requireUnlocked("stress", addr); err != nil {
		return err
	}
	if n < 0 {
		c.stats.AccessErrors++
		return &Error{Op: "stress", Addr: addr, Msg: "negative cycle count"}
	}
	if n == 0 {
		return nil
	}
	seg, err := c.segmentOf("stress", addr)
	if err != nil {
		return err
	}
	geom := c.array.Geometry()
	if len(values) != geom.WordsPerSegment() {
		c.stats.AccessErrors++
		return &Error{Op: "stress", Addr: addr, Msg: "values must cover the whole segment"}
	}
	sub := segmentCells{c: c, seg: seg, base: seg * geom.CellsPerSegment(), cells: geom.CellsPerSegment()}
	one := func(i int) bool {
		return values[i/geom.WordBits()]&(1<<uint(i%geom.WordBits())) != 0
	}
	wear := device.StressWear{
		FullWear:  c.model.EraseWear(true),
		EraseOnly: c.model.EraseWear(false),
		Program:   c.model.ProgramWear(),
	}
	device.ApplyStress(sub, one, n, wear)

	// Time accounting.
	c.stats.ProgramWords += n * len(values)
	progTime := c.timing.BlockProgramFirst + time.Duration(len(values)-1)*c.timing.BlockProgramNext
	c.charge(vclock.OpOverhead, time.Duration(2*n)*c.timing.OpSetup)
	c.charge(vclock.OpProgram, time.Duration(n)*progTime)
	if !adaptive {
		c.stats.Erases += n
		c.charge(vclock.OpErase, time.Duration(n)*c.timing.SegmentErase)
		return nil
	}
	c.stats.AdaptiveErases += n
	c.stats.EmergencyExits += n
	meanTau := device.MeanAdaptiveTauUs(sub, one, n, wear)
	pulse := time.Duration(meanTau*float64(time.Microsecond)) + c.timing.AdaptiveEraseSettle
	if pulse > c.timing.SegmentErase {
		pulse = c.timing.SegmentErase
	}
	c.charge(vclock.OpErase, time.Duration(n)*pulse)
	return nil
}

// segmentCells adapts one segment of the controller's array to the
// shared closed-form stress kernel (package device).
type segmentCells struct {
	c     *Controller
	seg   int
	base  int
	cells int
}

func (s segmentCells) Cells() int               { return s.cells }
func (s segmentCells) Programmed(i int) bool    { return s.c.cellProgrammed(s.seg, s.base+i) }
func (s segmentCells) Wear(i int) float64       { return s.c.array.Wear(s.base + i) }
func (s segmentCells) AddWear(i int, w float64) { s.c.array.AddWear(s.base+i, w) }
func (s segmentCells) SetErased(i int) {
	s.c.setCellMargin(s.seg, s.base+i, float64(nor.MarginErased))
}
func (s segmentCells) SetProgrammed(i int) {
	s.c.setCellMargin(s.seg, s.base+i, float64(nor.MarginProgrammed))
}
func (s segmentCells) TauAt(i int, wear float64) float64 { return s.c.cellTau(s.seg, i, wear) }

// WornCellCount returns how many cells of the segment containing addr
// have exceeded the datasheet endurance — the reliability flag a
// production driver would expose.
func (c *Controller) WornCellCount(addr int) (int, error) {
	seg, err := c.segmentOf("worn", addr)
	if err != nil {
		return 0, err
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	worn := 0
	for i := 0; i < cells; i++ {
		if c.model.Worn(c.array.Wear(base + i)) {
			worn++
		}
	}
	return worn, nil
}

// SegmentMeanTau returns the mean and max erase crossing times across a
// segment at its current wear — a diagnostic used by characterization
// tooling and tests.
func (c *Controller) SegmentMeanTau(addr int) (mean, maxTau float64, err error) {
	seg, err := c.segmentOf("tau", addr)
	if err != nil {
		return 0, 0, err
	}
	geom := c.array.Geometry()
	cells := geom.CellsPerSegment()
	base := seg * cells
	maxTau = -math.MaxFloat64
	for i := 0; i < cells; i++ {
		tau := c.cellTau(seg, i, c.array.Wear(base+i))
		mean += tau
		if tau > maxTau {
			maxTau = tau
		}
	}
	mean /= float64(cells)
	return mean, maxTau, nil
}
