// Package device defines the substrate-neutral chip interface the
// Flashmark procedures run against. The paper's algorithms (imprint,
// partial-erase extract, characterize, calibrate) only ever observe a
// chip through digital reads after timed operations, so they need
// nothing beyond this narrow surface: geometry, erase/program/read, the
// abortable erase, virtual-clock accounting, and persistence. The NOR
// microcontroller (package mcu) satisfies it directly; package nand
// adapts a NAND chip to it at block granularity; the decorators in this
// package (FaultInjector, Recorder) wrap any implementation with the
// same surface, so one watermark code path serves every backend.
package device

import (
	"errors"
	"io"
	"time"

	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/vclock"
)

// OpHost is the ledger class for host-link (serial/SPI) transfer time.
const OpHost = vclock.OpClass("host-io")

// ErrInjected marks failures produced by a fault-injecting backend
// rather than by the simulated chip itself. Consumers that want a
// degraded-but-explicit outcome (instead of a hard error) test for it
// with errors.Is; see counterfeit.VerdictInconclusive.
var ErrInjected = errors.New("device: injected fault")

// Device is one simulated chip viewed through the only operations the
// Flashmark procedures need. Addresses are byte addresses into the
// word-granular geometry returned by Geometry; on substrates whose
// native erase unit is larger than a NOR segment (NAND blocks), the
// adapter maps one geometry segment onto one native erase unit.
//
// A Device is not safe for concurrent use: like the silicon it models,
// it executes one flash operation at a time. Run independent devices on
// independent goroutines instead.
type Device interface {
	// PartName identifies the backing part (catalog name or adapter tag).
	PartName() string
	// Seed returns the chip seed (the die's physical identity).
	Seed() uint64
	// Geometry returns the word-granular view of the array.
	Geometry() nor.Geometry

	// Unlock enables erase/program commands; Lock re-protects. Backends
	// without a lock protocol treat both as no-ops.
	Unlock() error
	Lock()

	// EraseSegment performs a nominal full erase of the segment
	// containing addr.
	EraseSegment(addr int) error
	// EraseSegmentAdaptive erases the segment but exits as soon as every
	// cell has physically crossed (the §V accelerated-imprint
	// primitive). It returns the erase pulse duration actually spent.
	EraseSegmentAdaptive(addr int) (time.Duration, error)
	// MassEraseBank erases every segment of the bank containing addr.
	MassEraseBank(addr int) error
	// PartialEraseSegment starts an erase and aborts it after pulse (the
	// paper's emergency-exit extraction primitive).
	PartialEraseSegment(addr int, pulse time.Duration) error
	// ProgramBlock programs consecutive words starting at a word-aligned
	// byte address. The block must not cross a segment boundary.
	ProgramBlock(addr int, values []uint64) error
	// ReadWord reads the word at a word-aligned byte address; metastable
	// cells sample per read.
	ReadWord(addr int) (uint64, error)
	// ReadSegment reads every word of the segment containing addr.
	ReadSegment(addr int) ([]uint64, error)
	// StressSegmentWords fast-forwards n imprint cycles (erase + program
	// values) over one segment, with time charged as n literal cycles
	// (see the closed-form stress kernel in this package).
	StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error

	// NominalEraseTime is the datasheet duration of a full segment-unit
	// erase — the cap for partial-erase sweeps.
	NominalEraseTime() time.Duration

	// Clock returns the device's virtual clock.
	Clock() *vclock.Clock
	// Ledger returns the device's virtual-time ledger.
	Ledger() *vclock.Ledger
	// ChargeHostTransfer accounts for moving n bytes over the host link.
	ChargeHostTransfer(n int)

	// Save persists the chip state so it can be reloaded later.
	Save(w io.Writer) error
}

// Fab fabricates a fresh chip for a given die seed. Procedures that
// consume whole device families (calibration, population experiments)
// take a Fab instead of a concrete part so they run against any backend.
type Fab func(seed uint64) (Device, error)

// Unwrapper is implemented by decorators; Unwrap returns the wrapped
// Device so capability probes can reach through decorator chains.
type Unwrapper interface {
	Unwrap() Device
}

// As reports whether d — or any device it wraps — implements T, and
// returns the first implementation found walking the Unwrap chain.
func As[T any](d Device) (T, bool) {
	for {
		if t, ok := d.(T); ok {
			return t, true
		}
		u, ok := d.(Unwrapper)
		if !ok {
			var zero T
			return zero, false
		}
		d = u.Unwrap()
	}
}

// Refabricator is the optional capability of backends that can return
// to the pristine state a fresh construction with the given seed would
// produce — in place, reusing their allocations. Population arenas use
// it to recycle device instances instead of reconstructing them; the
// contract is exact equivalence with a fresh fabrication. Unlike the
// other capabilities, Refabricate must only be asserted on the
// outermost value, never probed through As: a decorator chain carries
// per-wrapper state no inner reset can see, so there is deliberately
// no package-level helper that walks Unwrap for it.
type Refabricator interface {
	Refabricate(seed uint64) error
}

// Ager is the optional capability of backends that model unpowered
// storage age (retention drift).
type Ager interface {
	// Age advances the chip's storage age to the given total years
	// (monotone: chips do not get younger).
	Age(years float64) error
	// AgeYears returns the chip's storage age.
	AgeYears() float64
}

// Thermal is the optional capability of backends that model ambient
// operating temperature.
type Thermal interface {
	SetAmbientTempC(t float64) error
	AmbientTempC() float64
}

// Tracer is the optional capability of backends that can record an
// operation trace.
type Tracer interface {
	SetTrace(t *vclock.Trace)
	Trace() *vclock.Trace
}

// PartialProgrammer is the optional capability behind the prior-work FFD
// comparator: start programming a whole segment and abort after pulse.
type PartialProgrammer interface {
	PartialProgramSegment(addr int, pulse time.Duration) error
}

// WearInspector is the optional capability of backends that expose cell
// wear diagnostics (the reliability counters a production driver has).
type WearInspector interface {
	// SegmentWearSummary returns min/mean/max wear across segment seg.
	SegmentWearSummary(seg int) (minW, meanW, maxW float64, err error)
	// WornCellCount counts cells of the segment containing addr that
	// exceeded the datasheet endurance.
	WornCellCount(addr int) (int, error)
	// EnduranceCycles returns the datasheet endurance in P/E cycles.
	EnduranceCycles() float64
}

// Age advances the chip's storage age if the backend supports aging.
func Age(d Device, years float64) error {
	a, ok := As[Ager](d)
	if !ok {
		return errors.New("device: backend does not model storage age")
	}
	return a.Age(years)
}

// SetAmbientTempC sets the operating temperature if the backend models
// temperature.
func SetAmbientTempC(d Device, t float64) error {
	th, ok := As[Thermal](d)
	if !ok {
		return errors.New("device: backend does not model temperature")
	}
	return th.SetAmbientTempC(t)
}
