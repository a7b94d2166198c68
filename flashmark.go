// Package flashmark is a simulation-backed implementation of Flashmark
// (Poudel, Ray, Milenkovic — DAC 2020): watermarking NOR flash memories
// for counterfeit detection by irreversibly imprinting data into the
// physical wear of flash cells and reading it back through timed partial
// erase operations.
//
// The package is the public facade over the internal subsystems:
//
//   - a floating-gate cell physics model (internal/floatgate),
//   - a NOR array and MSP430-style flash controller (internal/nor,
//     internal/flashctl) with virtual-time accounting (internal/vclock),
//   - a substrate-neutral device interface (internal/device) that both
//     the NOR microcontroller (internal/mcu) and the NAND adapter
//     (internal/nand) satisfy, plus fault-injecting and op-counting
//     decorators,
//   - the Flashmark procedures — characterize, imprint, extract,
//     replicate, calibrate (internal/core) — written once against that
//     interface,
//   - the watermark payload codec with tamper-evident balanced coding and
//     signatures (internal/wmcode),
//   - the supply-chain verifier and attacker models (internal/counterfeit)
//     and prior-work comparators (internal/baseline).
//
// # Quick start
//
//	dev, _ := flashmark.NewDevice(flashmark.PartMSP430F5438(), 42)
//	codec := flashmark.Codec{Key: []byte("manufacturer-key")}
//	payload, _ := codec.Encode(flashmark.Payload{
//		Manufacturer: "TC", DieID: 1001, Status: flashmark.StatusAccept,
//	})
//	img, _ := flashmark.Replicate(payload, 7, dev.Part().Geometry.WordsPerSegment())
//	_ = flashmark.Imprint(dev, 0, img, flashmark.ImprintOptions{NPE: 80000, Accelerated: true})
//
//	words, _ := flashmark.Extract(dev, 0, flashmark.ExtractOptions{TPEW: 25 * time.Microsecond})
//	views, _ := flashmark.ReplicaViews(words, codec.PayloadWords(), 7)
//	got, report, _ := codec.DecodeReplicas(views)
//
// See the package examples (example_test.go) for complete, output-checked
// flows — die sort, incoming inspection, the counterfeiter's attacks,
// NAND — and cmd/fmexperiments for the reproduction of every table and
// figure in the paper's evaluation.
package flashmark

import (
	"context"
	"io"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/ecc"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// Device is the substrate-neutral handle every Flashmark procedure
// accepts: geometry, erase/program/read, the abortable erase, virtual
// clock accounting and persistence. Both backends satisfy it.
type Device = device.Device

// Fab fabricates fresh dice of one product family from chip seeds.
type Fab = device.Fab

// Part describes a microcontroller model.
type Part = mcu.Part

// Part catalog.
var (
	PartMSP430F5438 = mcu.PartMSP430F5438
	PartMSP430F5529 = mcu.PartMSP430F5529
	PartSmallSim    = mcu.PartSmallSim
	PartFastNOR     = mcu.PartFastNOR
	PartByName      = mcu.PartByName
)

// NewDevice fabricates a fresh NOR chip; the seed is the die's physical
// identity (its manufacturing variation).
func NewDevice(part Part, seed uint64) (Device, error) { return mcu.Open(part, seed) }

// NORFab returns a fabricator for a NOR part.
func NORFab(part Part) Fab { return mcu.Fab(part) }

// LoadDevice reconstructs a NOR chip from a chip file written by
// Device.Save.
func LoadDevice(r io.Reader) (Device, error) { return mcu.LoadDevice(r) }

// Decorators and capability access.
var (
	// InjectFaults wraps a device with a seeded fault injector.
	InjectFaults = device.InjectFaults
	// Record wraps a device with an op-counting recorder.
	Record = device.Record
	// AgeDevice advances a device's storage age when the backend models
	// retention (the mcu NOR backend does).
	AgeDevice = device.Age
	// SetDeviceTempC sets the ambient temperature when the backend
	// models it.
	SetDeviceTempC = device.SetAmbientTempC
)

// FaultConfig configures the fault-injecting decorator.
type FaultConfig = device.FaultConfig

// ErrInjected is the sentinel wrapped by every injected fault.
var ErrInjected = device.ErrInjected

// Core Flashmark procedures (paper Figs. 3, 7, 8).
type (
	// ImprintOptions controls Imprint.
	ImprintOptions = core.ImprintOptions
	// ExtractOptions controls Extract.
	ExtractOptions = core.ExtractOptions
	// CharacterizeOptions controls Characterize.
	CharacterizeOptions = core.CharacterizeOptions
	// CharacterizePoint is one row of a characterization sweep.
	CharacterizePoint = core.CharacterizePoint
	// Calibration is the manufacturer-side extraction window.
	Calibration = core.Calibration
	// CalibrateOptions controls Calibrate.
	CalibrateOptions = core.CalibrateOptions
)

// Core procedure entry points.
var (
	Imprint            = core.ImprintSegment
	Extract            = core.ExtractSegment
	Characterize       = core.CharacterizeSegment
	DetectStress       = core.DetectStress
	Calibrate          = core.Calibrate
	Replicate          = core.Replicate
	MajorityDecode     = core.MajorityDecode
	ReplicaViews       = core.ReplicaViews
	BitErrors          = core.BitErrors
	BER                = core.BER
	AllErasedTime      = core.AllErasedTime
	ReferenceWatermark = core.ReferenceWatermark
)

// DefaultNPE is the default imprint stress count.
const DefaultNPE = core.DefaultNPE

// Watermark payload codec (manufacturing metadata with tamper evidence).
type (
	// Codec encodes and decodes watermark payloads.
	Codec = wmcode.Codec
	// Payload is the manufacturing metadata carried by a watermark.
	Payload = wmcode.Payload
	// Status is the die-sort outcome.
	Status = wmcode.Status
	// IntegrityReport carries decode integrity findings.
	IntegrityReport = wmcode.Report
)

// Die-sort statuses.
const (
	StatusAccept  = wmcode.StatusAccept
	StatusReject  = wmcode.StatusReject
	StatusUnknown = wmcode.StatusUnknown
)

// Supply-chain verification.
type (
	// Verifier is the system integrator's incoming-inspection policy.
	Verifier = counterfeit.Verifier
	// VerifyResult is the verifier's full report for one chip.
	VerifyResult = counterfeit.Result
	// Verdict classifies a chip.
	Verdict = counterfeit.Verdict
	// ChipClass is ground-truth provenance in population experiments.
	ChipClass = counterfeit.ChipClass
	// FactoryConfig describes manufacturer watermarking and attacker
	// derivations.
	FactoryConfig = counterfeit.FactoryConfig
	// PopulationSpec sizes a population experiment.
	PopulationSpec = counterfeit.PopulationSpec
)

// Verdicts.
const (
	VerdictGenuine       = counterfeit.VerdictGenuine
	VerdictNoWatermark   = counterfeit.VerdictNoWatermark
	VerdictRejectDie     = counterfeit.VerdictRejectDie
	VerdictTampered      = counterfeit.VerdictTampered
	VerdictWrongIdentity = counterfeit.VerdictWrongIdentity
	VerdictRecycled      = counterfeit.VerdictRecycled
	VerdictDuplicateID   = counterfeit.VerdictDuplicateID
	VerdictInconclusive  = counterfeit.VerdictInconclusive
)

// Auditor is the batch-local die-identity ledger that catches
// replay-imprinted clones by their duplicated die IDs.
type Auditor = counterfeit.Auditor

// NewAuditor returns an empty die-identity ledger.
var NewAuditor = counterfeit.NewAuditor

// Chip provenance classes.
const (
	ClassGenuineAccept   = counterfeit.ClassGenuineAccept
	ClassGenuineReject   = counterfeit.ClassGenuineReject
	ClassRecycled        = counterfeit.ClassRecycled
	ClassMetadataForgery = counterfeit.ClassMetadataForgery
	ClassDigitalClone    = counterfeit.ClassDigitalClone
	ClassTopUpTamper     = counterfeit.ClassTopUpTamper
	ClassUnmarked        = counterfeit.ClassUnmarked
	ClassReplayImprint   = counterfeit.ClassReplayImprint
)

// Fabricate manufactures one chip of a ground-truth class.
var Fabricate = counterfeit.Fabricate

// RunPopulation fabricates and verifies a chip population.
var RunPopulation = counterfeit.RunPopulation

// RunPopulationContext fabricates and verifies a chip population with
// bounded parallelism and cooperative cancellation; outcomes are
// byte-identical to RunPopulation when the context is never canceled.
var RunPopulationContext = counterfeit.RunPopulationContext

// Verify runs the full incoming-inspection flow on one chip under a
// context deadline — the entry point long-running services (see
// internal/service / cmd/fmverifyd) call so a slow or wedged inspection
// respects the caller's request budget. A nil-deadline context makes
// this identical to v.Verify(dev).
func Verify(ctx context.Context, v *Verifier, dev Device) (VerifyResult, error) {
	return v.VerifyContext(ctx, dev)
}

// NAND substrate (paper §VI: the method applies to NAND as well). A
// NAND chip opened through NewNANDDevice satisfies the same Device
// interface, so Imprint/Extract/Characterize work on it unchanged —
// there is no NAND-specific watermark API anymore.
type (
	// NANDGeometry describes a NAND array.
	NANDGeometry = nand.Geometry
	// NANDTiming holds NAND operation durations.
	NANDTiming = nand.Timing
)

// NAND entry points.
var (
	// NewNANDDevice fabricates a NAND chip behind the Device interface.
	NewNANDDevice = nand.Open
	// NANDFab returns a fabricator for a NAND family.
	NANDFab = nand.Fab
	// LoadNANDDevice reconstructs a NAND chip from its Save output.
	LoadNANDDevice = nand.LoadAdapter
	SmallNAND      = nand.SmallNAND
	SLCTiming      = nand.SLCTiming
)

// DefaultCellParams returns the calibrated floating-gate physics
// constants shared by all catalog parts.
var DefaultCellParams = floatgate.DefaultParams

// Error-correction substrate (paper §V names ECC as the alternative to
// replication): SECDED(16,11) sized to the flash word.
var (
	ECCEncodeBytes   = ecc.EncodeBytes
	ECCDecodeBytes   = ecc.DecodeBytes
	ECCWordsForBytes = ecc.WordsForBytes
)
