// Package mcu assembles the simulated microcontroller: a flash array with
// its physics model, the flash controller, a virtual clock, and the host
// serial link used to drive Flashmark procedures from outside the chip
// (the paper demonstrates on TI MSP430F5438/F5529 parts). It also persists
// chip state to a file format so the flashmark CLI can operate on a "chip"
// across invocations, the way a bench setup operates on physical silicon.
package mcu

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/flashctl"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/vclock"
)

// OpHost is the ledger class for host-link (serial) transfer time.
const OpHost = device.OpHost

// Part describes a microcontroller model: flash geometry, controller
// timings, cell physics, and the host link speed.
type Part struct {
	Name     string
	Geometry nor.Geometry
	Timing   flashctl.Timing
	Params   floatgate.Params
	// SerialBaud is the host link speed used when watermark data is read
	// out to a verifier (the paper's 170 ms extract time is dominated by
	// this link).
	SerialBaud int
}

// Catalog returns the supported parts.
func Catalog() []Part {
	return []Part{PartMSP430F5438(), PartMSP430F5529(), PartSmallSim(), PartFastNOR(), PartAltNOR()}
}

// PartByName finds a catalog part by name.
func PartByName(name string) (Part, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, len(Catalog()))
	for _, p := range Catalog() {
		names = append(names, p.Name)
	}
	return Part{}, fmt.Errorf("mcu: unknown part %q (available: %s)", name, strings.Join(names, ", "))
}

// PartMSP430F5438 models the larger paper microcontroller (256 KB flash).
func PartMSP430F5438() Part {
	return Part{
		Name:       "MSP430F5438",
		Geometry:   nor.MSP430F5438(),
		Timing:     flashctl.MSP430Timing(),
		Params:     floatgate.DefaultParams(),
		SerialBaud: 115200,
	}
}

// PartMSP430F5529 models the smaller paper microcontroller (128 KB flash).
func PartMSP430F5529() Part {
	return Part{
		Name:       "MSP430F5529",
		Geometry:   nor.MSP430F5529(),
		Timing:     flashctl.MSP430Timing(),
		Params:     floatgate.DefaultParams(),
		SerialBaud: 115200,
	}
}

// PartSmallSim is a compact simulated part for tests, examples and fast
// experiments: identical physics and timing, 16 segments of flash.
func PartSmallSim() Part {
	return Part{
		Name:       "FM-SIM16",
		Geometry:   nor.Small(),
		Timing:     flashctl.MSP430Timing(),
		Params:     floatgate.DefaultParams(),
		SerialBaud: 115200,
	}
}

// PartFastNOR models a stand-alone NOR flash chip with the significantly
// faster erase/program operations the paper's §V anticipates ("a number
// of stand-alone NOR flash memory chips have significantly faster erase
// and program operations and we expect that their imprint time will be
// significantly smaller"). Same cell physics; SPI-class host link.
func PartFastNOR() Part {
	return Part{
		Name:     "FAST-NOR",
		Geometry: nor.Geometry{Banks: 1, SegmentsPerBank: 16, SegmentBytes: 512, WordBytes: 2},
		Timing: flashctl.Timing{
			SegmentErase:        5 * time.Millisecond,
			MassErase:           12 * time.Millisecond,
			WordProgram:         12 * time.Microsecond,
			BlockProgramFirst:   10 * time.Microsecond,
			BlockProgramNext:    6 * time.Microsecond,
			WordRead:            400 * time.Nanosecond,
			OpSetup:             5 * time.Microsecond,
			AdaptiveEraseSettle: 10 * time.Microsecond,
		},
		Params:     floatgate.DefaultParams(),
		SerialBaud: 2_000_000, // SPI-class link
	}
}

// PartAltNOR models a NOR family from a different process node: the
// same qualitative physics with visibly different constants (slower,
// wider fresh erase distribution). It exists to demonstrate the §IV
// requirement that the extraction window is calibrated and published
// *per device family* — one family's t_PEW reads garbage on another.
func PartAltNOR() Part {
	params := floatgate.DefaultParams()
	params.TauBaseMeanUs = 34.0
	params.TauBaseSigmaUs = 2.2
	params.TauBaseMinUs = 27.0
	params.TauBaseMaxUs = 42.0
	params.SpreadCoefUs = 0.035
	return Part{
		Name:       "ALT-NOR",
		Geometry:   nor.Small(),
		Timing:     flashctl.MSP430Timing(),
		Params:     params,
		SerialBaud: 115200,
	}
}

// Device is one simulated chip. A Device is not safe for concurrent use:
// like the silicon it models, it executes one flash operation at a time.
// Run independent devices on independent goroutines instead (see
// counterfeit.RunPopulationParallel).
type Device struct {
	part Part
	seed uint64
	ctl  *flashctl.Controller
}

// NewDevice fabricates a fresh chip of the given part with the given chip
// seed (the seed stands in for the die's physical identity: two devices
// with different seeds have different manufacturing variation).
func NewDevice(part Part, chipSeed uint64) (*Device, error) {
	arr, err := nor.NewArray(part.Geometry)
	if err != nil {
		return nil, err
	}
	return newDeviceWithArray(part, chipSeed, arr)
}

func newDeviceWithArray(part Part, chipSeed uint64, arr *nor.Array) (*Device, error) {
	if part.SerialBaud <= 0 {
		return nil, fmt.Errorf("mcu: part %q has no serial baud", part.Name)
	}
	model, err := floatgate.NewModel(part.Params, chipSeed)
	if err != nil {
		return nil, err
	}
	ctl, err := flashctl.New(flashctl.Config{
		Array:  arr,
		Model:  model,
		Timing: part.Timing,
	})
	if err != nil {
		return nil, err
	}
	return &Device{part: part, seed: chipSeed, ctl: ctl}, nil
}

// Part returns the device's part description.
func (d *Device) Part() Part { return d.part }

// Seed returns the chip seed (die identity).
func (d *Device) Seed() uint64 { return d.seed }

// Controller returns the flash controller.
func (d *Device) Controller() *flashctl.Controller { return d.ctl }

// Clock returns the device's virtual clock.
func (d *Device) Clock() *vclock.Clock { return d.ctl.Clock() }

// Ledger returns the device's time ledger.
func (d *Device) Ledger() *vclock.Ledger { return d.ctl.Ledger() }

// ChargeHostTransfer accounts for moving n bytes over the host serial
// link (10 bit times per byte: start + 8 data + stop).
func (d *Device) ChargeHostTransfer(n int) {
	if n <= 0 {
		return
	}
	bits := 10 * n
	dur := time.Duration(float64(bits) / float64(d.part.SerialBaud) * float64(time.Second))
	d.Clock().Advance(d.Ledger().Charge(OpHost, dur))
}

// chipFile is the on-disk JSON envelope for a chip. The array payload —
// the dominant field by orders of magnitude — stays a raw JSON string
// on the decode side: json.RawMessage reuses its backing capacity
// across Unmarshal calls, which is what lets a pooled Loader parse chip
// files without reallocating the payload (base64 never contains JSON
// escapes, so the quoted bytes are decodable in place).
type chipFile struct {
	Format   string            `json:"format"`
	Version  int               `json:"version"`
	PartName string            `json:"part"`
	Seed     uint64            `json:"seed"`
	Params   *floatgate.Params `json:"params,omitempty"` // overrides catalog params
	AgeYears float64           `json:"ageYears,omitempty"`
	Array    json.RawMessage   `json:"array"` // quoted base64 of nor binary encoding
}

const (
	chipFormat  = "flashmark-chip"
	chipVersion = 1
)

// saveState recycles every per-Save transient: the binary array
// encoding, the quoted-base64 token (the file's dominant field), and
// the JSON envelope buffer with its pinned encoder — the encoder's
// internal indent scratch only amortizes when the encoder itself is
// reused (fmverifyd snapshots registries in a loop; these buffers are
// the save path's entire allocation profile).
type saveState struct {
	raw []byte
	b64 []byte
	buf bytes.Buffer
	enc *json.Encoder
}

var savePool = sync.Pool{New: func() any {
	s := &saveState{raw: make([]byte, 0, 4096)}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

// Save writes the chip state (part, seed, cell margins and wear) to w.
func (d *Device) Save(w io.Writer) error {
	s := savePool.Get().(*saveState)
	defer savePool.Put(s)
	raw, err := d.ctl.Array().AppendBinary(s.raw[:0])
	s.raw = raw[:0]
	if err != nil {
		return fmt.Errorf("mcu: serializing array: %w", err)
	}
	params := d.part.Params
	cf := chipFile{
		Format:   chipFormat,
		Version:  chipVersion,
		PartName: d.part.Name,
		Seed:     d.seed,
		Params:   &params,
		AgeYears: d.ctl.AgeYears(),
		Array:    s.quotedBase64(raw),
	}
	s.buf.Reset()
	if err := s.enc.Encode(cf); err != nil {
		return err
	}
	_, err = w.Write(s.buf.Bytes())
	return err
}

// quotedBase64 renders raw as the JSON string token the chip file
// stores the array payload under (base64 needs no JSON escaping, so
// quoting is just delimiters), reusing the state's token buffer.
func (s *saveState) quotedBase64(raw []byte) json.RawMessage {
	n := base64.StdEncoding.EncodedLen(len(raw))
	if cap(s.b64) < n+2 {
		s.b64 = make([]byte, n+2)
	}
	out := s.b64[:n+2]
	out[0], out[n+1] = '"', '"'
	base64.StdEncoding.Encode(out[1:n+1], raw)
	return json.RawMessage(out)
}

// chipArrayBytes extracts the base64 text from the raw array payload.
// The fast path slices the quoted token in place; a payload with
// escapes (never produced by Save) or a non-string value falls back to
// the strict decoder, whose error the caller wraps as a chip-file
// decode failure.
func chipArrayBytes(raw json.RawMessage) ([]byte, error) {
	if len(raw) >= 2 && raw[0] == '"' && raw[len(raw)-1] == '"' && bytes.IndexByte(raw, '\\') < 0 {
		return raw[1 : len(raw)-1], nil
	}
	if len(raw) == 0 {
		return nil, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// decodeChipArray base64-decodes the array payload into dst's capacity,
// growing it only when the payload outgrows it.
func decodeChipArray(b64 []byte, dst []byte) ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(b64))
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	m, err := base64.StdEncoding.Decode(dst, b64)
	if err != nil {
		return nil, err
	}
	return dst[:m], nil
}

// Load reconstructs a chip from Save output. The part is looked up in the
// catalog by name; the saved physics parameters override the catalog's so
// chips fabricated with experimental parameters reload faithfully.
func Load(r io.Reader) (*Device, error) {
	var cf chipFile
	if err := json.NewDecoder(r).Decode(&cf); err != nil {
		return nil, fmt.Errorf("mcu: decoding chip file: %w", err)
	}
	if cf.Format != chipFormat {
		return nil, fmt.Errorf("mcu: not a chip file (format %q)", cf.Format)
	}
	if cf.Version != chipVersion {
		return nil, fmt.Errorf("mcu: unsupported chip file version %d", cf.Version)
	}
	part, err := PartByName(cf.PartName)
	if err != nil {
		return nil, err
	}
	if cf.Params != nil {
		part.Params = *cf.Params
	}
	b64, err := chipArrayBytes(cf.Array)
	if err != nil {
		return nil, fmt.Errorf("mcu: decoding chip file: %w", err)
	}
	raw, err := decodeChipArray(b64, nil)
	if err != nil {
		return nil, fmt.Errorf("mcu: decoding array payload: %w", err)
	}
	// Check the serialized geometry against the named part before
	// UnmarshalArray commits the per-cell allocation: chip files are
	// untrusted input, and a forged header must not be able to command
	// an allocation larger than the part it claims to be.
	headGeom, err := nor.ArrayGeometry(raw)
	if err != nil {
		return nil, err
	}
	if headGeom != part.Geometry {
		return nil, fmt.Errorf("mcu: chip file geometry %+v does not match part %s", headGeom, part.Name)
	}
	arr, err := nor.UnmarshalArray(raw)
	if err != nil {
		return nil, err
	}
	dev, err := newDeviceWithArray(part, cf.Seed, arr)
	if err != nil {
		return nil, err
	}
	if cf.AgeYears > 0 {
		if err := dev.ctl.SetAgeYears(cf.AgeYears); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// Loader parses chip files with fully reusable scratch: the JSON
// envelope (its raw array payload included), the base64-decoded binary
// form, and the cell array itself are all recycled across Load calls
// when the geometry repeats — the service hot path, where one catalog
// part dominates any given dock. The device returned by Load aliases
// the Loader's array storage, so it is invalidated by the next Load;
// callers keep a device and its loader together for the request and
// recycle both when the report is rendered. A Loader is not safe for
// concurrent use; pool instances instead. The zero value is ready.
type Loader struct {
	cf  chipFile
	bin []byte
	arr *nor.Array
}

// Load reconstructs a chip from data (one complete chip file, the
// bytes Save writes). Identical in behavior to Load(bytes.NewReader(
// data)) except that trailing data after the JSON object is rejected —
// which is what the service's former whole-body format sniff already
// enforced for every request.
func (l *Loader) Load(data []byte) (*Device, error) {
	l.cf = chipFile{Array: l.cf.Array[:0]}
	if err := json.Unmarshal(data, &l.cf); err != nil {
		return nil, fmt.Errorf("mcu: decoding chip file: %w", err)
	}
	cf := &l.cf
	if cf.Format != chipFormat {
		return nil, fmt.Errorf("mcu: not a chip file (format %q)", cf.Format)
	}
	if cf.Version != chipVersion {
		return nil, fmt.Errorf("mcu: unsupported chip file version %d", cf.Version)
	}
	part, err := PartByName(cf.PartName)
	if err != nil {
		return nil, err
	}
	if cf.Params != nil {
		part.Params = *cf.Params
	}
	b64, err := chipArrayBytes(cf.Array)
	if err != nil {
		return nil, fmt.Errorf("mcu: decoding chip file: %w", err)
	}
	bin, err := decodeChipArray(b64, l.bin)
	if err != nil {
		return nil, fmt.Errorf("mcu: decoding array payload: %w", err)
	}
	l.bin = bin[:0]
	headGeom, err := nor.ArrayGeometry(bin)
	if err != nil {
		return nil, err
	}
	if headGeom != part.Geometry {
		return nil, fmt.Errorf("mcu: chip file geometry %+v does not match part %s", headGeom, part.Name)
	}
	arr, err := nor.UnmarshalArrayInto(l.arr, bin)
	if err != nil {
		return nil, err
	}
	l.arr = arr
	dev, err := newDeviceWithArray(part, cf.Seed, arr)
	if err != nil {
		return nil, err
	}
	if cf.AgeYears > 0 {
		if err := dev.ctl.SetAgeYears(cf.AgeYears); err != nil {
			return nil, err
		}
	}
	return dev, nil
}

// LoadDevice reconstructs a chip behind the substrate-neutral device
// interface (the Loader counterpart of the package-level LoadDevice).
func (l *Loader) LoadDevice(data []byte) (device.Device, error) {
	return l.Load(data)
}

// Refabricate returns the device to the pristine state NewDevice(part,
// seed) constructs, in place: every cell erased with zero wear, a fresh
// physics model for the new die identity, and zeroed clock, ledger and
// controller state — but reusing the cell array, which is the dominant
// allocation.
func (d *Device) Refabricate(seed uint64) error {
	arr := d.ctl.Array()
	arr.Reset()
	nd, err := newDeviceWithArray(d.part, seed, arr)
	if err != nil {
		return err
	}
	*d = *nd
	return nil
}

// Age advances the chip's unpowered-storage age to the given total years
// (monotone; used for watermark-longevity studies).
func (d *Device) Age(years float64) error { return d.ctl.SetAgeYears(years) }

// AgeYears returns the chip's storage age.
func (d *Device) AgeYears() float64 { return d.ctl.AgeYears() }

// SetAmbientTempC sets the chip's operating temperature (affects erase
// physics; see the temperature experiment).
func (d *Device) SetAmbientTempC(t float64) error { return d.ctl.SetAmbientTempC(t) }

// AmbientTempC returns the chip's operating temperature.
func (d *Device) AmbientTempC() float64 { return d.ctl.AmbientTempC() }

// The methods below complete the device.Device interface (plus the
// optional capabilities) by forwarding to the flash controller, so
// every consumer above this package drives the chip through the
// substrate-neutral surface instead of the concrete controller.

// Open fabricates a fresh chip and returns it behind the
// substrate-neutral device interface.
func Open(part Part, chipSeed uint64) (device.Device, error) {
	return NewDevice(part, chipSeed)
}

// Fab returns a device fabricator for the part, for procedures that
// consume whole device families (calibration, populations).
func Fab(part Part) device.Fab {
	return func(seed uint64) (device.Device, error) { return NewDevice(part, seed) }
}

// LoadDevice reconstructs a chip from Save output behind the
// substrate-neutral device interface.
func LoadDevice(r io.Reader) (device.Device, error) {
	return Load(r)
}

// PartName returns the catalog name of the device's part.
func (d *Device) PartName() string { return d.part.Name }

// Geometry returns the flash array geometry.
func (d *Device) Geometry() nor.Geometry { return d.part.Geometry }

// Unlock enables erase/program commands (the FCTL password handshake).
func (d *Device) Unlock() error { return d.ctl.Unlock(flashctl.UnlockKey) }

// Lock re-enables write protection.
func (d *Device) Lock() { d.ctl.Lock() }

// EraseSegment erases the segment containing addr.
func (d *Device) EraseSegment(addr int) error { return d.ctl.EraseSegment(addr) }

// EraseSegmentAdaptive erases the segment containing addr, exiting as
// soon as every cell has crossed; it returns the pulse actually spent.
func (d *Device) EraseSegmentAdaptive(addr int) (time.Duration, error) {
	return d.ctl.EraseSegmentAdaptive(addr)
}

// MassEraseBank erases every segment of the bank containing addr.
func (d *Device) MassEraseBank(addr int) error { return d.ctl.MassEraseBank(addr) }

// PartialEraseSegment starts an erase and aborts it after pulse.
func (d *Device) PartialEraseSegment(addr int, pulse time.Duration) error {
	return d.ctl.PartialEraseSegment(addr, pulse)
}

// PartialProgramSegment starts programming the whole segment and aborts
// after pulse (the FFD comparator primitive).
func (d *Device) PartialProgramSegment(addr int, pulse time.Duration) error {
	return d.ctl.PartialProgramSegment(addr, pulse)
}

// ProgramBlock programs consecutive words starting at addr.
func (d *Device) ProgramBlock(addr int, values []uint64) error {
	return d.ctl.ProgramBlock(addr, values)
}

// ReadWord reads the word at addr.
func (d *Device) ReadWord(addr int) (uint64, error) { return d.ctl.ReadWord(addr) }

// ReadSegment reads every word of the segment containing addr.
func (d *Device) ReadSegment(addr int) ([]uint64, error) { return d.ctl.ReadSegment(addr) }

// StressSegmentWords fast-forwards n imprint cycles over one segment.
func (d *Device) StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error {
	return d.ctl.StressSegmentWords(addr, values, n, adaptive)
}

// NominalEraseTime returns the datasheet segment erase duration.
func (d *Device) NominalEraseTime() time.Duration { return d.part.Timing.SegmentErase }

// SegmentWearSummary returns min/mean/max wear across segment seg.
func (d *Device) SegmentWearSummary(seg int) (minW, meanW, maxW float64, err error) {
	return d.ctl.Array().SegmentWearSummary(seg)
}

// WornCellCount counts cells of the segment containing addr beyond the
// datasheet endurance.
func (d *Device) WornCellCount(addr int) (int, error) { return d.ctl.WornCellCount(addr) }

// EnduranceCycles returns the part's datasheet endurance.
func (d *Device) EnduranceCycles() float64 { return d.part.Params.EnduranceCycles }

// SetTrace attaches an operation trace; nil detaches.
func (d *Device) SetTrace(t *vclock.Trace) { d.ctl.SetTrace(t) }

// Trace returns the attached trace, if any.
func (d *Device) Trace() *vclock.Trace { return d.ctl.Trace() }

// Registers exposes the FCTL register file (the firmware-level protocol
// surface; see core's register-sequence procedures).
func (d *Device) Registers() *flashctl.RegisterFile { return d.ctl.Registers() }

// Interface conformance (device.Device plus every optional capability).
var (
	_ device.Device            = (*Device)(nil)
	_ device.Ager              = (*Device)(nil)
	_ device.Thermal           = (*Device)(nil)
	_ device.Tracer            = (*Device)(nil)
	_ device.PartialProgrammer = (*Device)(nil)
	_ device.WearInspector     = (*Device)(nil)
	_ device.Refabricator      = (*Device)(nil)
)
