package reram

import (
	"fmt"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/vclock"
)

// PartName is the catalog name the simulated crossbar reports.
const PartName = "RERAM-CB16"

// DefaultBaud is the SPI-class host link speed used for host-readout
// accounting.
const DefaultBaud = 2_000_000

// DefaultGeometry returns the simulated crossbar: 1 bank x 16 sectors
// x 512 B, 16-bit words — the same word-granular shape as the NOR
// simulation parts, so watermark images are interchangeable.
func DefaultGeometry() nor.Geometry {
	return nor.Geometry{Banks: 1, SegmentsPerBank: 16, SegmentBytes: 512, WordBytes: 2}
}

// Timing holds ReRAM operation durations. The RESET staircase is the
// erase-unit primitive: a nominal staircase sweeps the full amplitude
// ramp; the adaptive form exits once the slowest LRS cell has
// switched.
type Timing struct {
	SectorReset         time.Duration `json:"sectorReset"`         // nominal full RESET staircase (~400 µs)
	WordSet             time.Duration `json:"wordSet"`             // SET pulse per word (~1 µs)
	WordRead            time.Duration `json:"wordRead"`            // word read (~150 ns)
	OpSetup             time.Duration `json:"opSetup"`             // command/address overhead
	AdaptiveResetSettle time.Duration `json:"adaptiveResetSettle"` // verify-and-exit settle
}

// OxRAMTiming returns typical filamentary-oxide crossbar timings.
func OxRAMTiming() Timing {
	return Timing{
		SectorReset:         400 * time.Microsecond,
		WordSet:             time.Microsecond,
		WordRead:            150 * time.Nanosecond,
		OpSetup:             2 * time.Microsecond,
		AdaptiveResetSettle: 4 * time.Microsecond,
	}
}

// Validate reports whether all durations are positive.
func (t Timing) Validate() error {
	for _, d := range []time.Duration{t.SectorReset, t.WordSet, t.WordRead, t.OpSetup, t.AdaptiveResetSettle} {
		if d <= 0 {
			return fmt.Errorf("reram: all timings must be positive: %+v", t)
		}
	}
	return nil
}

// Device is one simulated ReRAM crossbar. It satisfies device.Device
// directly: the crossbar is word-addressable like NOR, so no
// page-discipline adapter is needed.
type Device struct {
	geom   nor.Geometry
	timing Timing
	params Params
	seed   uint64
	model  *Model
	cells  *nor.Array
	clock  *vclock.Clock
	ledger *vclock.Ledger
	noise  *rng.Stream
	age    float64 // storage age in years (retention drift)
	baud   int
}

func newDevice(geom nor.Geometry, timing Timing, params Params, seed uint64,
	model *Model, cells *nor.Array, age float64) *Device {
	return &Device{
		geom:   geom,
		timing: timing,
		params: params,
		seed:   seed,
		model:  model,
		cells:  cells,
		clock:  &vclock.Clock{},
		ledger: &vclock.Ledger{},
		noise:  rng.New(seed ^ 0x5245524D_52656164),
		age:    age,
		baud:   DefaultBaud,
	}
}

// NewDevice fabricates a ReRAM crossbar with the given physics and die
// seed.
func NewDevice(geom nor.Geometry, timing Timing, params Params, seed uint64) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	model, err := NewModel(params, seed, geom.TotalSegments(), geom.CellsPerSegment())
	if err != nil {
		return nil, err
	}
	arr, err := nor.NewArray(geom)
	if err != nil {
		return nil, err
	}
	return newDevice(geom, timing, params, seed, model, arr, 0), nil
}

// Open fabricates a ReRAM crossbar behind the substrate-neutral
// device interface.
func Open(geom nor.Geometry, timing Timing, params Params, seed uint64) (device.Device, error) {
	return NewDevice(geom, timing, params, seed)
}

// Fab returns a device fabricator for the geometry, timing and physics.
func Fab(geom nor.Geometry, timing Timing, params Params) device.Fab {
	return func(seed uint64) (device.Device, error) { return Open(geom, timing, params, seed) }
}

// DefaultFab returns the default simulated crossbar fabricator.
func DefaultFab() device.Fab {
	return Fab(DefaultGeometry(), OxRAMTiming(), DefaultParams())
}

// PartName identifies the part.
func (d *Device) PartName() string { return PartName }

// Seed returns the die seed (physical identity).
func (d *Device) Seed() uint64 { return d.seed }

// Geometry returns the word-granular view of the crossbar.
func (d *Device) Geometry() nor.Geometry { return d.geom }

// Unlock is a no-op: the crossbar command set has no FCTL-style lock.
func (d *Device) Unlock() error { return nil }

// Lock is a no-op (see Unlock).
func (d *Device) Lock() {}

// Clock returns the device's virtual clock.
func (d *Device) Clock() *vclock.Clock { return d.clock }

// Ledger returns the device's time ledger.
func (d *Device) Ledger() *vclock.Ledger { return d.ledger }

func (d *Device) charge(class vclock.OpClass, dur time.Duration) {
	d.clock.Advance(d.ledger.Charge(class, dur))
}

// tauAt returns the RESET crossing time of cell i within sector at the
// given wear, including the device's retention drift.
func (d *Device) tauAt(sector, i int, wear float64) float64 {
	return d.model.TauAt(sector, i, wear, d.age)
}

func (d *Device) sectorOf(addr int) (int, error) {
	return d.geom.SegmentOfAddr(addr)
}

// resetSectorCells drives every cell of the sector to HRS, with the
// model's conditioning increments.
func (d *Device) resetSectorCells(sector int) {
	margins, wear := d.cells.CellSpan(sector)
	full := d.model.ResetWear(true)
	hrs := d.model.ResetWear(false)
	for i := range margins {
		if margins[i] < 0 {
			wear[i] += full
		} else {
			wear[i] += hrs
		}
		margins[i] = nor.MarginErased
	}
}

// EraseSegment performs a nominal full RESET staircase over the sector
// containing addr.
func (d *Device) EraseSegment(addr int) error {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return err
	}
	d.resetSectorCells(sector)
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpErase, d.timing.SectorReset)
	return nil
}

// EraseSegmentAdaptive RESETs the sector but exits as soon as the
// slowest LRS cell has switched (the accelerated imprint primitive).
func (d *Device) EraseSegmentAdaptive(addr int) (time.Duration, error) {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return 0, err
	}
	margins, wear := d.cells.CellSpan(sector)
	maxTau := 0.0
	for i := range margins {
		if margins[i] >= 0 {
			continue
		}
		if tau := d.tauAt(sector, i, wear[i]); tau > maxTau {
			maxTau = tau
		}
	}
	d.resetSectorCells(sector)
	pulse := time.Duration(maxTau*float64(time.Microsecond)) + d.timing.AdaptiveResetSettle
	if pulse > d.timing.SectorReset {
		pulse = d.timing.SectorReset
	}
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpErase, pulse)
	return pulse, nil
}

// MassEraseBank RESETs every sector of the bank containing addr.
func (d *Device) MassEraseBank(addr int) error {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return err
	}
	bank := sector / d.geom.SegmentsPerBank
	first := bank * d.geom.SegmentsPerBank
	for s := first; s < first+d.geom.SegmentsPerBank; s++ {
		d.resetSectorCells(s)
		d.charge(vclock.OpOverhead, d.timing.OpSetup)
		d.charge(vclock.OpErase, d.timing.SectorReset)
	}
	return nil
}

// PartialEraseSegment starts a RESET staircase and aborts it after
// pulse — the extraction primitive. Cells whose crossing time the
// pulse did not reach stay LRS; cells near the boundary are left
// metastable and sample noisily per read.
func (d *Device) PartialEraseSegment(addr int, pulse time.Duration) error {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return err
	}
	if pulse < 0 {
		return fmt.Errorf("reram: negative pulse %v", pulse)
	}
	if pulse >= d.timing.SectorReset {
		return d.EraseSegment(addr)
	}
	pulseUs := float64(pulse) / float64(time.Microsecond)
	margins, wear := d.cells.CellSpan(sector)
	for i := range margins {
		margin := margins[i]
		wasLRS := margin < 0
		switch {
		case margin <= nor.MarginProgrammed:
			margins[i] = nor.ClampMargin(pulseUs - d.tauAt(sector, i, wear[i]))
		case margin >= nor.MarginErased:
			// stays HRS
		default:
			margins[i] = nor.ClampMargin(float64(margin) + pulseUs)
		}
		wear[i] += d.model.ResetWear(wasLRS)
	}
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpPartialErase, pulse)
	return nil
}

// ProgramBlock SETs the zero bits of consecutive words starting at a
// word-aligned byte address. The block must not cross a sector
// boundary. SET is selective: one bits leave the addressed cells in
// their current state.
func (d *Device) ProgramBlock(addr int, values []uint64) error {
	if len(values) == 0 {
		return nil
	}
	sector, err := d.sectorOf(addr)
	if err != nil {
		return err
	}
	if addr%d.geom.WordBytes != 0 {
		return fmt.Errorf("reram: unaligned word address %#x", addr)
	}
	word := (addr - sector*d.geom.SegmentBytes) / d.geom.WordBytes
	if word+len(values) > d.geom.WordsPerSegment() {
		return fmt.Errorf("reram: program of %d words at %#x crosses the sector boundary", len(values), addr)
	}
	bits := d.geom.WordBits()
	base := sector*d.geom.CellsPerSegment() + word*bits
	setWear := d.model.SetWear()
	for w, v := range values {
		for bit := 0; bit < bits; bit++ {
			if v&(1<<uint(bit)) != 0 {
				continue
			}
			cell := base + w*bits + bit
			d.cells.AddWear(cell, setWear)
			d.cells.SetMargin(cell, float64(nor.MarginProgrammed))
		}
	}
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpProgram, time.Duration(len(values))*d.timing.WordSet)
	return nil
}

// ReadWord reads one word at a word-aligned byte address; metastable
// cells sample per read from the device noise stream.
func (d *Device) ReadWord(addr int) (uint64, error) {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return 0, err
	}
	if addr%d.geom.WordBytes != 0 {
		return 0, fmt.Errorf("reram: unaligned word address %#x", addr)
	}
	word := (addr - sector*d.geom.SegmentBytes) / d.geom.WordBytes
	v := d.readWordBits(sector, word)
	d.charge(vclock.OpRead, d.timing.WordRead)
	return v, nil
}

func (d *Device) readWordBits(sector, word int) uint64 {
	bits := d.geom.WordBits()
	margins, _ := d.cells.CellSpan(sector)
	base := word * bits
	var v uint64
	for bit := 0; bit < bits; bit++ {
		margin := margins[base+bit]
		var hrs bool
		switch {
		case margin >= nor.MarginErased:
			hrs = true
		case margin <= nor.MarginProgrammed:
			hrs = false
		default:
			hrs = d.model.SampleRead(float64(margin), d.noise)
		}
		if hrs {
			v |= 1 << uint(bit)
		}
	}
	return v
}

// ReadSegment reads every word of the sector containing addr, in
// order.
func (d *Device) ReadSegment(addr int) ([]uint64, error) {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return nil, err
	}
	words := d.geom.WordsPerSegment()
	out := make([]uint64, words)
	for w := range out {
		out[w] = d.readWordBits(sector, w)
	}
	d.charge(vclock.OpRead, time.Duration(words)*d.timing.WordRead)
	return out, nil
}

// StressSegmentWords fast-forwards n imprint cycles (sector RESET +
// SET of the watermark zeros) over the sector containing addr, riding
// the shared closed-form stress kernel. Time is charged exactly as n
// literal cycles would be.
func (d *Device) StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error {
	if n < 0 {
		return fmt.Errorf("reram: negative cycle count %d", n)
	}
	if n == 0 {
		return nil
	}
	sector, err := d.sectorOf(addr)
	if err != nil {
		return err
	}
	if len(values) != d.geom.WordsPerSegment() {
		return fmt.Errorf("reram: values must cover the whole sector")
	}
	bits := d.geom.WordBits()
	sub := sectorCells{d: d, sector: sector, base: sector * d.geom.CellsPerSegment(), cells: d.geom.CellsPerSegment()}
	one := func(i int) bool { return values[i/bits]&(1<<uint(i%bits)) != 0 }
	wear := device.StressWear{
		FullWear:  d.model.ResetWear(true),
		EraseOnly: d.model.ResetWear(false),
		Program:   d.model.SetWear(),
	}
	device.ApplyStress(sub, one, n, wear)

	// Time accounting: per cycle one RESET setup, one SET setup plus the
	// word SET pulses, and the (nominal or integrated adaptive) RESET
	// staircase.
	d.charge(vclock.OpOverhead, time.Duration(n)*2*d.timing.OpSetup)
	d.charge(vclock.OpProgram, time.Duration(n)*time.Duration(d.geom.WordsPerSegment())*d.timing.WordSet)
	if !adaptive {
		d.charge(vclock.OpErase, time.Duration(n)*d.timing.SectorReset)
		return nil
	}
	meanTau := device.MeanAdaptiveTauUs(sub, one, n, wear)
	pulse := time.Duration(meanTau*float64(time.Microsecond)) + d.timing.AdaptiveResetSettle
	if pulse > d.timing.SectorReset {
		pulse = d.timing.SectorReset
	}
	d.charge(vclock.OpErase, time.Duration(n)*pulse)
	return nil
}

// NominalEraseTime returns the datasheet full RESET staircase
// duration.
func (d *Device) NominalEraseTime() time.Duration { return d.timing.SectorReset }

// ChargeHostTransfer accounts for moving n bytes over the SPI-class
// host link (10 bit times per byte).
func (d *Device) ChargeHostTransfer(n int) {
	if n <= 0 {
		return
	}
	bits := 10 * n
	dur := time.Duration(float64(bits) / float64(d.baud) * float64(time.Second))
	d.clock.Advance(d.ledger.Charge(device.OpHost, dur))
}

// Age advances the chip's storage age (monotone): the filament relaxes
// and every cell's RESET crossing time drifts longer.
func (d *Device) Age(years float64) error {
	if !(years >= d.age) {
		return fmt.Errorf("reram: cannot age from %.2f to %.2f years (chips do not get younger)", d.age, years)
	}
	d.age = years
	return nil
}

// AgeYears returns the chip's storage age.
func (d *Device) AgeYears() float64 { return d.age }

// SegmentWearSummary returns min/mean/max conditioning wear across a
// sector.
func (d *Device) SegmentWearSummary(seg int) (minW, meanW, maxW float64, err error) {
	return d.cells.SegmentWearSummary(seg)
}

// WornCellCount counts cells of the sector containing addr cycled
// beyond the datasheet endurance.
func (d *Device) WornCellCount(addr int) (int, error) {
	sector, err := d.sectorOf(addr)
	if err != nil {
		return 0, err
	}
	cells := d.geom.CellsPerSegment()
	base := sector * cells
	worn := 0
	for i := 0; i < cells; i++ {
		if d.model.Worn(d.cells.Wear(base + i)) {
			worn++
		}
	}
	return worn, nil
}

// EnduranceCycles returns the datasheet endurance.
func (d *Device) EnduranceCycles() float64 { return d.params.EnduranceCycles }

// sectorCells adapts one sector to the shared stress kernel.
type sectorCells struct {
	d      *Device
	sector int
	base   int
	cells  int
}

func (s sectorCells) Cells() int               { return s.cells }
func (s sectorCells) Programmed(i int) bool    { return s.d.cells.Programmed(s.base + i) }
func (s sectorCells) Wear(i int) float64       { return s.d.cells.Wear(s.base + i) }
func (s sectorCells) AddWear(i int, w float64) { s.d.cells.AddWear(s.base+i, w) }
func (s sectorCells) SetErased(i int)          { s.d.cells.SetMargin(s.base+i, float64(nor.MarginErased)) }
func (s sectorCells) SetProgrammed(i int) {
	s.d.cells.SetMargin(s.base+i, float64(nor.MarginProgrammed))
}
func (s sectorCells) TauAt(i int, wear float64) float64 { return s.d.tauAt(s.sector, i, wear) }

// Interface conformance: the full device surface plus the wear and
// aging capabilities.
var (
	_ device.Device        = (*Device)(nil)
	_ device.WearInspector = (*Device)(nil)
	_ device.Ager          = (*Device)(nil)
)
