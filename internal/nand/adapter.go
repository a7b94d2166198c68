package nand

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/vclock"
)

// Adapter presents a NAND chip behind the substrate-neutral
// device.Device interface, mapping one geometry "segment" onto one NAND
// block: erases become block erases, block programs become in-order
// page programs, and word reads are served from whole-page reads.
// With this adapter the Flashmark procedures in package core run
// unchanged against NAND — the paper's §VI claim — and the former
// NAND-only imprint/extract twins are gone.
//
// Word-read semantics: NAND reads at page granularity, so ReadWord
// reads the word's page (ReadPageInto) and caches it. Each cached word
// is served at most once per page read: re-reading a word reads the
// page again, so repeated reads of a metastable cell remain independent
// samples. A sequential pass over a block costs one page read per page,
// and the adapter is a device.PassReader, so a majority read goes pass
// by pass and pays one page read per page per pass.
type Adapter struct {
	d    *Device
	baud int

	cacheBlock int
	cachePage  int
	page       []byte // the cached page's bytes
	served     []bool // per word of the cached page: served since the read
}

// AdapterName is the part name the adapter reports.
const AdapterName = "NAND-SIM"

// DefaultAdapterBaud is the SPI-class host link speed used for
// host-readout accounting when no other speed is configured.
const DefaultAdapterBaud = 2_000_000

// Adapt wraps an existing NAND device.
func Adapt(d *Device) *Adapter {
	return &Adapter{d: d, baud: DefaultAdapterBaud, cacheBlock: -1, cachePage: -1}
}

// Open fabricates a NAND chip and returns it behind the
// substrate-neutral device interface.
func Open(geom Geometry, timing Timing, params floatgate.Params, seed uint64) (device.Device, error) {
	d, err := NewDevice(geom, timing, params, seed)
	if err != nil {
		return nil, err
	}
	return Adapt(d), nil
}

// Fab returns a device fabricator for the NAND geometry and timing.
func Fab(geom Geometry, timing Timing, params floatgate.Params) device.Fab {
	return func(seed uint64) (device.Device, error) { return Open(geom, timing, params, seed) }
}

// Device returns the adapted NAND chip.
func (a *Adapter) Device() *Device { return a.d }

// PartName identifies the adapter.
func (a *Adapter) PartName() string { return AdapterName }

// Seed returns the chip seed (die identity).
func (a *Adapter) Seed() uint64 { return a.d.seed }

// Geometry returns the word-granular view of the NAND array: one
// segment per block, 16-bit words.
func (a *Adapter) Geometry() nor.Geometry { return a.d.cells.Geometry() }

// Unlock is a no-op: NAND command sets have no FCTL-style lock.
func (a *Adapter) Unlock() error { return nil }

// Lock is a no-op (see Unlock).
func (a *Adapter) Lock() {}

func (a *Adapter) invalidate() {
	a.cacheBlock, a.cachePage = -1, -1
}

func (a *Adapter) blockOf(addr int) (int, error) {
	return a.Geometry().SegmentOfAddr(addr)
}

// EraseSegment erases the block containing addr.
func (a *Adapter) EraseSegment(addr int) error {
	block, err := a.blockOf(addr)
	if err != nil {
		return err
	}
	a.invalidate()
	return a.d.EraseBlock(block)
}

// EraseSegmentAdaptive erases the block containing addr, exiting as
// soon as every cell has crossed.
func (a *Adapter) EraseSegmentAdaptive(addr int) (time.Duration, error) {
	block, err := a.blockOf(addr)
	if err != nil {
		return 0, err
	}
	a.invalidate()
	return a.d.EraseBlockAdaptive(block)
}

// MassEraseBank erases every block of the device (NAND has no mass
// erase command; the adapter issues per-block erases).
func (a *Adapter) MassEraseBank(addr int) error {
	if _, err := a.blockOf(addr); err != nil {
		return err
	}
	a.invalidate()
	for block := 0; block < a.d.geom.Blocks; block++ {
		if err := a.d.EraseBlock(block); err != nil {
			return err
		}
	}
	return nil
}

// PartialEraseSegment starts a block erase and aborts it after pulse.
func (a *Adapter) PartialEraseSegment(addr int, pulse time.Duration) error {
	block, err := a.blockOf(addr)
	if err != nil {
		return err
	}
	a.invalidate()
	return a.d.PartialEraseBlock(block, pulse)
}

// ProgramBlock programs consecutive words starting at addr through the
// page-program discipline: the write must start on a page boundary and
// cover whole pages, programmed in order.
func (a *Adapter) ProgramBlock(addr int, values []uint64) error {
	if len(values) == 0 {
		return nil
	}
	geom := a.Geometry()
	block, err := a.blockOf(addr)
	if err != nil {
		return err
	}
	if addr%geom.WordBytes != 0 {
		return fmt.Errorf("nand: unaligned word address %#x", addr)
	}
	word := (addr - block*geom.SegmentBytes) / geom.WordBytes
	if word+len(values) > geom.WordsPerSegment() {
		return fmt.Errorf("nand: program of %d words at %#x crosses the block boundary", len(values), addr)
	}
	wordsPerPage := a.d.geom.PageBytes / geom.WordBytes
	if word%wordsPerPage != 0 || len(values)%wordsPerPage != 0 {
		return fmt.Errorf("nand: block program must cover whole pages (%d words each)", wordsPerPage)
	}
	a.invalidate()
	firstPage := word / wordsPerPage
	bp := pageScratch.Get().(*[]byte)
	data := *bp
	if cap(data) < a.d.geom.PageBytes {
		data = make([]byte, a.d.geom.PageBytes)
	}
	data = data[:a.d.geom.PageBytes]
	defer func() { *bp = data; pageScratch.Put(bp) }()
	for p := 0; p < len(values)/wordsPerPage; p++ {
		slice := values[p*wordsPerPage : (p+1)*wordsPerPage]
		for i, v := range slice {
			data[2*i] = byte(v)
			data[2*i+1] = byte(v >> 8)
		}
		if err := a.d.ProgramPage(block, firstPage+p, data); err != nil {
			return err
		}
	}
	return nil
}

// pageScratch recycles the page-sized staging buffer ProgramBlock packs
// words into before each page program.
var pageScratch = sync.Pool{New: func() any { b := []byte(nil); return &b }}

// ReadWord reads one 16-bit word, reading its page on a cache miss
// (see the type comment for the served-once cache semantics).
func (a *Adapter) ReadWord(addr int) (uint64, error) {
	geom := a.Geometry()
	if addr%geom.WordBytes != 0 {
		return 0, fmt.Errorf("nand: unaligned word address %#x", addr)
	}
	block, err := a.blockOf(addr)
	if err != nil {
		return 0, err
	}
	word := (addr - block*geom.SegmentBytes) / geom.WordBytes
	wordsPerPage := a.d.geom.PageBytes / geom.WordBytes
	page := word / wordsPerPage
	inPage := word % wordsPerPage
	if a.cacheBlock != block || a.cachePage != page || a.served[inPage] {
		// Refill the page buffers in place: a steady-state read pass
		// over a block allocates nothing.
		data, err := a.d.ReadPageInto(block, page, a.page)
		if err != nil {
			a.invalidate()
			return 0, err
		}
		a.page, a.cacheBlock, a.cachePage = data, block, page
		if len(a.served) != wordsPerPage {
			a.served = make([]bool, wordsPerPage)
		} else {
			clear(a.served)
		}
	}
	a.served[inPage] = true
	return uint64(a.page[2*inPage]) | uint64(a.page[2*inPage+1])<<8, nil
}

// ReadsByPass marks the adapter as a device.PassReader: a majority
// read over it goes pass by pass, one page read per page per pass.
func (a *Adapter) ReadsByPass() {}

// ReadSegment reads every word of the block containing addr, in order
// (one page read per page).
func (a *Adapter) ReadSegment(addr int) ([]uint64, error) {
	geom := a.Geometry()
	block, err := a.blockOf(addr)
	if err != nil {
		return nil, err
	}
	base := block * geom.SegmentBytes
	out := make([]uint64, geom.WordsPerSegment())
	for w := range out {
		v, err := a.ReadWord(base + w*geom.WordBytes)
		if err != nil {
			return nil, err
		}
		out[w] = v
	}
	return out, nil
}

// StressSegmentWords fast-forwards n imprint cycles (block erase + page
// programs of the watermark) over the block containing addr, riding the
// shared closed-form stress kernel. Time is charged exactly as n
// literal cycles would be: per cycle one erase setup plus one program
// setup per page, the page program times, and the (nominal or
// integrated adaptive) erase pulse.
func (a *Adapter) StressSegmentWords(addr int, values []uint64, n int, adaptive bool) error {
	if n < 0 {
		return fmt.Errorf("nand: negative cycle count %d", n)
	}
	if n == 0 {
		return nil
	}
	geom := a.Geometry()
	block, err := a.blockOf(addr)
	if err != nil {
		return err
	}
	if len(values) != geom.WordsPerSegment() {
		return fmt.Errorf("nand: values must cover the whole block")
	}
	a.invalidate()
	d := a.d
	sub := blockCells{d: d, block: block, base: block * geom.CellsPerSegment(), cells: geom.CellsPerSegment()}
	one := func(i int) bool {
		return values[i/geom.WordBits()]&(1<<uint(i%geom.WordBits())) != 0
	}
	wear := device.StressWear{
		FullWear:  d.model.EraseWear(true),
		EraseOnly: d.model.EraseWear(false),
		Program:   d.model.ProgramWear(),
	}
	device.ApplyStress(sub, one, n, wear)
	d.nextPage[block] = d.geom.PagesPerBlock

	// Time accounting.
	progPerCycle := time.Duration(d.geom.PagesPerBlock) * d.timing.PageProgram
	d.charge(vclock.OpOverhead, time.Duration(n)*(d.timing.OpSetup*time.Duration(1+d.geom.PagesPerBlock)))
	d.charge(vclock.OpProgram, time.Duration(n)*progPerCycle)
	if !adaptive {
		d.charge(vclock.OpErase, time.Duration(n)*d.timing.BlockErase)
		return nil
	}
	meanTau := device.MeanAdaptiveTauUs(sub, one, n, wear)
	pulse := time.Duration(meanTau*float64(time.Microsecond)) + d.timing.AdaptiveEraseSettle
	if pulse > d.timing.BlockErase {
		pulse = d.timing.BlockErase
	}
	d.charge(vclock.OpErase, time.Duration(n)*pulse)
	return nil
}

// NominalEraseTime returns the datasheet block erase duration.
func (a *Adapter) NominalEraseTime() time.Duration { return a.d.timing.BlockErase }

// Clock returns the device's virtual clock.
func (a *Adapter) Clock() *vclock.Clock { return a.d.clock }

// Ledger returns the device's time ledger.
func (a *Adapter) Ledger() *vclock.Ledger { return a.d.ledger }

// ChargeHostTransfer accounts for moving n bytes over the SPI-class
// host link (10 bit times per byte).
func (a *Adapter) ChargeHostTransfer(n int) {
	if n <= 0 {
		return
	}
	bits := 10 * n
	dur := time.Duration(float64(bits) / float64(a.baud) * float64(time.Second))
	a.d.clock.Advance(a.d.ledger.Charge(device.OpHost, dur))
}

// SegmentWearSummary returns min/mean/max wear across block seg.
func (a *Adapter) SegmentWearSummary(seg int) (minW, meanW, maxW float64, err error) {
	return a.d.cells.SegmentWearSummary(seg)
}

// WornCellCount counts cells of the block containing addr beyond the
// datasheet endurance.
func (a *Adapter) WornCellCount(addr int) (int, error) {
	block, err := a.blockOf(addr)
	if err != nil {
		return 0, err
	}
	cells := a.Geometry().CellsPerSegment()
	base := block * cells
	worn := 0
	for i := 0; i < cells; i++ {
		if a.d.model.Worn(a.d.cells.Wear(base + i)) {
			worn++
		}
	}
	return worn, nil
}

// EnduranceCycles returns the datasheet endurance.
func (a *Adapter) EnduranceCycles() float64 { return a.d.params.EnduranceCycles }

// blockCells adapts one NAND block to the shared stress kernel.
type blockCells struct {
	d     *Device
	block int
	base  int
	cells int
}

// Margins go through the block's engine, which resolves and drops
// deferrals.
func (b blockCells) Cells() int                        { return b.cells }
func (b blockCells) Programmed(i int) bool             { return b.d.deferred[b.block].Programmed(i) }
func (b blockCells) Wear(i int) float64                { return b.d.cells.Wear(b.base + i) }
func (b blockCells) AddWear(i int, w float64)          { b.d.cells.AddWear(b.base+i, w) }
func (b blockCells) SetErased(i int)                   { b.d.deferred[b.block].Set(i, nor.MarginErased) }
func (b blockCells) SetProgrammed(i int)               { b.d.deferred[b.block].Set(i, nor.MarginProgrammed) }
func (b blockCells) TauAt(i int, wear float64) float64 { return b.d.model.TauAt(b.block, i, wear) }

// MaxTauOver rides the device's batched pruned max (device.AdaptiveMaxer);
// it declines when the reference physics path is selected, which sends
// MeanAdaptiveTauUs back to the sequential TauAt scan.
func (b blockCells) MaxTauOver(include func(i int) bool, wearOf func(i int) float64) (float64, bool) {
	return b.d.maxTauOver(b.block, include, wearOf)
}

// nandChipFile is the on-disk JSON envelope for a NAND chip. Array is
// kept as raw JSON (the quoted base64 text) rather than a string, as in
// mcu's chipFile: nor.UnmarshalChipFile reads it in place from a
// canonical file, and RawMessage's append-into-self decode recycles
// its buffer for any other.
type nandChipFile struct {
	Format   string           `json:"format"`
	Version  int              `json:"version"`
	Geometry Geometry         `json:"geometry"`
	Timing   Timing           `json:"timing"`
	Params   floatgate.Params `json:"params"`
	Seed     uint64           `json:"seed"`
	NextPage []int            `json:"nextPage"`
	Array    json.RawMessage  `json:"array"` // quoted base64 of nor binary encoding
}

// ChipFormat is the format tag of serialized NAND chips.
const ChipFormat = "flashmark-nand-chip"

const nandChipVersion = 1

// Save writes the chip state (geometry, timing, physics, seed, cell
// margins and wear) to w, materializing every deferred margin first.
func (a *Adapter) Save(w io.Writer) error {
	return nor.SaveChip(w, a.d.array(), func(array json.RawMessage) any {
		return nandChipFile{
			Format:   ChipFormat,
			Version:  nandChipVersion,
			Geometry: a.d.geom,
			Timing:   a.d.timing,
			Params:   a.d.params,
			Seed:     a.d.seed,
			// Marshaled before SaveChip returns, so the live cursor slice
			// can be referenced without a defensive copy.
			NextPage: a.d.nextPage,
			Array:    array,
		}
	})
}

// LoadAdapter reconstructs a NAND chip from Save output: it reads r to
// the end and decodes the bytes with a fresh Loader.
func LoadAdapter(r io.Reader) (*Adapter, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return new(Loader).Load(data)
}

// Loader reconstructs NAND chips from Save output, recycling the JSON
// envelope, the binary array form, the cell array, the page-cursor
// slice, the blocks' deferral engines and the adapter's page buffers
// across loads — the NAND counterpart of mcu.Loader. The zero value is
// ready. A Loader is not safe for concurrent use, and the adapter it
// returns aliases the loader's storage: the next Load invalidates every
// previously returned adapter.
type Loader struct {
	cf       nandChipFile
	array    nor.ChipArray
	nextPage []int
	deferred []floatgate.Deferral
	page     []byte
	served   []bool
}

// Load reconstructs a NAND chip from data, one complete chip file (the
// bytes Save writes); trailing data after the JSON object is rejected.
func (l *Loader) Load(data []byte) (*Adapter, error) {
	// Reset the envelope but keep the Array and NextPage capacity:
	// RawMessage and slice decoding both append into the existing
	// backing store. encoding/json leaves an element it decodes from
	// null untouched, so the recycled cursors are zeroed first, as a
	// fresh Loader's are.
	clear(l.cf.NextPage[:cap(l.cf.NextPage)])
	l.cf = nandChipFile{Array: l.cf.Array[:0], NextPage: l.cf.NextPage[:0]}
	token, err := nor.UnmarshalChipFile(data, &l.cf, &l.cf.Array)
	if err != nil {
		return nil, fmt.Errorf("nand: decoding chip file: %w", err)
	}
	cf := &l.cf
	if cf.Format != ChipFormat {
		return nil, fmt.Errorf("nand: not a NAND chip file (format %q)", cf.Format)
	}
	if cf.Version != nandChipVersion {
		return nil, fmt.Errorf("nand: unsupported chip file version %d", cf.Version)
	}
	if err := cf.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cf.Timing.Validate(); err != nil {
		return nil, err
	}
	model, err := floatgate.NewModel(cf.Params, cf.Seed)
	if err != nil {
		return nil, err
	}
	arr, err := l.array.Decode(token, norGeomFor(cf.Geometry))
	if err != nil {
		return nil, fmt.Errorf("nand: %w", err)
	}
	if len(cf.NextPage) != cf.Geometry.Blocks {
		return nil, fmt.Errorf("nand: chip file has %d page cursors for %d blocks", len(cf.NextPage), cf.Geometry.Blocks)
	}
	for block, p := range cf.NextPage {
		if p < 0 || p > cf.Geometry.PagesPerBlock {
			return nil, fmt.Errorf("nand: chip file page cursor %d of block %d out of range", p, block)
		}
	}
	if cap(l.nextPage) < cf.Geometry.Blocks {
		l.nextPage = make([]int, cf.Geometry.Blocks)
	}
	next := l.nextPage[:cf.Geometry.Blocks]
	copy(next, cf.NextPage)
	if cap(l.deferred) < cf.Geometry.Blocks {
		l.deferred = make([]floatgate.Deferral, cf.Geometry.Blocks)
	}
	a := Adapt(newDevice(cf.Geometry, cf.Timing, cf.Params, cf.Seed, model, arr, next, l.deferred[:cf.Geometry.Blocks]))
	// The page buffers are recycled too. Adapt starts with no page
	// cached, so the first read refills them for this chip.
	n := cf.Geometry.PageBytes
	if cap(l.page) < n {
		l.page, l.served = make([]byte, n), make([]bool, n/2)
	}
	a.page, a.served = l.page[:n], l.served[:n/2]
	return a, nil
}

// Retained reports how many cells, or blocks of page cursors and
// deferral engines, the loader keeps for reuse, whichever is more.
func (l *Loader) Retained() int {
	return max(l.array.Cells(), cap(l.deferred), cap(l.cf.NextPage))
}

// Interface conformance (device.Device plus the wear and pass-read
// capabilities; NAND models neither aging, temperature, traces, nor
// partial programs yet).
var (
	_ device.Device        = (*Adapter)(nil)
	_ device.WearInspector = (*Adapter)(nil)
	_ device.PassReader    = (*Adapter)(nil)
	_ device.AdaptiveMaxer = blockCells{}
)
