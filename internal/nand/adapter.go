package nand

import (
	"bytes"
	"encoding/base64"
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
// page programs, and word reads are served from whole-page fetches.
// With this adapter the Flashmark procedures in package core run
// unchanged against NAND — the paper's §VI claim — and the former
// NAND-only imprint/extract twins are gone.
//
// Word-read semantics: NAND reads at page granularity, so ReadWord
// fetches the word's page and caches it. Each cached word is served at
// most once per fetch — a sequential single-read pass over a block (the
// extraction access pattern) costs exactly one page read per page,
// while re-reading a word fetches the page again so repeated reads of a
// metastable cell remain independent samples. A fetch draws its noise
// up front but decides a word's metastable cells only when the word is
// served (see pageFetch): the majority pass re-fetches a page for every
// re-read yet serves at most two words from each fetch.
type Adapter struct {
	d    *Device
	baud int

	cacheBlock int
	cachePage  int
	fetch      *pageFetch
	served     []bool
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

// ReadWord reads one 16-bit word, fetching its page on a cache miss
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
		// Refill the fetch buffers in place: a steady-state read pass
		// over a block allocates nothing.
		if a.fetch == nil {
			a.fetch = new(pageFetch)
		}
		if err := a.d.fetchPage(block, page, a.fetch); err != nil {
			a.invalidate()
			return 0, err
		}
		a.cacheBlock, a.cachePage = block, page
		if len(a.served) != wordsPerPage {
			a.served = make([]bool, wordsPerPage)
		} else {
			for i := range a.served {
				a.served[i] = false
			}
		}
	}
	a.served[inPage] = true
	return uint64(a.fetch.byteAt(2*inPage)) | uint64(a.fetch.byteAt(2*inPage+1))<<8, nil
}

// ReadSegment reads every word of the block containing addr, in order
// (one page fetch per page).
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
	d.gen++
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

func (b blockCells) Cells() int               { return b.cells }
func (b blockCells) Programmed(i int) bool    { return b.d.cells.Programmed(b.base + i) }
func (b blockCells) Wear(i int) float64       { return b.d.cells.Wear(b.base + i) }
func (b blockCells) AddWear(i int, w float64) { b.d.cells.AddWear(b.base+i, w) }
func (b blockCells) SetErased(i int)          { b.d.cells.SetMargin(b.base+i, float64(nor.MarginErased)) }
func (b blockCells) SetProgrammed(i int) {
	b.d.cells.SetMargin(b.base+i, float64(nor.MarginProgrammed))
}
func (b blockCells) TauAt(i int, wear float64) float64 { return b.d.model.TauAt(b.block, i, wear) }

// MaxTauOver rides the device's batched pruned max (device.AdaptiveMaxer);
// it declines when the reference physics path is selected, which sends
// MeanAdaptiveTauUs back to the sequential TauAt scan.
func (b blockCells) MaxTauOver(include func(i int) bool, wearOf func(i int) float64) (float64, bool) {
	return b.d.maxTauOver(b.block, include, wearOf)
}

// nandChipFile is the on-disk JSON envelope for a NAND chip. Array is
// kept as raw JSON (the quoted base64 text) rather than a string: like
// mcu's chipFile, RawMessage's append-into-self decode lets a reloading
// Loader recycle the payload buffer, and base64 text never needs
// unescaping.
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

const (
	nandChipFormat  = "flashmark-nand-chip"
	nandChipVersion = 1
)

// saveState recycles every per-Save transient — the binary array
// encoding, the quoted-base64 token, and the JSON envelope buffer with
// its pinned encoder — mirroring the mcu chip-file save pool.
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

// Save writes the chip state (geometry, timing, physics, seed, cell
// margins and wear) to w.
func (a *Adapter) Save(w io.Writer) error {
	s := savePool.Get().(*saveState)
	defer savePool.Put(s)
	raw, err := a.d.cells.AppendBinary(s.raw[:0])
	s.raw = raw[:0]
	if err != nil {
		return fmt.Errorf("nand: serializing array: %w", err)
	}
	cf := nandChipFile{
		Format:   nandChipFormat,
		Version:  nandChipVersion,
		Geometry: a.d.geom,
		Timing:   a.d.timing,
		Params:   a.d.params,
		Seed:     a.d.seed,
		// Marshaled synchronously below, so the live cursor slice can be
		// referenced without a defensive copy.
		NextPage: a.d.nextPage,
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
// embeds: base64 text needs no escaping, so the quotes can be placed
// directly (mirrors the mcu chip-file helper), reusing the state's
// token buffer.
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
// The fast path peels the quotes off an escape-free string token in
// place; anything else (escapes, or a non-string value whose error
// surface must match a string unmarshal) goes through encoding/json.
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
// allocating only when dst is too small.
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

// LoadAdapter reconstructs a NAND chip from Save output.
func LoadAdapter(r io.Reader) (*Adapter, error) {
	var cf nandChipFile
	if err := json.NewDecoder(r).Decode(&cf); err != nil {
		return nil, fmt.Errorf("nand: decoding chip file: %w", err)
	}
	if cf.Format != nandChipFormat {
		return nil, fmt.Errorf("nand: not a NAND chip file (format %q)", cf.Format)
	}
	if cf.Version != nandChipVersion {
		return nil, fmt.Errorf("nand: unsupported chip file version %d", cf.Version)
	}
	d, err := NewDevice(cf.Geometry, cf.Timing, cf.Params, cf.Seed)
	if err != nil {
		return nil, err
	}
	b64, err := chipArrayBytes(cf.Array)
	if err != nil {
		return nil, fmt.Errorf("nand: decoding chip file: %w", err)
	}
	raw, err := decodeChipArray(b64, nil)
	if err != nil {
		return nil, fmt.Errorf("nand: decoding array payload: %w", err)
	}
	// As in mcu.Load: reject a mismatched array header before the
	// per-cell allocation, since chip files are untrusted input.
	headGeom, err := nor.ArrayGeometry(raw)
	if err != nil {
		return nil, err
	}
	if headGeom != d.cells.Geometry() {
		return nil, fmt.Errorf("nand: chip file array geometry %+v does not match %+v", headGeom, d.cells.Geometry())
	}
	arr, err := nor.UnmarshalArray(raw)
	if err != nil {
		return nil, err
	}
	d.cells = arr
	if len(cf.NextPage) != cf.Geometry.Blocks {
		return nil, fmt.Errorf("nand: chip file has %d page cursors for %d blocks", len(cf.NextPage), cf.Geometry.Blocks)
	}
	for block, p := range cf.NextPage {
		if p < 0 || p > cf.Geometry.PagesPerBlock {
			return nil, fmt.Errorf("nand: chip file page cursor %d of block %d out of range", p, block)
		}
	}
	copy(d.nextPage, cf.NextPage)
	return Adapt(d), nil
}

// Loader reconstructs NAND chips from Save output, recycling the JSON
// envelope, the binary array form, the cell array, the page-cursor
// slice and the adapter's page-fetch buffers across loads — the NAND
// counterpart of mcu.Loader. The zero value is ready. A Loader is not
// safe for concurrent use, and the adapter it returns aliases the
// loader's storage: the next Load invalidates every previously returned
// adapter.
type Loader struct {
	cf       nandChipFile
	bin      []byte
	arr      *nor.Array
	nextPage []int
	fetch    pageFetch
}

// Load reconstructs a NAND chip from the serialized chip file. It
// performs the same validation as LoadAdapter, in the same order,
// but decodes strictly from the byte slice and reuses the loader's
// buffers instead of allocating a fresh cell array per call.
func (l *Loader) Load(data []byte) (*Adapter, error) {
	// Reset the envelope but keep the Array and NextPage capacity:
	// RawMessage and slice decoding both append into the existing
	// backing store.
	l.cf = nandChipFile{Array: l.cf.Array[:0], NextPage: l.cf.NextPage[:0]}
	if err := json.Unmarshal(data, &l.cf); err != nil {
		return nil, fmt.Errorf("nand: decoding chip file: %w", err)
	}
	cf := &l.cf
	if cf.Format != nandChipFormat {
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
	b64, err := chipArrayBytes(cf.Array)
	if err != nil {
		return nil, fmt.Errorf("nand: decoding chip file: %w", err)
	}
	bin, err := decodeChipArray(b64, l.bin)
	if err != nil {
		return nil, fmt.Errorf("nand: decoding array payload: %w", err)
	}
	l.bin = bin[:0]
	headGeom, err := nor.ArrayGeometry(bin)
	if err != nil {
		return nil, err
	}
	if want := norGeomFor(cf.Geometry); headGeom != want {
		return nil, fmt.Errorf("nand: chip file array geometry %+v does not match %+v", headGeom, want)
	}
	arr, err := nor.UnmarshalArrayInto(l.arr, bin)
	if err != nil {
		return nil, err
	}
	l.arr = arr
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
	a := Adapt(newDevice(cf.Geometry, cf.Timing, cf.Params, cf.Seed, model, arr, next))
	// The page-fetch buffers are recycled too, but the previous chip's
	// page classification must not carry over to this one.
	l.fetch.classified = false
	a.fetch = &l.fetch
	return a, nil
}

// Interface conformance (device.Device plus the wear capability; NAND
// models neither aging, temperature, traces, nor partial programs yet).
var (
	_ device.Device        = (*Adapter)(nil)
	_ device.WearInspector = (*Adapter)(nil)
	_ device.AdaptiveMaxer = blockCells{}
)
