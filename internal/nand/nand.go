// Package nand models a NAND flash device and carries Flashmark over to
// it, substantiating the paper's concluding claim (§VI): "the proposed
// method is applicable broadly to NOR and NAND flash memories."
//
// NAND differs from NOR in organization and discipline, not in cell
// physics: cells are erased a *block* at a time and programmed a *page*
// at a time, pages within a block must be programmed in order, and a page
// cannot be reprogrammed without erasing its whole block. The floating-
// gate wear physics (package floatgate) is shared; the imprint stresses a
// reserved block and the extraction uses a partial *block* erase.
package nand

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/rng"
	"github.com/flashmark/flashmark/internal/vclock"
)

// Geometry describes a NAND array.
type Geometry struct {
	Blocks        int // erase units
	PagesPerBlock int // program/read units per block
	PageBytes     int // bytes per page
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	switch {
	case g.Blocks <= 0 || g.PagesPerBlock <= 0 || g.PageBytes <= 0:
		return fmt.Errorf("nand: geometry fields must be positive: %+v", g)
	case g.PageBytes%2 != 0:
		return fmt.Errorf("nand: page size %d must be even", g.PageBytes)
	}
	// Same cap as nor.Geometry: host state is ~100x the flash size, and
	// serialized geometries arrive from untrusted chip files.
	total := int64(g.Blocks) * int64(g.PagesPerBlock) * int64(g.PageBytes)
	if total > 4<<20 {
		return fmt.Errorf("nand: geometry of %d bytes exceeds the supported maximum", total)
	}
	return nil
}

// BlockBytes returns the bytes per block.
func (g Geometry) BlockBytes() int { return g.PagesPerBlock * g.PageBytes }

// CellsPerBlock returns the bit cells per block.
func (g Geometry) CellsPerBlock() int { return g.BlockBytes() * 8 }

// CellsPerPage returns the bit cells per page.
func (g Geometry) CellsPerPage() int { return g.PageBytes * 8 }

// SmallNAND returns a compact SLC NAND geometry for simulation:
// 8 blocks x 8 pages x 512 B.
func SmallNAND() Geometry {
	return Geometry{Blocks: 8, PagesPerBlock: 8, PageBytes: 512}
}

// Timing holds NAND operation durations (SLC-class part).
type Timing struct {
	BlockErase          time.Duration // nominal block erase (~2 ms)
	PageProgram         time.Duration // page program (~300 µs)
	PageRead            time.Duration // page read to host (~25 µs)
	OpSetup             time.Duration
	AdaptiveEraseSettle time.Duration
}

// SLCTiming returns typical SLC NAND timings.
func SLCTiming() Timing {
	return Timing{
		BlockErase:          2 * time.Millisecond,
		PageProgram:         300 * time.Microsecond,
		PageRead:            25 * time.Microsecond,
		OpSetup:             10 * time.Microsecond,
		AdaptiveEraseSettle: 20 * time.Microsecond,
	}
}

// Validate reports whether all durations are positive.
func (t Timing) Validate() error {
	for _, d := range []time.Duration{t.BlockErase, t.PageProgram, t.PageRead, t.OpSetup, t.AdaptiveEraseSettle} {
		if d <= 0 {
			return fmt.Errorf("nand: all timings must be positive: %+v", t)
		}
	}
	return nil
}

// Device is one simulated NAND chip. Cell state reuses the nor.Array
// store (margins + wear per cell) with one "segment" per NAND block.
type Device struct {
	geom   Geometry
	timing Timing
	params floatgate.Params
	seed   uint64
	model  *floatgate.Model
	cells  *nor.Array
	clock  *vclock.Clock
	ledger *vclock.Ledger
	noise  *rng.Stream
	// nextPage tracks the sequential-programming cursor per block;
	// a value of PagesPerBlock means the block is full.
	nextPage []int
	// gen counts the operations that may have changed a cell margin; a
	// pageFetch's cell classification is valid only at the gen it was
	// built at.
	gen uint64

	// Batched physics state (fastphys.go). bases/uorder cache the
	// immutable per-cell parameters per block for the adaptive-erase max
	// (a partial erase reuses bases if present); the scratch slices keep
	// steady-state batched ops allocation-free. physRef selects the
	// per-cell reference loops instead (newDevice copies
	// referencePhysics).
	physRef    bool
	bases      [][]floatgate.CellBase
	uorder     [][]int32
	maxScratch floatgate.MaxTauScratch
	gidScratch []int32
	wgScratch  []nandWearGroup
	peScratch  []peGroup
}

// norGeomFor maps a NAND geometry onto the nor.Array cell store: one
// "segment" per block, 16-bit words.
func norGeomFor(geom Geometry) nor.Geometry {
	return nor.Geometry{
		Banks:           1,
		SegmentsPerBank: geom.Blocks,
		SegmentBytes:    geom.BlockBytes(),
		WordBytes:       2,
	}
}

// referencePhysics is the physics path newDevice gives a device:
// false, the batched fast path, in every build. Only export_test.go sets
// it, so the equivalence oracles can run devices that experiment builds
// internally on the per-cell reference loops.
var referencePhysics bool

// newDevice assembles a Device from already-validated parts. Callers
// own validation and the cell store: NewDevice allocates fresh state,
// while Loader.Load supplies recycled cells and page cursors.
func newDevice(geom Geometry, timing Timing, params floatgate.Params, seed uint64,
	model *floatgate.Model, cells *nor.Array, nextPage []int) *Device {
	return &Device{
		geom:     geom,
		timing:   timing,
		params:   params,
		seed:     seed,
		model:    model,
		cells:    cells,
		clock:    &vclock.Clock{},
		ledger:   &vclock.Ledger{},
		noise:    rng.New(seed ^ 0x4E414E44),
		nextPage: nextPage,
		physRef:  referencePhysics,
	}
}

// NewDevice fabricates a NAND chip with the given physics and seed.
func NewDevice(geom Geometry, timing Timing, params floatgate.Params, seed uint64) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	model, err := floatgate.NewModel(params, seed)
	if err != nil {
		return nil, err
	}
	// One nor "segment" per block holds the cell state.
	arr, err := nor.NewArray(norGeomFor(geom))
	if err != nil {
		return nil, err
	}
	return newDevice(geom, timing, params, seed, model, arr, make([]int, geom.Blocks)), nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device's operation timings.
func (d *Device) Timing() Timing { return d.timing }

// Seed returns the chip seed (die identity).
func (d *Device) Seed() uint64 { return d.seed }

// Clock returns the device's virtual clock.
func (d *Device) Clock() *vclock.Clock { return d.clock }

// Ledger returns the device's time ledger.
func (d *Device) Ledger() *vclock.Ledger { return d.ledger }

func (d *Device) charge(class vclock.OpClass, dur time.Duration) {
	d.clock.Advance(d.ledger.Charge(class, dur))
}

func (d *Device) checkBlock(block int) error {
	if block < 0 || block >= d.geom.Blocks {
		return fmt.Errorf("nand: block %d outside device of %d blocks", block, d.geom.Blocks)
	}
	return nil
}

func (d *Device) cellIndex(block, page, bit int) int {
	return block*d.geom.CellsPerBlock() + page*d.geom.CellsPerPage() + bit
}

// EraseBlock erases a whole block (the only erase granularity NAND has).
func (d *Device) EraseBlock(block int) error {
	if err := d.checkBlock(block); err != nil {
		return err
	}
	d.eraseBlockCells(block)
	d.nextPage[block] = 0
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpErase, d.timing.BlockErase)
	return nil
}

func (d *Device) eraseBlockCells(block int) {
	d.gen++
	// One pass over the contiguous span; same EraseWear increments and
	// margin stores as the per-cell accessor loop.
	margins, wear := d.cells.CellSpan(block)
	fullWear := d.model.EraseWear(true)
	eraseOnly := d.model.EraseWear(false)
	for i := range margins {
		if margins[i] < 0 {
			wear[i] += fullWear
		} else {
			wear[i] += eraseOnly
		}
		margins[i] = nor.MarginErased
	}
}

// EraseBlockAdaptive erases a block but exits as soon as the slowest
// programmed cell has crossed (the accelerated imprint primitive).
func (d *Device) EraseBlockAdaptive(block int) (time.Duration, error) {
	if err := d.checkBlock(block); err != nil {
		return 0, err
	}
	maxTau := 0.0
	if !d.physRef {
		margins, wear := d.cells.CellSpan(block)
		maxTau, _ = d.maxTauOver(block,
			func(i int) bool { return margins[i] < 0 },
			func(i int) float64 { return wear[i] })
	} else {
		cells := d.geom.CellsPerBlock()
		base := block * cells
		for i := 0; i < cells; i++ {
			if !d.cells.Programmed(base + i) {
				continue
			}
			tau := d.model.TauAt(block, i, d.cells.Wear(base+i))
			if tau > maxTau {
				maxTau = tau
			}
		}
	}
	d.eraseBlockCells(block)
	d.nextPage[block] = 0
	pulse := time.Duration(maxTau*float64(time.Microsecond)) + d.timing.AdaptiveEraseSettle
	if pulse > d.timing.BlockErase {
		pulse = d.timing.BlockErase
	}
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpErase, pulse)
	return pulse, nil
}

// PartialEraseBlock starts a block erase and aborts it after the pulse —
// the extraction primitive, identical in spirit to the NOR partial
// segment erase.
func (d *Device) PartialEraseBlock(block int, pulse time.Duration) error {
	if err := d.checkBlock(block); err != nil {
		return err
	}
	if pulse < 0 {
		return fmt.Errorf("nand: negative pulse %v", pulse)
	}
	if pulse >= d.timing.BlockErase {
		return d.EraseBlock(block)
	}
	pulseUs := float64(pulse) / float64(time.Microsecond)
	d.gen++
	if !d.physRef {
		d.partialEraseBlockFast(block, pulseUs)
	} else {
		cells := d.geom.CellsPerBlock()
		base := block * cells
		for i := 0; i < cells; i++ {
			cell := base + i
			margin := d.cells.Margin(cell)
			wasProgrammed := margin < 0
			switch {
			case margin <= float64(nor.MarginProgrammed):
				tau := d.model.TauAt(block, i, d.cells.Wear(cell))
				d.cells.SetMargin(cell, pulseUs-tau)
			case margin >= float64(nor.MarginErased):
				// stays erased
			default:
				d.cells.SetMargin(cell, margin+pulseUs)
			}
			d.cells.AddWear(cell, d.model.EraseWear(wasProgrammed))
		}
	}
	// The aborted erase leaves the block logically dirty; require an
	// erase before further page programming.
	d.nextPage[block] = d.geom.PagesPerBlock
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpPartialErase, pulse)
	return nil
}

// ProgramPage programs one page. NAND discipline is enforced: pages of a
// block must be programmed strictly in order, and a page cannot be
// re-programmed without erasing the block first.
func (d *Device) ProgramPage(block, page int, data []byte) error {
	if err := d.checkBlock(block); err != nil {
		return err
	}
	if page < 0 || page >= d.geom.PagesPerBlock {
		return fmt.Errorf("nand: page %d outside block of %d pages", page, d.geom.PagesPerBlock)
	}
	if len(data) != d.geom.PageBytes {
		return fmt.Errorf("nand: page data is %d bytes, want %d", len(data), d.geom.PageBytes)
	}
	if page != d.nextPage[block] {
		return fmt.Errorf("nand: out-of-order program of page %d (next allowed %d); erase the block to rewind",
			page, d.nextPage[block])
	}
	d.gen++
	for byteIdx, b := range data {
		for bit := 0; bit < 8; bit++ {
			if b&(1<<uint(bit)) != 0 {
				continue
			}
			cell := d.cellIndex(block, page, byteIdx*8+bit)
			d.cells.AddWear(cell, d.model.ProgramWear())
			d.cells.SetMargin(cell, float64(nor.MarginProgrammed))
		}
	}
	d.nextPage[block] = page + 1
	d.charge(vclock.OpOverhead, d.timing.OpSetup)
	d.charge(vclock.OpProgram, d.timing.PageProgram)
	return nil
}

// ReadPage reads one page; metastable cells (after a partial erase)
// sample noisily per read.
func (d *Device) ReadPage(block, page int) ([]byte, error) {
	return d.ReadPageInto(block, page, nil)
}

// ReadPageInto reads one page into dst (reusing its capacity) and
// returns the filled slice — the allocation-free form of ReadPage.
// Cell decisions and noise-stream consumption are identical to ReadPage:
// only the output buffer management differs.
func (d *Device) ReadPageInto(block, page int, dst []byte) ([]byte, error) {
	if err := d.checkBlock(block); err != nil {
		return nil, err
	}
	if page < 0 || page >= d.geom.PagesPerBlock {
		return nil, fmt.Errorf("nand: page %d outside block of %d pages", page, d.geom.PagesPerBlock)
	}
	n := d.geom.PageBytes
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	margins, _ := d.cells.CellSpan(block)
	pageBase := page * d.geom.CellsPerPage()
	for byteIdx := range dst {
		var b byte
		for bit := 0; bit < 8; bit++ {
			margin := margins[pageBase+byteIdx*8+bit]
			var one bool
			switch {
			case margin >= nor.MarginErased:
				one = true
			case margin <= nor.MarginProgrammed:
				one = false
			default:
				one = d.model.SampleRead(float64(margin), d.noise)
			}
			if one {
				b |= 1 << uint(bit)
			}
		}
		dst[byteIdx] = b
	}
	d.charge(vclock.OpRead, d.timing.PageRead)
	return dst, nil
}

// pageFetch is one page read whose metastable cells are decided on
// demand. The fetch consumes the noise stream exactly as ReadPageInto
// does — one Float64 per cell within six sigma of its crossing, in page
// order — and keeps the draws; byteAt then applies ReadPageInto's
// comparison, draw < ReadOneProbability(margin), to the cells of the
// byte asked for. The read-one probability (an erfc) is the dominant
// cost of an eager read, and a majority read serves at most two words of
// each fetch, so only the served cells pay for it. Every returned bit,
// noise-stream position and clock charge is that of ReadPageInto.
//
// Which cells draw depends only on the page's margins, so the fetch
// also keeps that classification and reuses it while the device's
// margin generation is unchanged: a majority pass re-fetches each page
// once per re-read, and every re-fetch only draws.
type pageFetch struct {
	model *floatgate.Model
	// The classification's key: page and margin generation it was
	// built from.
	classified  bool
	block, page int
	gen         uint64

	fixed  []byte    // per page byte: the bits decided without noise
	noisy  []byte    // per page byte: the bits still to decide
	first  []int32   // per page byte: its first noisy cell's index in margin
	margin []float32 // per noisy cell, in page order
	draw   []float64 // per noisy cell, in page order: this fetch's draws
}

// fetchPage reads one page into f, deferring each metastable cell's
// decision to byteAt. Validation, stream consumption and the time charge
// are ReadPageInto's.
func (d *Device) fetchPage(block, page int, f *pageFetch) error {
	if err := d.checkBlock(block); err != nil {
		return err
	}
	if page < 0 || page >= d.geom.PagesPerBlock {
		return fmt.Errorf("nand: page %d outside block of %d pages", page, d.geom.PagesPerBlock)
	}
	if !f.classified || f.block != block || f.page != page || f.gen != d.gen {
		d.classifyPage(block, page, f)
	}
	for j := range f.draw {
		f.draw[j] = d.noise.Float64()
	}
	d.charge(vclock.OpRead, d.timing.PageRead)
	return nil
}

// classifyPage records which cells of a page read without noise (and
// their bits) and the margins of those that draw.
func (d *Device) classifyPage(block, page int, f *pageFetch) {
	n, cells := d.geom.PageBytes, d.geom.CellsPerPage()
	if cap(f.fixed) < n {
		f.fixed, f.noisy, f.first = make([]byte, n), make([]byte, n), make([]int32, n)
		f.margin, f.draw = make([]float32, 0, cells), make([]float64, 0, cells)
	}
	f.fixed, f.noisy, f.first = f.fixed[:n], f.noisy[:n], f.first[:n]
	f.margin = f.margin[:0]
	margins, _ := d.cells.CellSpan(block)
	span := margins[page*cells : (page+1)*cells]
	for byteIdx := 0; byteIdx < n; byteIdx++ {
		f.first[byteIdx] = int32(len(f.margin))
		var fixed, noisy byte
		for bit := 0; bit < 8; bit++ {
			m := span[byteIdx*8+bit]
			// The six-sigma band subsumes ReadPageInto's erased and
			// programmed sentinels, which lie far outside it.
			if one, ok := d.model.ReadDecided(float64(m)); ok {
				if one {
					fixed |= 1 << uint(bit)
				}
				continue
			}
			noisy |= 1 << uint(bit)
			f.margin = append(f.margin, m)
		}
		f.fixed[byteIdx], f.noisy[byteIdx] = fixed, noisy
	}
	f.draw = f.draw[:len(f.margin)]
	f.model, f.classified, f.block, f.page, f.gen = d.model, true, block, page, d.gen
}

// byteAt returns byte i of the fetched page, deciding its metastable
// cells from the fetch's draws: the value ReadPageInto returns for it.
func (f *pageFetch) byteAt(i int) byte {
	b := f.fixed[i]
	j := f.first[i]
	for noisy := f.noisy[i]; noisy != 0; noisy &= noisy - 1 {
		if f.draw[j] < f.model.ReadOneProbability(float64(f.margin[j])) {
			b |= 1 << uint(bits.TrailingZeros8(noisy))
		}
		j++
	}
	return b
}

// BlockWear returns min/mean/max wear across a block.
func (d *Device) BlockWear(block int) (minW, meanW, maxW float64, err error) {
	if err := d.checkBlock(block); err != nil {
		return 0, 0, 0, err
	}
	return d.cells.SegmentWearSummary(block)
}
