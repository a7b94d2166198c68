package nand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
)

// Differential fuzz of the NAND batched physics (the blocks' deferral
// engines, the per-block base cache, the pruned adaptive max) against
// the per-cell reference loops: twin devices run one seeded-random op
// sequence and every observable — adaptive pulses, page reads, final
// margins and wear to the bit, virtual time — must match. Stress ops
// carry blocks to imprint wear, so partial erases meet both the
// die-sort wear whose margins the fast path pins and the watermark wear
// where it pins none. Reads and adaptive pulses are compared op by op,
// which pins the noise-stream position; margins only now and then,
// because the comparison flushes the engines, and comparing after every
// op would keep deferred cells from ever meeting a later pulse,
// program, erase, stress or adaptive erase.

func twinNANDs(t *testing.T, seed uint64) (fast, ref *Device) {
	t.Helper()
	build := func() *Device {
		d, err := NewDevice(SmallNAND(), SLCTiming(), floatgate.DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fast, ref = build(), build()
	if fast.physRef {
		t.Fatal("fast path is not the default")
	}
	ref.physRef = true
	return fast, ref
}

// compareCells asserts bit-identical margins and wear over cells
// [from, to) of the twins. It reads through array(), which
// materializes every deferred margin, so it sees final state.
func compareCells(t *testing.T, fast, ref *Device, from, to int) {
	t.Helper()
	fa, ra := fast.array(), ref.array()
	for i := from; i < to; i++ {
		fm, rm := fa.Margin(i), ra.Margin(i)
		if math.Float64bits(fm) != math.Float64bits(rm) {
			t.Fatalf("cell %d margin fast=%v ref=%v", i, fm, rm)
		}
		fw, rw := fa.Wear(i), ra.Wear(i)
		if math.Float64bits(fw) != math.Float64bits(rw) {
			t.Fatalf("cell %d wear fast=%v ref=%v", i, fw, rw)
		}
	}
}

// stressBlock fast-forwards n imprint cycles over a block with the
// shared stress kernel, as Adapter.StressSegmentWords does; it charges
// no time, which the twins would pay alike.
func stressBlock(d *Device, block int, one func(i int) bool, n int) {
	cells := d.geom.CellsPerBlock()
	device.ApplyStress(blockCells{d: d, block: block, base: block * cells, cells: cells}, one, n, device.StressWear{
		FullWear:  d.model.EraseWear(true),
		EraseOnly: d.model.EraseWear(false),
		Program:   d.model.ProgramWear(),
	})
	d.nextPage[block] = d.geom.PagesPerBlock
}

func TestNANDFastPathMatchesReference(t *testing.T) {
	for _, seed := range []uint64{0x4E1, 0x4E2, 0x4E3} {
		fast, ref := twinNANDs(t, seed)
		geom := fast.Geometry()
		rnd := rand.New(rand.NewSource(int64(seed)))

		page := make([]byte, geom.PageBytes)
		const ops = 250
		for op := 0; op < ops; op++ {
			block := rnd.Intn(geom.Blocks)
			switch rnd.Intn(7) {
			case 0:
				if e1, e2 := fast.EraseBlock(block), ref.EraseBlock(block); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
			case 1:
				d1, e1 := fast.EraseBlockAdaptive(block)
				d2, e2 := ref.EraseBlockAdaptive(block)
				if e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
				if d1 != d2 {
					t.Fatalf("op %d: adaptive pulse fast=%v ref=%v", op, d1, d2)
				}
			case 2, 3:
				pulse := time.Duration(5+rnd.Float64()*35) * time.Microsecond
				if e1, e2 := fast.PartialEraseBlock(block, pulse), ref.PartialEraseBlock(block, pulse); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
			case 4:
				// Fill in-order pages after a fresh erase (NAND discipline).
				if e1, e2 := fast.EraseBlock(block), ref.EraseBlock(block); e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
				pages := 1 + rnd.Intn(geom.PagesPerBlock)
				for p := 0; p < pages; p++ {
					for i := range page {
						page[i] = byte(rnd.Intn(256))
					}
					if e1, e2 := fast.ProgramPage(block, p, page), ref.ProgramPage(block, p, page); e1 != nil || e2 != nil {
						t.Fatal(e1, e2)
					}
				}
			case 5:
				p := rnd.Intn(geom.PagesPerBlock)
				d1, e1 := fast.ReadPage(block, p)
				d2, e2 := ref.ReadPage(block, p)
				if e1 != nil || e2 != nil {
					t.Fatal(e1, e2)
				}
				for i := range d1 {
					if d1[i] != d2[i] {
						t.Fatalf("op %d: page byte %d fast=%#x ref=%#x", op, i, d1[i], d2[i])
					}
				}
			case 6:
				// Imprint-scale stress, up to the factory's 80,000
				// cycles: later partial erases meet watermark wear as
				// well as die-sort wear.
				n := 1 + rnd.Intn(80_000)
				pattern := make([]bool, geom.CellsPerBlock())
				for i := range pattern {
					pattern[i] = rnd.Intn(2) == 0
				}
				one := func(i int) bool { return pattern[i] }
				stressBlock(fast, block, one, n)
				stressBlock(ref, block, one, n)
			}
			// A later erase discards margins, and a read rarely shows a
			// one-ulp slip, so compare them now and then.
			if op%41 == 40 {
				compareCells(t, fast, ref, 0, geom.Blocks*geom.CellsPerBlock())
			}
		}
		// Final state to the bit.
		compareCells(t, fast, ref, 0, geom.Blocks*geom.CellsPerBlock())
		if fast.Clock().Now() != ref.Clock().Now() {
			t.Fatalf("virtual time diverged: fast=%v ref=%v", fast.Clock().Now(), ref.Clock().Now())
		}
	}
}

// TestNANDFreshBlockPinsMargins: the recycling screen's measurement on a
// fresh block — erase, program every page to zeros, a 25 µs partial
// erase — pins nearly every margin from its wear group's quantile grid,
// so the block's engine defers almost none, and stores exactly the
// reference margins.
func TestNANDFreshBlockPinsMargins(t *testing.T) {
	fast, ref := twinNANDs(t, 0x4E9)
	geom := fast.Geometry()
	const block = 2
	const pulseUs = 25
	zeros := make([]byte, geom.PageBytes)
	for _, d := range []*Device{fast, ref} {
		if err := d.EraseBlock(block); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < geom.PagesPerBlock; p++ {
			if err := d.ProgramPage(block, p, zeros); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.PartialEraseBlock(block, pulseUs*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	cells := geom.CellsPerBlock()
	// Before any read, the engine has evaluated grid quantiles only.
	st := fast.deferred[block].Stats()
	pinned, grid := cells-st.Deferred, st.Quantiles
	compareCells(t, fast, ref, block*cells, (block+1)*cells)

	t.Logf("%d of %d margins pinned, %d grid quantiles", pinned, cells, grid)
	if pinned < cells*99/100 {
		t.Errorf("%d of %d margins pinned, want at least 99%%", pinned, cells)
	}
	if grid > floatgate.PinGridPoints {
		t.Errorf("%d grid quantiles for %d grid points", grid, floatgate.PinGridPoints)
	}
}

// TestSaveFlushesDeferredMargins: a chip saved right after a partial
// erase of a worn block, while its engine holds deferred margins, must
// reload to the reference margins: Save materializes every deferral,
// so no tag reaches a chip file.
func TestSaveFlushesDeferredMargins(t *testing.T) {
	fast, ref := twinNANDs(t, 0x4EA)
	geom := fast.Geometry()
	const block = 1
	pattern := func(i int) bool { return i%3 == 0 }
	for _, d := range []*Device{fast, ref} {
		stressBlock(d, block, pattern, 40_000)
		if err := d.PartialEraseBlock(block, 25*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if live := fast.deferred[block].Live(); live == 0 {
		t.Fatal("the partial erase deferred no margin: the test checks nothing")
	}
	var buf bytes.Buffer
	if err := Adapt(fast).Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAdapter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	compareCells(t, back.d, ref, 0, geom.Blocks*geom.CellsPerBlock())
}
