package nand

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/floatgate"
)

// Differential test of the adapter's lazy page reads against the eager
// reference: twin adapters run one op sequence, the lazy twin reads
// through Adapter.ReadWord, the reference twin through eagerWords (the
// served-once word cache over ReadPageInto the adapter used before its
// reads turned lazy), and every returned word, the next noise draw, the
// virtual clock and the ledger must match after every step.

// eagerWords is the reference word reader: the adapter's served-once
// cache semantics, filled by ReadPageInto, which decides every cell of a
// page on each fetch.
type eagerWords struct {
	a           *Adapter
	block, page int
	cache       []byte
	served      []bool
}

func newEagerWords(a *Adapter) *eagerWords { return &eagerWords{a: a, block: -1, page: -1} }

// invalidate mirrors Adapter.invalidate: every adapter op that changes
// cells drops the cached page.
func (e *eagerWords) invalidate() { e.block, e.page = -1, -1 }

func (e *eagerWords) readWord(addr int) (uint64, error) {
	geom := e.a.Geometry()
	block, err := geom.SegmentOfAddr(addr)
	if err != nil {
		return 0, err
	}
	word := (addr - block*geom.SegmentBytes) / geom.WordBytes
	wordsPerPage := e.a.d.geom.PageBytes / geom.WordBytes
	page, inPage := word/wordsPerPage, word%wordsPerPage
	if e.block != block || e.page != page || e.served[inPage] {
		data, err := e.a.d.ReadPageInto(block, page, e.cache[:0])
		if err != nil {
			e.invalidate()
			return 0, err
		}
		e.block, e.page, e.cache = block, page, data
		e.served = make([]bool, wordsPerPage)
	}
	e.served[inPage] = true
	return uint64(e.cache[2*inPage]) | uint64(e.cache[2*inPage+1])<<8, nil
}

// intSource yields the op sequence's choices: a seeded generator for the
// differential test, the fuzzer's bytes for the fuzz target.
type intSource interface{ Intn(n int) int }

// byteSource reads choices from fuzz input; once the bytes run out every
// choice is 0 and done reports true.
type byteSource struct {
	data []byte
	pos  int
}

func (b *byteSource) Intn(n int) int {
	if b.pos >= len(b.data) {
		b.pos++
		return 0
	}
	v := int(b.data[b.pos])
	b.pos++
	return v % n
}

func (b *byteSource) done() bool { return b.pos >= len(b.data) }

// lazyEagerTwins runs ops steps of a random sequence of erases, block and
// in-order page programs, partial erases at several pulses (also issued
// on the device behind the adapter), stresses and adaptive erases, mixed
// with read passes (sequential, 3-read majority, random word order,
// back-to-back re-reads), on a lazy and a reference adapter over twin
// devices. stop, when non-nil, ends the sequence early.
func lazyEagerTwins(t *testing.T, geom Geometry, seed uint64, src intSource, ops int, stop func() bool) {
	t.Helper()
	build := func() *Adapter {
		d, err := NewDevice(geom, SLCTiming(), floatgate.DefaultParams(), seed)
		if err != nil {
			t.Fatal(err)
		}
		return Adapt(d)
	}
	lazy, ref := build(), build()
	eager := newEagerWords(ref)
	ng := lazy.Geometry()
	words := ng.WordsPerSegment()
	pulses := []time.Duration{0, 15 * time.Microsecond, 21 * time.Microsecond, 24 * time.Microsecond,
		25 * time.Microsecond, 27 * time.Microsecond, 32 * time.Microsecond, 3 * time.Millisecond}

	check := func(op int) {
		t.Helper()
		if lc, rc := lazy.Clock().Now(), ref.Clock().Now(); lc != rc {
			t.Fatalf("op %d: clock lazy=%v eager=%v", op, lc, rc)
		}
		if ll, rl := lazy.Ledger().String(), ref.Ledger().String(); ll != rl {
			t.Fatalf("op %d: ledger lazy=%s eager=%s", op, ll, rl)
		}
	}
	lastRead := 0
	read := func(op int, what string, addr int) {
		t.Helper()
		lastRead = addr
		lv, lerr := lazy.ReadWord(addr)
		rv, rerr := eager.readWord(addr)
		if (lerr == nil) != (rerr == nil) || lv != rv {
			t.Fatalf("op %d (%s): word at %#x lazy=%#x (%v) eager=%#x (%v)", op, what, addr, lv, lerr, rv, rerr)
		}
	}
	// mutated follows every op that may change cells: half the time the
	// word read last is read again, so the first fetch after the change
	// often hits the page the lazy reader classified before it.
	mutated := func(op int, what string) {
		t.Helper()
		if src.Intn(2) == 0 {
			read(op, "re-read after "+what, lastRead)
		}
	}
	// both applies one mutating adapter op to each twin; the reference
	// reader drops its page as the adapter does.
	both := func(op int, what string, f func(a *Adapter) error) {
		t.Helper()
		le, re := f(lazy), f(ref)
		eager.invalidate()
		if (le == nil) != (re == nil) {
			t.Fatalf("op %d (%s): lazy err %v, eager err %v", op, what, le, re)
		}
		mutated(op, what)
	}
	randomWords := func() []uint64 {
		v := make([]uint64, words)
		for i := range v {
			v[i] = uint64(src.Intn(256)) | uint64(src.Intn(256))<<8
		}
		return v
	}

	for op := 0; op < ops && (stop == nil || !stop()); op++ {
		block := src.Intn(geom.Blocks)
		addr := block * ng.SegmentBytes
		switch src.Intn(13) {
		case 0:
			both(op, "erase", func(a *Adapter) error { return a.EraseSegment(addr) })
		case 1:
			var got [2]time.Duration
			for i, a := range []*Adapter{lazy, ref} {
				p, err := a.EraseSegmentAdaptive(addr)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = p
			}
			eager.invalidate()
			if got[0] != got[1] {
				t.Fatalf("op %d: adaptive pulse lazy=%v eager=%v", op, got[0], got[1])
			}
			mutated(op, "adaptive erase")
		case 2:
			// Erase, program all zeros, partial erase: the extraction round.
			pulse := pulses[src.Intn(len(pulses))]
			both(op, "round", func(a *Adapter) error {
				if err := a.EraseSegment(addr); err != nil {
					return err
				}
				if err := a.ProgramBlock(addr, make([]uint64, words)); err != nil {
					return err
				}
				return a.PartialEraseSegment(addr, pulse)
			})
		case 3:
			values := randomWords()
			both(op, "program", func(a *Adapter) error {
				if err := a.EraseSegment(addr); err != nil {
					return err
				}
				return a.ProgramBlock(addr, values)
			})
		case 4:
			pulse := pulses[src.Intn(len(pulses))]
			both(op, "partial erase", func(a *Adapter) error { return a.PartialEraseSegment(addr, pulse) })
		case 5:
			values := randomWords()
			n, adaptive := 1+src.Intn(20000), src.Intn(2) == 1
			both(op, "stress", func(a *Adapter) error { return a.StressSegmentWords(addr, values, n, adaptive) })
		case 6:
			// A partial erase straight on the device, behind the adapter's
			// back: the adapter keeps its page, but a re-fetch must see the
			// new margins.
			pulse := pulses[1+src.Intn(len(pulses)-2)]
			if e1, e2 := lazy.d.PartialEraseBlock(block, pulse), ref.d.PartialEraseBlock(block, pulse); e1 != nil || e2 != nil {
				t.Fatal(e1, e2)
			}
			mutated(op, "device partial erase")
		case 7:
			for w := 0; w < words; w++ {
				read(op, "sequential", addr+w*ng.WordBytes)
			}
		case 8:
			for w := 0; w < words; w++ {
				for r := 0; r < 3; r++ {
					read(op, "majority", addr+w*ng.WordBytes)
				}
			}
		case 9:
			for i := 0; i < min(words, 256); i++ {
				read(op, "random order", src.Intn(geom.Blocks)*ng.SegmentBytes+src.Intn(words)*ng.WordBytes)
			}
		case 10:
			a := addr + src.Intn(words)*ng.WordBytes
			for r := 1 + src.Intn(6); r > 0; r-- {
				read(op, "re-read", a)
			}
		case 11:
			if ln, rn := lazy.d.noise.Float64(), ref.d.noise.Float64(); math.Float64bits(ln) != math.Float64bits(rn) {
				t.Fatalf("op %d: next noise draw lazy=%v eager=%v", op, ln, rn)
			}
		case 12:
			// Program the block's next page in order, without an erase.
			page := lazy.d.nextPage[block]
			if page == geom.PagesPerBlock {
				break
			}
			wordsPerPage := geom.PageBytes / ng.WordBytes
			values := randomWords()[:wordsPerPage]
			// Read the still-erased page first, so the re-read after the
			// program may find its old classification.
			read(op, "before program", addr+page*geom.PageBytes+src.Intn(wordsPerPage)*ng.WordBytes)
			both(op, "program next page", func(a *Adapter) error {
				return a.ProgramBlock(addr+page*geom.PageBytes, values)
			})
		}
		check(op)
	}
	if ln, rn := lazy.d.noise.Float64(), ref.d.noise.Float64(); math.Float64bits(ln) != math.Float64bits(rn) {
		t.Fatalf("final noise draw lazy=%v eager=%v", ln, rn)
	}
}

// smallPages keeps the eager reference cheap: 512-cell pages.
var smallPages = Geometry{Blocks: 3, PagesPerBlock: 4, PageBytes: 64}

func TestLazyPageReadMatchesEager(t *testing.T) {
	for _, seed := range []uint64{0x1A2, 0x1A3, 0x1A4, 0x1A5} {
		lazyEagerTwins(t, smallPages, seed, rand.New(rand.NewSource(int64(seed))), 300, nil)
	}
	if testing.Short() {
		return
	}
	// One run at the shipped geometry (4,096-cell pages, 2,048-word
	// blocks), with fewer steps.
	lazyEagerTwins(t, SmallNAND(), 0x1A6, rand.New(rand.NewSource(0x1A6)), 24, nil)
}

func FuzzLazyPageRead(f *testing.F) {
	f.Add(uint64(1), []byte{2, 0, 3, 2, 8, 0, 10, 1, 4, 1, 2, 0, 7, 0, 9, 0, 11, 0})
	f.Add(uint64(7), []byte{0, 5, 5, 1, 33, 1, 8, 1, 1, 2, 8, 2, 6, 0, 3, 8, 0, 10, 1})
	f.Add(uint64(9), []byte{2, 1, 6, 6, 0, 2, 8, 0, 1, 0, 8, 0, 11})
	f.Fuzz(func(t *testing.T, seed uint64, choices []byte) {
		if len(choices) > 256 {
			choices = choices[:256]
		}
		src := &byteSource{data: choices}
		lazyEagerTwins(t, smallPages, seed, src, 64, src.done)
	})
}

// TestLoaderRecyclesPageFetch: a Loader hands each chip it loads the
// same page-fetch buffers. Chips loaded back to back and driven through
// the same ops reach the same margin generation on the same page, so a
// classification carried over from the previous chip would be reused;
// every read must instead match a twin loaded on its own.
func TestLoaderRecyclesPageFetch(t *testing.T) {
	var l Loader
	for _, seed := range []uint64{0x2B1, 0x2B2, 0x2B3} {
		var buf bytes.Buffer
		if err := Adapt(newNAND(t, seed)).Save(&buf); err != nil {
			t.Fatal(err)
		}
		recycled, err := l.Load(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := LoadAdapter(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		words := recycled.Geometry().WordsPerSegment()
		for _, a := range []*Adapter{recycled, fresh} {
			if err := a.EraseSegment(0); err != nil {
				t.Fatal(err)
			}
			if err := a.ProgramBlock(0, make([]uint64, words)); err != nil {
				t.Fatal(err)
			}
			if err := a.PartialEraseSegment(0, 25*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		// A majority read of the first page's first words: each chip
		// ends, and the next one starts, on page 0 at the same gen.
		for w := 0; w < 32; w++ {
			for r := 0; r < 3; r++ {
				got, gerr := recycled.ReadWord(2 * w)
				want, werr := fresh.ReadWord(2 * w)
				if gerr != nil || werr != nil || got != want {
					t.Fatalf("seed %#x word %d: recycled loader read %#x (%v), fresh load %#x (%v)",
						seed, w, got, gerr, want, werr)
				}
			}
		}
		if g, w := recycled.d.noise.Float64(), fresh.d.noise.Float64(); g != w {
			t.Fatalf("seed %#x: next noise draw %v, fresh load %v", seed, g, w)
		}
	}
}
