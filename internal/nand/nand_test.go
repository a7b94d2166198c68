package nand

import (
	"bytes"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/core"
	"github.com/flashmark/flashmark/internal/floatgate"
)

// wordsOf packs a byte watermark into the adapter's 16-bit word view.
func wordsOf(wm []byte) []uint64 {
	out := make([]uint64, len(wm)/2)
	for i := range out {
		out[i] = uint64(wm[2*i]) | uint64(wm[2*i+1])<<8
	}
	return out
}

// ones counts 1 bits in a page image.
func ones(data []byte) int {
	n := 0
	for _, b := range data {
		for ; b != 0; b &= b - 1 {
			n++
		}
	}
	return n
}

func newNAND(t *testing.T, seed uint64) *Device {
	t.Helper()
	d, err := NewDevice(SmallNAND(), SLCTiming(), floatgate.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometryValidate(t *testing.T) {
	if err := SmallNAND().Validate(); err != nil {
		t.Fatalf("SmallNAND invalid: %v", err)
	}
	bad := []Geometry{
		{Blocks: 0, PagesPerBlock: 8, PageBytes: 512},
		{Blocks: 8, PagesPerBlock: 0, PageBytes: 512},
		{Blocks: 8, PagesPerBlock: 8, PageBytes: 0},
		{Blocks: 8, PagesPerBlock: 8, PageBytes: 511},
		{Blocks: 1 << 20, PagesPerBlock: 1 << 10, PageBytes: 1 << 12},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("invalid geometry %+v accepted", g)
		}
	}
}

func TestTimingValidate(t *testing.T) {
	if err := SLCTiming().Validate(); err != nil {
		t.Fatalf("SLC timing invalid: %v", err)
	}
	bad := SLCTiming()
	bad.PageProgram = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero PageProgram accepted")
	}
}

func TestNewDeviceRejectsBadInputs(t *testing.T) {
	if _, err := NewDevice(Geometry{}, SLCTiming(), floatgate.DefaultParams(), 1); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewDevice(SmallNAND(), Timing{}, floatgate.DefaultParams(), 1); err == nil {
		t.Error("bad timing accepted")
	}
	p := floatgate.DefaultParams()
	p.ReadNoiseSigmaUs = 0
	if _, err := NewDevice(SmallNAND(), SLCTiming(), p, 1); err == nil {
		t.Error("bad params accepted")
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := newNAND(t, 1)
	data := make([]byte, d.Geometry().PageBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := d.ProgramPage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("page round trip failed")
	}
	// Other pages untouched: all 0xFF.
	got, err = d.ReadPage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0xFF {
			t.Fatalf("untouched page byte = %#x", b)
		}
	}
}

func TestSequentialPageDiscipline(t *testing.T) {
	d := newNAND(t, 2)
	zeros := make([]byte, d.Geometry().PageBytes)
	// Page 1 before page 0: rejected.
	if err := d.ProgramPage(0, 1, zeros); err == nil {
		t.Fatal("out-of-order program accepted")
	}
	if err := d.ProgramPage(0, 0, zeros); err != nil {
		t.Fatal(err)
	}
	// Re-programming page 0 without erase: rejected.
	if err := d.ProgramPage(0, 0, zeros); err == nil {
		t.Fatal("page rewrite without erase accepted")
	}
	if err := d.ProgramPage(0, 1, zeros); err != nil {
		t.Fatal(err)
	}
	// Erase rewinds the cursor.
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(0, 0, zeros); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestProgramValidation(t *testing.T) {
	d := newNAND(t, 3)
	zeros := make([]byte, d.Geometry().PageBytes)
	if err := d.ProgramPage(-1, 0, zeros); err == nil {
		t.Error("negative block accepted")
	}
	if err := d.ProgramPage(0, 99, zeros); err == nil {
		t.Error("out-of-range page accepted")
	}
	if err := d.ProgramPage(0, 0, zeros[:10]); err == nil {
		t.Error("short page data accepted")
	}
	if _, err := d.ReadPage(99, 0); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := d.EraseBlock(99); err == nil {
		t.Error("out-of-range erase accepted")
	}
	if err := d.PartialEraseBlock(0, -time.Microsecond); err == nil {
		t.Error("negative pulse accepted")
	}
}

func TestPartialEraseBlockSweep(t *testing.T) {
	d := newNAND(t, 4)
	geom := d.Geometry()
	zeros := make([]byte, geom.PageBytes)
	programAll := func() {
		if err := d.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < geom.PagesPerBlock; p++ {
			if err := d.ProgramPage(0, p, zeros); err != nil {
				t.Fatal(err)
			}
		}
	}
	countOnes := func() int {
		total := 0
		for p := 0; p < geom.PagesPerBlock; p++ {
			data, err := d.ReadPage(0, p)
			if err != nil {
				t.Fatal(err)
			}
			total += ones(data)
		}
		return total
	}
	programAll()
	if err := d.PartialEraseBlock(0, 5*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := countOnes(); got != 0 {
		t.Errorf("5µs pulse erased %d cells", got)
	}
	programAll()
	if err := d.PartialEraseBlock(0, 50*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := countOnes(); got != geom.CellsPerBlock() {
		t.Errorf("50µs pulse erased %d of %d cells", got, geom.CellsPerBlock())
	}
}

func TestPartialEraseRequiresEraseBeforeProgram(t *testing.T) {
	d := newNAND(t, 5)
	zeros := make([]byte, d.Geometry().PageBytes)
	if err := d.PartialEraseBlock(0, 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(0, 0, zeros); err == nil {
		t.Fatal("program into a dirty (aborted-erase) block accepted")
	}
}

func TestImprintExtractRoundTripNAND(t *testing.T) {
	// The §VI claim in action: the very same core procedures that drive
	// NOR segments drive NAND blocks through the adapter.
	a := Adapt(newNAND(t, 6))
	geom := a.Geometry()
	wm := make([]byte, geom.SegmentBytes)
	for i := range wm {
		wm[i] = "NAND FLASHMARK! "[i%16]
	}
	words := wordsOf(wm)
	if err := core.ImprintSegment(a, 0, words, core.ImprintOptions{NPE: 60_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	got, err := core.ExtractSegment(a, 0, core.ExtractOptions{TPEW: 24 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ber := core.BER(got, words, geom.WordBits())
	if ber > 0.15 {
		t.Fatalf("NAND extraction BER = %.3f", ber)
	}
}

func TestImprintFastForwardMatchesLiteral(t *testing.T) {
	a := Adapt(newNAND(t, 7))
	b := Adapt(newNAND(t, 7))
	geom := a.Geometry()
	wm := make([]byte, geom.SegmentBytes)
	for i := range wm {
		wm[i] = 0x5A
	}
	words := wordsOf(wm)
	const n = 30
	if err := core.ImprintSegment(a, 0, words, core.ImprintOptions{NPE: n, Literal: true}); err != nil {
		t.Fatal(err)
	}
	if err := core.ImprintSegment(b, 0, words, core.ImprintOptions{NPE: n}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if a.d.cells.Wear(i) != b.d.cells.Wear(i) {
			t.Fatalf("wear diverged at cell %d: %v vs %v", i, a.d.cells.Wear(i), b.d.cells.Wear(i))
		}
		if a.d.cells.Programmed(i) != b.d.cells.Programmed(i) {
			t.Fatalf("state diverged at cell %d", i)
		}
	}
	if a.Clock().Now() != b.Clock().Now() {
		t.Errorf("time diverged: literal %v vs fast %v", a.Clock().Now(), b.Clock().Now())
	}
}

func TestImprintValidation(t *testing.T) {
	a := Adapt(newNAND(t, 8))
	if err := core.ImprintSegment(a, 0, []uint64{1, 2}, core.ImprintOptions{NPE: 10}); err == nil {
		t.Error("short watermark accepted")
	}
	wm := make([]uint64, a.Geometry().WordsPerSegment())
	if err := core.ImprintSegment(a, 0, wm, core.ImprintOptions{NPE: -1}); err == nil {
		t.Error("negative NPE accepted")
	}
	if err := core.ImprintSegment(a, 1<<30, wm, core.ImprintOptions{NPE: 10}); err == nil {
		t.Error("bad address accepted")
	}
	if _, err := core.ExtractSegment(a, 0, core.ExtractOptions{}); err == nil {
		t.Error("zero tPEW accepted")
	}
}

func TestWatermarkSurvivesWipeNAND(t *testing.T) {
	a := Adapt(newNAND(t, 9))
	geom := a.Geometry()
	wm := make([]byte, geom.SegmentBytes)
	for i := range wm {
		wm[i] = byte(i)
	}
	words := wordsOf(wm)
	if err := core.ImprintSegment(a, 0, words, core.ImprintOptions{NPE: 80_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	// Counterfeiter wipes and rewrites.
	if err := a.d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	cover := make([]byte, a.d.Geometry().PageBytes)
	for i := range cover {
		cover[i] = 0xAA
	}
	if err := a.d.ProgramPage(0, 0, cover); err != nil {
		t.Fatal(err)
	}
	got, err := core.ExtractSegment(a, 0, core.ExtractOptions{TPEW: 24 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	ber := core.BER(got, words, geom.WordBits())
	if ber > 0.15 {
		t.Fatalf("watermark lost after wipe: BER %.3f", ber)
	}
}

func TestBlockWear(t *testing.T) {
	a := Adapt(newNAND(t, 10))
	geom := a.Geometry()
	wm := make([]uint64, geom.WordsPerSegment()) // all zeros: stress everything
	addr, err := geom.AddrOfSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.ImprintSegment(a, addr, wm, core.ImprintOptions{NPE: 1000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	_, mean, _, err := a.d.BlockWear(1)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 999 {
		t.Errorf("mean wear = %v after 1000 cycles", mean)
	}
	minW, _, maxW, err := a.d.BlockWear(0)
	if err != nil || minW != 0 || maxW != 0 {
		t.Errorf("untouched block wear %v..%v, %v", minW, maxW, err)
	}
	if _, _, _, err := a.d.BlockWear(99); err == nil {
		t.Error("bad block accepted")
	}
}

func TestAdapterSaveLoadRoundTrip(t *testing.T) {
	a := Adapt(newNAND(t, 12))
	words := make([]uint64, a.Geometry().WordsPerSegment())
	for i := range words {
		words[i] = uint64(i*37) & 0xFFFF
	}
	if err := core.ImprintSegment(a, 0, words, core.ImprintOptions{NPE: 60_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAdapter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Seed() != a.Seed() || b.Geometry() != a.Geometry() {
		t.Fatal("identity not preserved")
	}
	for i := 0; i < a.Geometry().CellsPerSegment(); i++ {
		if a.d.cells.Wear(i) != b.d.cells.Wear(i) || a.d.cells.Margin(i) != b.d.cells.Margin(i) {
			t.Fatalf("cell %d state not preserved", i)
		}
	}
	// The loaded chip extracts the same watermark (noise streams are
	// device-local, so compare against the original words).
	got, err := core.ExtractSegment(b, 0, core.ExtractOptions{TPEW: 24 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if ber := core.BER(got, words, 16); ber > 0.15 {
		t.Fatalf("reloaded chip BER = %.3f", ber)
	}
}

func TestAdapterProgramDiscipline(t *testing.T) {
	a := Adapt(newNAND(t, 13))
	geom := a.Geometry()
	wordsPerPage := a.d.Geometry().PageBytes / geom.WordBytes
	// A partial-page program is rejected.
	if err := a.ProgramBlock(0, make([]uint64, wordsPerPage-1)); err == nil {
		t.Error("partial-page program accepted")
	}
	// An unaligned whole-page program is rejected.
	if err := a.ProgramBlock(geom.WordBytes, make([]uint64, wordsPerPage)); err == nil {
		t.Error("unaligned program accepted")
	}
	// Whole pages in order work.
	if err := a.ProgramBlock(0, make([]uint64, geom.WordsPerSegment())); err != nil {
		t.Fatal(err)
	}
}

func TestAdapterReadWordSemantics(t *testing.T) {
	a := Adapt(newNAND(t, 14))
	geom := a.Geometry()
	pattern := make([]uint64, geom.WordsPerSegment())
	for i := range pattern {
		pattern[i] = uint64(i*3) & 0xFFFF
	}
	if err := a.ProgramBlock(0, pattern); err != nil {
		t.Fatal(err)
	}
	before := a.Ledger().Total()
	words, err := a.ReadSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if w != pattern[i] {
			t.Fatalf("word %d = %#x, want %#x", i, w, pattern[i])
		}
	}
	// One page fetch per page for the sequential pass.
	gotReads := a.Ledger().Total() - before
	want := time.Duration(a.d.Geometry().PagesPerBlock) * a.d.Timing().PageRead
	if gotReads != want {
		t.Errorf("sequential read charged %v, want %v (one fetch per page)", gotReads, want)
	}
	// Re-reading the same word refetches (independent noise samples).
	before = a.Ledger().Total()
	if _, err := a.ReadWord(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadWord(0); err != nil {
		t.Fatal(err)
	}
	if got := a.Ledger().Total() - before; got != 2*a.d.Timing().PageRead {
		t.Errorf("double read charged %v, want two page fetches", got)
	}
}

func TestNANDTimeAccounting(t *testing.T) {
	d := newNAND(t, 11)
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, d.Geometry().PageBytes)
	if err := d.ProgramPage(0, 0, zeros); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPage(0, 0); err != nil {
		t.Fatal(err)
	}
	want := SLCTiming().BlockErase + SLCTiming().PageProgram + SLCTiming().PageRead + 2*SLCTiming().OpSetup
	if d.Clock().Now() != want {
		t.Errorf("clock = %v, want %v", d.Clock().Now(), want)
	}
}

// TestLoaderMatchesLoadAdapter proves a warm Loader equals a fresh
// decode (a zero-value Loader, which is all LoadAdapter runs):
// identical reconstructed state across chips loaded back to back
// through one warm Loader, identical majority reads from the recycled
// page buffers that served the previous chip, and garbage stays
// rejected.
func TestLoaderMatchesLoadAdapter(t *testing.T) {
	imprinted := Adapt(newNAND(t, 21))
	words := make([]uint64, imprinted.Geometry().WordsPerSegment())
	for i := range words {
		words[i] = uint64(i*37) & 0xFFFF
	}
	if err := core.ImprintSegment(imprinted, 0, words, core.ImprintOptions{NPE: 60_000, Accelerated: true}); err != nil {
		t.Fatal(err)
	}
	partial := Adapt(newNAND(t, 22))
	if err := partial.ProgramBlock(0, make([]uint64, partial.d.Geometry().PageBytes/2)); err != nil {
		t.Fatal(err)
	}
	var l Loader
	for i, a := range []*Adapter{imprinted, partial, Adapt(newNAND(t, 23))} {
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			t.Fatalf("chip %d: %v", i, err)
		}
		got, err := l.Load(buf.Bytes())
		if err != nil {
			t.Fatalf("chip %d: %v", i, err)
		}
		want, err := new(Loader).Load(buf.Bytes())
		if err != nil {
			t.Fatalf("chip %d: %v", i, err)
		}
		if got.Seed() != want.Seed() || got.Geometry() != want.Geometry() {
			t.Fatalf("chip %d: identity diverges", i)
		}
		for c := 0; c < got.Geometry().TotalCells(); c++ {
			if got.d.cells.Margin(c) != want.d.cells.Margin(c) || got.d.cells.Wear(c) != want.d.cells.Wear(c) {
				t.Fatalf("chip %d: cell %d state diverges", i, c)
			}
		}
		for b := range got.d.nextPage {
			if got.d.nextPage[b] != want.d.nextPage[b] {
				t.Fatalf("chip %d: page cursor of block %d diverges: %d vs %d",
					i, b, got.d.nextPage[b], want.d.nextPage[b])
			}
		}
		var read [2][]uint64
		for j, a := range []*Adapter{got, want} {
			if err := a.EraseSegment(0); err != nil {
				t.Fatal(err)
			}
			if err := a.ProgramBlock(0, make([]uint64, len(words))); err != nil {
				t.Fatal(err)
			}
			if err := a.PartialEraseSegment(0, 22*time.Microsecond); err != nil {
				t.Fatal(err)
			}
			if read[j], _, _, err = core.AnalyzeSegment(a, 0, 3); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(read[0], read[1]) || got.d.noise.Float64() != want.d.noise.Float64() {
			t.Fatalf("chip %d: the warm Loader's adapter reads unlike a fresh load", i)
		}
	}
	for i, c := range []string{
		"",
		"not json",
		`{"format":"other","version":1}`,
		`{"format":"flashmark-nand-chip","version":99}`,
		`{"format":"flashmark-nand-chip","version":1,"geometry":{"Blocks":-1}}`,
		`{"format":"flashmark-nand-chip","version":1}`,
	} {
		if _, err := l.Load([]byte(c)); err == nil {
			t.Errorf("garbage case %d accepted by warm Loader", i)
		}
	}
	// The loader must still work after rejecting garbage.
	var buf bytes.Buffer
	if err := imprinted.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(buf.Bytes()); err != nil {
		t.Fatalf("Loader broken after rejections: %v", err)
	}
}

// TestLoaderNullCursorsStartFresh: a page cursor decoded from null reads
// 0 however warm the Loader is. encoding/json leaves such an element
// untouched, so a Loader that reused the previous chip's cursors as they
// were would hand equal bytes unequal devices.
func TestLoaderNullCursorsStartFresh(t *testing.T) {
	partial := Adapt(newNAND(t, 24))
	if err := partial.ProgramBlock(0, make([]uint64, partial.d.Geometry().PageBytes/2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := partial.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var l Loader
	if _, err := l.Load(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := Adapt(newNAND(t, 25)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	cursors := regexp.MustCompile(`"nextPage":\s*\[[^\]]*\]`)
	nulls := `"nextPage":[null` + strings.Repeat(",null", partial.d.Geometry().Blocks-1) + `]`
	if !cursors.Match(buf.Bytes()) {
		t.Fatal("saved chip holds no page cursors")
	}
	data := cursors.ReplaceAll(buf.Bytes(), []byte(nulls))
	warm, err := l.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := new(Loader).Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(warm.d.nextPage, fresh.d.nextPage) || slices.ContainsFunc(fresh.d.nextPage, func(p int) bool { return p != 0 }) {
		t.Fatalf("null cursors load as %v through a warm Loader, %v through a fresh one; want all 0",
			warm.d.nextPage, fresh.d.nextPage)
	}
}

// TestLoaderRetainedCountsRefusedCursors: a file whose page-cursor list
// is far longer than its block count is refused, yet the Loader keeps
// the decoded list's capacity, so Retained counts it.
func TestLoaderRetainedCountsRefusedCursors(t *testing.T) {
	var buf bytes.Buffer
	if err := Adapt(newNAND(t, 26)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	cursors := regexp.MustCompile(`"nextPage":\s*\[[^\]]*\]`)
	data := cursors.ReplaceAll(buf.Bytes(), []byte(`"nextPage":[0`+strings.Repeat(",0", n-1)+`]`))
	var l Loader
	if _, err := l.Load(data); err == nil {
		t.Fatal("a chip file with more page cursors than blocks loaded")
	}
	if got := l.Retained(); got < n {
		t.Fatalf("Retained = %d after decoding %d page cursors", got, n)
	}
}

// TestLoaderRecyclesPageFetch: a Loader hands each chip it loads the
// same page buffer and served flags. Chips loaded back to back and
// driven through the same ops end, and start, on the same page, so a
// cached page carried over from the previous chip would be served;
// every word-by-word read, repeats included, must instead match a twin
// loaded on its own.
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
		// Word-by-word repeated reads of the first page's first words:
		// each chip ends, and the next one starts, on page 0.
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

// TestLoadAdapterRejectsForgedGeometryCheaply: a chip file is untrusted
// input. A SmallNAND file whose envelope claims 1024 blocks (4 MiB of
// flash, inside Geometry.Validate's cap) over the 8-block array it
// carries must be refused by the array-header check before anything is
// sized from the claimed geometry; a device of that geometry holds
// about 400 MB of cell state.
func TestLoadAdapterRejectsForgedGeometryCheaply(t *testing.T) {
	var buf bytes.Buffer
	if err := Adapt(newNAND(t, 41)).Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte(`"Blocks": 8,`), []byte(`"Blocks": 1024,`), 1)
	if bytes.Equal(data, buf.Bytes()) {
		t.Fatal("saved chip file has no 8-block geometry to forge")
	}
	forged := SmallNAND()
	forged.Blocks = 1024
	if err := forged.Validate(); err != nil {
		t.Fatalf("geometry no longer passes validation, the test needs another: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadAdapter(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("chip file with a forged geometry loaded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting a %d-byte chip file allocated %d bytes, want under 1 MB", len(data), n)
	}
}
