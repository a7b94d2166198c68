package flashctl

import (
	"errors"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/vclock"
)

func newTestController(t *testing.T) *Controller {
	t.Helper()
	return newSeededController(t, 0xC0FFEE)
}

func newSeededController(t *testing.T, seed uint64) *Controller {
	t.Helper()
	arr, err := nor.NewArray(nor.Small())
	if err != nil {
		t.Fatal(err)
	}
	model, err := floatgate.NewModel(floatgate.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{Array: arr, Model: model, Timing: MSP430Timing()})
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

func mustUnlock(t *testing.T, c *Controller) {
	t.Helper()
	if err := c.Unlock(UnlockKey); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	arr, _ := nor.NewArray(nor.Small())
	model, _ := floatgate.NewModel(floatgate.DefaultParams(), 1)
	if _, err := New(Config{Model: model, Timing: MSP430Timing()}); err == nil {
		t.Error("nil array accepted")
	}
	if _, err := New(Config{Array: arr, Timing: MSP430Timing()}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := New(Config{Array: arr, Model: model}); err == nil {
		t.Error("zero timing accepted")
	}
}

func TestTimingValidate(t *testing.T) {
	tm := MSP430Timing()
	if err := tm.Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
	tm.WordProgram = 0
	if err := tm.Validate(); err == nil {
		t.Error("zero WordProgram accepted")
	}
}

func TestLockProtocol(t *testing.T) {
	c := newTestController(t)
	if !c.Locked() {
		t.Fatal("controller should start locked")
	}
	if err := c.EraseSegment(0); err == nil {
		t.Fatal("erase while locked should fail")
	}
	if err := c.ProgramWord(0, 0x1234); err == nil {
		t.Fatal("program while locked should fail")
	}
	if err := c.Unlock(0x5A); err == nil {
		t.Fatal("wrong key should fail")
	}
	mustUnlock(t, c)
	if c.Locked() {
		t.Fatal("Unlock did not unlock")
	}
	if err := c.EraseSegment(0); err != nil {
		t.Fatalf("erase after unlock: %v", err)
	}
	c.Lock()
	if err := c.EraseSegment(0); err == nil {
		t.Fatal("erase after re-lock should fail")
	}
	// The four refused commands charged nothing: only the one erase.
	if l := c.Ledger(); l.CountOf(vclock.OpErase) != 1 || l.CountOf(vclock.OpOverhead) != 1 || l.CountOf(vclock.OpProgram) != 0 {
		t.Errorf("ledger = %s, want the one erase", l)
	}
}

func TestReadWorksWhileLocked(t *testing.T) {
	c := newTestController(t)
	v, err := c.ReadWord(0)
	if err != nil {
		t.Fatalf("locked read failed: %v", err)
	}
	if v != 0xFFFF {
		t.Fatalf("fresh word = %#x, want 0xFFFF", v)
	}
}

func TestProgramAndRead(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	if err := c.ProgramWord(4, 0x5443); err != nil { // "TC"
		t.Fatal(err)
	}
	v, err := c.ReadWord(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5443 {
		t.Fatalf("read back %#x, want 0x5443", v)
	}
	// Neighboring word untouched.
	if v, _ := c.ReadWord(6); v != 0xFFFF {
		t.Fatalf("neighbor = %#x, want 0xFFFF", v)
	}
}

func TestProgramOnlyClearsBits(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	if err := c.ProgramWord(0, 0xF0F0); err != nil {
		t.Fatal(err)
	}
	// Overwriting with 0xFF0F can only clear more bits: result is AND.
	if err := c.ProgramWord(0, 0xFF0F); err != nil {
		t.Fatal(err)
	}
	v, _ := c.ReadWord(0)
	if v != 0xF000 {
		t.Fatalf("overwrite result = %#x, want AND = 0xF000", v)
	}
}

func TestEraseRestoresOnes(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	if err := c.ProgramWord(10, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	v, _ := c.ReadWord(10)
	if v != 0xFFFF {
		t.Fatalf("after erase = %#x, want 0xFFFF", v)
	}
}

func TestEraseAddsWearAsymmetrically(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	// Word 0 programmed, word 1 left erased.
	if err := c.ProgramWord(0, 0x0000); err != nil {
		t.Fatal(err)
	}
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	arr := c.Array()
	progWear := arr.Wear(0)                                            // was programmed
	eraseOnlyWear := arr.Wear(c.Array().Geometry().CellIndex(0, 1, 0)) // stayed erased
	p := c.Model().Params()
	if progWear != p.EraseFromProgrammedWear {
		t.Errorf("P/E cell wear = %v, want %v", progWear, p.EraseFromProgrammedWear)
	}
	if eraseOnlyWear != p.EraseOnlyWear {
		t.Errorf("erase-only cell wear = %v, want %v", eraseOnlyWear, p.EraseOnlyWear)
	}
}

func TestMassEraseBank(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	// Program a word in two different segments of bank 0.
	if err := c.ProgramWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramWord(geom.SegmentBytes, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.MassEraseBank(0); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []int{0, geom.SegmentBytes} {
		if v, _ := c.ReadWord(addr); v != 0xFFFF {
			t.Fatalf("addr %#x after mass erase = %#x", addr, v)
		}
	}
}

func TestAddressValidation(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	if err := c.ProgramWord(1, 0); err == nil {
		t.Error("unaligned program accepted")
	}
	if err := c.ProgramWord(-2, 0); err == nil {
		t.Error("negative address accepted")
	}
	if err := c.EraseSegment(c.Array().Geometry().TotalBytes()); err == nil {
		t.Error("out-of-range erase accepted")
	}
	if _, err := c.ReadWord(3); err == nil {
		t.Error("unaligned read accepted")
	}
	var ferr *Error
	err := c.ProgramWord(1, 0)
	if !errors.As(err, &ferr) {
		t.Errorf("error type = %T, want *Error", err)
	}
}

func TestProgramBlock(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	values := []uint64{0x1111, 0x2222, 0x3333}
	if err := c.ProgramBlock(100, values); err != nil {
		t.Fatal(err)
	}
	for i, want := range values {
		v, _ := c.ReadWord(100 + 2*i)
		if v != want&0xFFFF {
			t.Fatalf("block word %d = %#x, want %#x", i, v, want)
		}
	}
}

func TestProgramBlockBoundary(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	// Block starting at last word of segment 0, length 2: crosses boundary.
	lastWord := geom.SegmentBytes - geom.WordBytes
	if err := c.ProgramBlock(lastWord, []uint64{0, 0}); err == nil {
		t.Error("segment-crossing block accepted")
	}
	if err := c.ProgramBlock(lastWord, []uint64{0}); err != nil {
		t.Errorf("in-segment block rejected: %v", err)
	}
	if err := c.ProgramBlock(0, nil); err != nil {
		t.Errorf("empty block should be a no-op, got %v", err)
	}
}

func TestPartialEraseFreshSegmentSweep(t *testing.T) {
	// The Fig. 3 flow on a fresh segment: program all, partial erase,
	// count. Short pulses leave cells programmed, long pulses erase all.
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())

	countOnes := func() int {
		words, err := c.ReadSegment(0)
		if err != nil {
			t.Fatal(err)
		}
		ones := 0
		for _, w := range words {
			for b := 0; b < geom.WordBits(); b++ {
				if w&(1<<uint(b)) != 0 {
					ones++
				}
			}
		}
		return ones
	}

	run := func(pulse time.Duration) int {
		if err := c.EraseSegment(0); err != nil {
			t.Fatal(err)
		}
		if err := c.ProgramBlock(0, zeros); err != nil {
			t.Fatal(err)
		}
		if err := c.PartialEraseSegment(0, pulse); err != nil {
			t.Fatal(err)
		}
		return countOnes()
	}

	if got := run(5 * time.Microsecond); got != 0 {
		t.Errorf("5µs pulse erased %d cells, want 0", got)
	}
	if got := run(50 * time.Microsecond); got != geom.CellsPerSegment() {
		t.Errorf("50µs pulse erased %d cells, want all %d", got, geom.CellsPerSegment())
	}
	mid := run(21 * time.Microsecond)
	if mid == 0 || mid == geom.CellsPerSegment() {
		t.Errorf("21µs pulse should be mid-transition, got %d", mid)
	}
}

func TestPartialEraseMetastableReadsVary(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramBlock(0, zeros); err != nil {
		t.Fatal(err)
	}
	// Mid-transition pulse on a fresh segment leaves many cells near the
	// boundary: repeated reads must not always agree.
	if err := c.PartialEraseSegment(0, 21*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	varied := false
	for w := 0; w < geom.WordsPerSegment() && !varied; w++ {
		first, _ := c.ReadWord(w * 2)
		for r := 0; r < 5; r++ {
			v, _ := c.ReadWord(w * 2)
			if v != first {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Error("no read noise observed on a mid-transition segment")
	}
}

func TestPartialEraseContinuation(t *testing.T) {
	// Two consecutive partial erases accumulate: 10µs + 30µs ≈ erased.
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramBlock(0, zeros); err != nil {
		t.Fatal(err)
	}
	if err := c.PartialEraseSegment(0, 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := c.PartialEraseSegment(0, 30*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	words, _ := c.ReadSegment(0)
	for w, v := range words {
		if v != 0xFFFF {
			t.Fatalf("word %d = %#x after cumulative 40µs erase", w, v)
		}
	}
}

func TestPartialEraseFullPulseIsErase(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())
	if err := c.ProgramBlock(0, zeros); err != nil {
		t.Fatal(err)
	}
	before := c.Ledger().CountOf(vclock.OpErase)
	if err := c.PartialEraseSegment(0, c.Timing().SegmentErase); err != nil {
		t.Fatal(err)
	}
	if c.Ledger().CountOf(vclock.OpErase) != before+1 {
		t.Error("nominal-length pulse should count as a full erase")
	}
	if c.Ledger().CountOf(vclock.OpPartialErase) != 0 {
		t.Error("nominal-length pulse should not count as partial")
	}
}

func TestPartialEraseRejectsNegative(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	if err := c.PartialEraseSegment(0, -time.Microsecond); err == nil {
		t.Error("negative pulse accepted")
	}
}

func TestAdaptiveEraseEquivalentStateFasterTime(t *testing.T) {
	full := newSeededController(t, 42)
	adaptive := newSeededController(t, 42)
	mustUnlock(t, full)
	mustUnlock(t, adaptive)
	geom := full.Array().Geometry()
	zeros := make([]uint64, geom.WordsPerSegment())
	for _, c := range []*Controller{full, adaptive} {
		if err := c.ProgramBlock(0, zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := full.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	pulse, err := adaptive.EraseSegmentAdaptive(0)
	if err != nil {
		t.Fatal(err)
	}
	if pulse >= full.Timing().SegmentErase {
		t.Errorf("adaptive pulse %v not faster than nominal %v", pulse, full.Timing().SegmentErase)
	}
	// Identical final state: same wear and both fully erased.
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if full.Array().Wear(i) != adaptive.Array().Wear(i) {
			t.Fatalf("wear diverged at cell %d: %v vs %v", i, full.Array().Wear(i), adaptive.Array().Wear(i))
		}
		if adaptive.Array().Programmed(i) {
			t.Fatalf("cell %d still programmed after adaptive erase", i)
		}
	}
	if adaptive.Clock().Now() >= full.Clock().Now() {
		t.Errorf("adaptive total %v not faster than nominal %v", adaptive.Clock().Now(), full.Clock().Now())
	}
}

func TestTimeAccounting(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	tm := c.Timing()
	if err := c.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ProgramWord(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadWord(0); err != nil {
		t.Fatal(err)
	}
	l := c.Ledger()
	if got := l.Of(vclock.OpErase); got != tm.SegmentErase {
		t.Errorf("erase time = %v, want %v", got, tm.SegmentErase)
	}
	if got := l.Of(vclock.OpProgram); got != tm.WordProgram {
		t.Errorf("program time = %v, want %v", got, tm.WordProgram)
	}
	if got := l.Of(vclock.OpRead); got != tm.WordRead {
		t.Errorf("read time = %v, want %v", got, tm.WordRead)
	}
	if got := l.Of(vclock.OpOverhead); got != 2*tm.OpSetup {
		t.Errorf("overhead = %v, want %v", got, 2*tm.OpSetup)
	}
	if c.Clock().Now() != l.Total() {
		t.Errorf("clock %v != ledger total %v", c.Clock().Now(), l.Total())
	}
}

func TestBaselineImprintCycleCostMatchesPaper(t *testing.T) {
	// One baseline imprint cycle = nominal erase + 256-word block program
	// ≈ 34.5 ms, which over 40 K cycles gives the paper's ~1380 s.
	tm := MSP430Timing()
	cycle := tm.SegmentErase + tm.BlockProgramFirst + 255*tm.BlockProgramNext + 2*tm.OpSetup
	total40K := 40_000 * cycle
	if total40K < 1300*time.Second || total40K > 1450*time.Second {
		t.Errorf("40K baseline imprint = %v, paper reports ~1380 s", total40K)
	}
}

func TestReadSegmentLength(t *testing.T) {
	c := newTestController(t)
	words, err := c.ReadSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != c.Array().Geometry().WordsPerSegment() {
		t.Fatalf("ReadSegment returned %d words", len(words))
	}
}

func TestStatsCounters(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	_ = c.EraseSegment(0)
	_ = c.ProgramWord(0, 0)
	_ = c.ProgramBlock(4, []uint64{1, 2})
	_, _ = c.ReadWord(0)
	_ = c.PartialEraseSegment(0, time.Microsecond)
	l := c.Ledger()
	if l.CountOf(vclock.OpErase) != 1 || l.CountOf(vclock.OpProgram) != 2 || l.CountOf(vclock.OpRead) != 1 ||
		l.CountOf(vclock.OpPartialErase) != 1 || l.CountOf(vclock.OpOverhead) != 4 {
		t.Errorf("ledger = %s", l)
	}
}

func TestStressEquivalence(t *testing.T) {
	// StressSegmentWords must produce bit-identical wear and state to the
	// literal erase/program loop.
	loop := newSeededController(t, 7)
	batch := newSeededController(t, 7)
	mustUnlock(t, loop)
	mustUnlock(t, batch)
	geom := loop.Array().Geometry()
	values := make([]uint64, geom.WordsPerSegment())
	for i := range values {
		values[i] = uint64(0x5443) // "TC" watermark in every word
	}
	const n = 25
	for cycle := 0; cycle < n; cycle++ {
		if err := loop.EraseSegment(0); err != nil {
			t.Fatal(err)
		}
		if err := loop.ProgramBlock(0, values); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.StressSegmentWords(0, values, n, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if loop.Array().Wear(i) != batch.Array().Wear(i) {
			t.Fatalf("wear diverged at cell %d: loop %v batch %v", i, loop.Array().Wear(i), batch.Array().Wear(i))
		}
		if loop.Array().Programmed(i) != batch.Array().Programmed(i) {
			t.Fatalf("state diverged at cell %d", i)
		}
	}
	if loop.Clock().Now() != batch.Clock().Now() {
		t.Errorf("time diverged: loop %v batch %v", loop.Clock().Now(), batch.Clock().Now())
	}
}

func TestStressEquivalenceFromDirtyState(t *testing.T) {
	// Equivalence must hold when the segment starts partially programmed.
	loop := newSeededController(t, 9)
	batch := newSeededController(t, 9)
	mustUnlock(t, loop)
	mustUnlock(t, batch)
	geom := loop.Array().Geometry()
	for _, c := range []*Controller{loop, batch} {
		if err := c.ProgramWord(0, 0x00FF); err != nil {
			t.Fatal(err)
		}
	}
	values := make([]uint64, geom.WordsPerSegment())
	for i := range values {
		values[i] = 0xA5A5
	}
	const n = 10
	for cycle := 0; cycle < n; cycle++ {
		if err := loop.EraseSegment(0); err != nil {
			t.Fatal(err)
		}
		if err := loop.ProgramBlock(0, values); err != nil {
			t.Fatal(err)
		}
	}
	if err := batch.StressSegmentWords(0, values, n, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if loop.Array().Wear(i) != batch.Array().Wear(i) {
			t.Fatalf("wear diverged at cell %d: loop %v batch %v", i, loop.Array().Wear(i), batch.Array().Wear(i))
		}
	}
}

func TestStressValidation(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.Array().Geometry()
	good := make([]uint64, geom.WordsPerSegment())
	if err := c.StressSegmentWords(0, good[:10], 5, false); err == nil {
		t.Error("short values accepted")
	}
	if err := c.StressSegmentWords(0, good, -1, false); err == nil {
		t.Error("negative cycles accepted")
	}
	if err := c.StressSegmentWords(0, good, 0, false); err != nil {
		t.Errorf("zero cycles should be a no-op: %v", err)
	}
	c.Lock()
	if err := c.StressSegmentWords(0, good, 1, false); err == nil {
		t.Error("stress while locked accepted")
	}
}

func TestStressAdaptiveFasterThanBaseline(t *testing.T) {
	base := newSeededController(t, 11)
	fast := newSeededController(t, 11)
	mustUnlock(t, base)
	mustUnlock(t, fast)
	geom := base.Array().Geometry()
	values := make([]uint64, geom.WordsPerSegment())
	for i := range values {
		values[i] = 0x5443
	}
	const n = 1000
	if err := base.StressSegmentWords(0, values, n, false); err != nil {
		t.Fatal(err)
	}
	if err := fast.StressSegmentWords(0, values, n, true); err != nil {
		t.Fatal(err)
	}
	ratio := float64(base.Clock().Now()) / float64(fast.Clock().Now())
	if ratio < 2 {
		t.Errorf("adaptive speedup = %.2fx, want > 2x (paper: ~3.5x)", ratio)
	}
	// Identical physical outcome regardless of erase strategy.
	for i := 0; i < geom.CellsPerSegment(); i++ {
		if base.Array().Wear(i) != fast.Array().Wear(i) {
			t.Fatalf("wear diverged at cell %d", i)
		}
	}
}

func TestSegmentMeanTau(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	meanFresh, maxFresh, err := c.SegmentMeanTau(0)
	if err != nil {
		t.Fatal(err)
	}
	geom := c.Array().Geometry()
	values := make([]uint64, geom.WordsPerSegment()) // all zeros
	if err := c.StressSegmentWords(0, values, 20_000, false); err != nil {
		t.Fatal(err)
	}
	meanWorn, maxWorn, err := c.SegmentMeanTau(0)
	if err != nil {
		t.Fatal(err)
	}
	if !(meanWorn > meanFresh && maxWorn > maxFresh) {
		t.Errorf("tau should grow with stress: mean %v->%v max %v->%v",
			meanFresh, meanWorn, maxFresh, maxWorn)
	}
}

// TestSegmentWearSummaryKeepsDeferrals: wear is never deferred, so the
// wear summary of a segment a partial erase left deferred equals the
// one taken after a flush, and leaves the engine's deferrals in place.
func TestSegmentWearSummaryKeepsDeferrals(t *testing.T) {
	c := newTestController(t)
	mustUnlock(t, c)
	geom := c.array.Geometry()
	const seg = 2
	addr := seg * geom.SegmentBytes
	values := make([]uint64, geom.WordsPerSegment())
	for i := range values {
		values[i] = 0x5443 // "TC"
	}
	if err := c.StressSegmentWords(addr, values, 40_000, true); err != nil {
		t.Fatal(err)
	}
	if err := c.PartialEraseSegment(addr, 25*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	live := c.phys[seg].def.Live()
	if live == 0 {
		t.Fatal("the partial erase deferred no margin")
	}
	minW, meanW, maxW, err := c.SegmentWearSummary(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.phys[seg].def.Live(); got != live {
		t.Fatalf("the wear summary flushed the engine: %d deferred margins, then %d", live, got)
	}
	fMin, fMean, fMax, err := c.Array().SegmentWearSummary(seg)
	if err != nil {
		t.Fatal(err)
	}
	if minW != fMin || meanW != fMean || maxW != fMax {
		t.Errorf("summary %v/%v/%v, after a flush %v/%v/%v", minW, meanW, maxW, fMin, fMean, fMax)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Op: "program", Addr: 0x1FF, Msg: "boom"}
	want := "flashctl: program at 0x1ff: boom"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	e2 := &Error{Op: "unlock", Addr: -1, Msg: "bad key"}
	if e2.Error() != "flashctl: unlock: bad key" {
		t.Errorf("Error() = %q", e2.Error())
	}
	e3 := &Error{Op: "x", Addr: 0, Msg: "m"}
	if e3.Error() != "flashctl: x at 0x0: m" {
		t.Errorf("Error() = %q", e3.Error())
	}
}

func BenchmarkProgramBlockSegment(b *testing.B) {
	arr, _ := nor.NewArray(nor.Small())
	model, _ := floatgate.NewModel(floatgate.DefaultParams(), 1)
	c, _ := New(Config{Array: arr, Model: model, Timing: MSP430Timing()})
	_ = c.Unlock(UnlockKey)
	values := make([]uint64, arr.Geometry().WordsPerSegment())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.EraseSegment(0); err != nil {
			b.Fatal(err)
		}
		if err := c.ProgramBlock(0, values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialEraseSegment(b *testing.B) {
	arr, _ := nor.NewArray(nor.Small())
	model, _ := floatgate.NewModel(floatgate.DefaultParams(), 1)
	c, _ := New(Config{Array: arr, Model: model, Timing: MSP430Timing()})
	_ = c.Unlock(UnlockKey)
	values := make([]uint64, arr.Geometry().WordsPerSegment())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.EraseSegment(0)
		_ = c.ProgramBlock(0, values)
		if err := c.PartialEraseSegment(0, 23*time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}
