package mcu

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/flashctl"
	"github.com/flashmark/flashmark/internal/vclock"
)

func newSim(t *testing.T, seed uint64) *Device {
	t.Helper()
	d, err := NewDevice(PartSmallSim(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCatalogPartsValid(t *testing.T) {
	for _, p := range Catalog() {
		if err := p.Geometry.Validate(); err != nil {
			t.Errorf("%s geometry: %v", p.Name, err)
		}
		if err := p.Timing.Validate(); err != nil {
			t.Errorf("%s timing: %v", p.Name, err)
		}
		if err := p.Params.Validate(); err != nil {
			t.Errorf("%s params: %v", p.Name, err)
		}
		if p.SerialBaud <= 0 {
			t.Errorf("%s has no serial baud", p.Name)
		}
		if _, err := NewDevice(p, 1); err != nil {
			t.Errorf("NewDevice(%s): %v", p.Name, err)
		}
	}
}

func TestPartByName(t *testing.T) {
	p, err := PartByName("MSP430F5438")
	if err != nil || p.Name != "MSP430F5438" {
		t.Fatalf("PartByName = %+v, %v", p, err)
	}
	if _, err := PartByName("Z80"); err == nil {
		t.Fatal("unknown part accepted")
	}
}

func TestDeviceIdentity(t *testing.T) {
	d := newSim(t, 99)
	if d.Seed() != 99 {
		t.Errorf("Seed = %d", d.Seed())
	}
	if d.Part().Name != "FM-SIM16" {
		t.Errorf("Part = %s", d.Part().Name)
	}
	if d.Controller() == nil || d.Clock() == nil || d.Ledger() == nil {
		t.Fatal("nil subsystem")
	}
}

func TestDevicesDifferBySeed(t *testing.T) {
	a := newSim(t, 1)
	b := newSim(t, 2)
	ma := a.Controller().Model().Base(0, 0)
	mb := b.Controller().Model().Base(0, 0)
	if ma == mb {
		t.Error("different seeds produced identical cells")
	}
}

func TestChargeHostTransfer(t *testing.T) {
	d := newSim(t, 1)
	d.ChargeHostTransfer(1536) // 512 bytes x 3 reads
	got := d.Ledger().Of(OpHost)
	bits := 15360.0
	want := time.Duration(bits / 115200 * float64(time.Second))
	if got != want {
		t.Errorf("host transfer = %v, want %v", got, want)
	}
	if d.Clock().Now() != got {
		t.Error("clock not advanced by host transfer")
	}
	// ~133 ms: the dominant part of the paper's 170 ms extract time.
	if got < 130*time.Millisecond || got > 137*time.Millisecond {
		t.Errorf("3-read segment host readout = %v, expected ~133 ms", got)
	}
	before := d.Clock().Now()
	d.ChargeHostTransfer(0)
	d.ChargeHostTransfer(-5)
	if d.Clock().Now() != before {
		t.Error("non-positive transfer should be a no-op")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := newSim(t, 7)
	ctl := d.Controller()
	if err := ctl.Unlock(flashctl.UnlockKey); err != nil {
		t.Fatal(err)
	}
	if err := ctl.ProgramWord(16, 0x5443); err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, d.Part().Geometry.WordsPerSegment())
	if err := ctl.StressSegmentWords(512, values, 1000, false); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Seed() != 7 || d2.Part().Name != "FM-SIM16" {
		t.Fatalf("identity lost: seed %d part %s", d2.Seed(), d2.Part().Name)
	}
	v, err := d2.Controller().ReadWord(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x5443 {
		t.Errorf("programmed word = %#x after reload", v)
	}
	w1 := d.Controller().Array().Wear(d.Part().Geometry.CellIndex(1, 0, 0))
	w2 := d2.Controller().Array().Wear(d.Part().Geometry.CellIndex(1, 0, 0))
	if w1 != w2 {
		t.Errorf("wear lost: %v vs %v", w1, w2)
	}
	// Physics identical: same tau for same cell.
	t1 := d.Controller().Model().TauAt(1, 0, w1)
	t2 := d2.Controller().Model().TauAt(1, 0, w2)
	if t1 != t2 {
		t.Errorf("tau diverged after reload: %v vs %v", t1, t2)
	}
}

func TestSaveLoadPreservesCustomParams(t *testing.T) {
	part := PartSmallSim()
	part.Params.ReadNoiseSigmaUs = 1.25
	d, err := NewDevice(part, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Part().Params.ReadNoiseSigmaUs; got != 1.25 {
		t.Errorf("custom params lost: ReadNoiseSigmaUs = %v", got)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"format":"other","version":1}`,
		`{"format":"flashmark-chip","version":99,"part":"FM-SIM16"}`,
		`{"format":"flashmark-chip","version":1,"part":"NOPE","array":""}`,
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":"!!!"}`,
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":""}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLoadRejectsGeometryMismatch(t *testing.T) {
	// Save a SIM16 chip, then claim it is an MSP430F5438.
	d := newSim(t, 1)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s := strings.Replace(buf.String(), `"FM-SIM16"`, `"MSP430F5438"`, 1)
	if _, err := Load(strings.NewReader(s)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestFreshChipFileCompact(t *testing.T) {
	d := newSim(t, 1)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4096 {
		t.Errorf("fresh chip file is %d bytes; sparse encoding expected", buf.Len())
	}
}

func TestLedgerClassesAfterActivity(t *testing.T) {
	d := newSim(t, 5)
	ctl := d.Controller()
	if err := ctl.Unlock(flashctl.UnlockKey); err != nil {
		t.Fatal(err)
	}
	if err := ctl.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	d.ChargeHostTransfer(100)
	l := d.Ledger()
	if l.Of(vclock.OpErase) == 0 || l.Of(OpHost) == 0 {
		t.Errorf("ledger missing classes: %s", l)
	}
}

// savedBytes serializes a device the way a client uploads it.
func savedBytes(t *testing.T, d *Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoaderMatchesLoad proves a warm Loader equals a fresh decode (a
// zero-value Loader, which is all Load runs): the device a warm
// (already-populated) Loader produces re-serializes to the same bytes,
// across chips of different parts and states, and garbage stays
// rejected.
func TestLoaderMatchesLoad(t *testing.T) {
	worn := newSim(t, 7)
	ctl := worn.Controller()
	if err := ctl.Unlock(flashctl.UnlockKey); err != nil {
		t.Fatal(err)
	}
	if err := ctl.ProgramWord(16, 0x5443); err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, worn.Part().Geometry.WordsPerSegment())
	if err := ctl.StressSegmentWords(512, values, 1000, false); err != nil {
		t.Fatal(err)
	}
	aged, err := NewDevice(PartSmallSim(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := aged.Age(2.5); err != nil {
		t.Fatal(err)
	}
	big, err := NewDevice(PartMSP430F5529(), 11)
	if err != nil {
		t.Fatal(err)
	}
	var l Loader
	for i, d := range []*Device{worn, aged, big, newSim(t, 3)} {
		file := savedBytes(t, d)
		got, err := l.Load(file)
		if err != nil {
			t.Fatalf("chip %d: %v", i, err)
		}
		want, err := new(Loader).Load(file)
		if err != nil {
			t.Fatalf("chip %d: %v", i, err)
		}
		if !bytes.Equal(savedBytes(t, got), savedBytes(t, want)) {
			t.Fatalf("chip %d: Loader device diverges from Load device", i)
		}
		if got.AgeYears() != want.AgeYears() {
			t.Fatalf("chip %d: age %v vs %v", i, got.AgeYears(), want.AgeYears())
		}
	}
	for i, c := range []string{
		"",
		"not json",
		`{"format":"other","version":1}`,
		`{"format":"flashmark-chip","version":99,"part":"FM-SIM16"}`,
		`{"format":"flashmark-chip","version":1,"part":"NOPE","array":""}`,
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":"!!!"}`,
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":""}`,
	} {
		if _, err := l.Load([]byte(c)); err == nil {
			t.Errorf("garbage case %d accepted by warm Loader", i)
		}
	}
	// The loader must still work after rejecting garbage.
	if _, err := l.Load(savedBytes(t, worn)); err != nil {
		t.Fatalf("Loader broken after rejections: %v", err)
	}
}

// TestLoaderWarmAllocs pins the zero-alloc property the service hot
// path rests on: reloading same-geometry chip files through a warm
// Loader does not allocate for the payload, binary form, or cell array.
func TestLoaderWarmAllocs(t *testing.T) {
	file := savedBytes(t, newSim(t, 5))
	var l Loader
	if _, err := l.Load(file); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := l.Load(file); err != nil {
			t.Fatal(err)
		}
	})
	// The envelope parse and device construction still allocate a
	// handful of small objects; the point is the ~100KB payload, the
	// binary form, and the 768KB cell array are all recycled.
	if n > 50 {
		t.Errorf("warm Loader.Load allocates %v times per run, want O(10)", n)
	}
}
