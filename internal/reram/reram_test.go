package reram_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"fmt"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func testFactory() counterfeit.FactoryConfig {
	return counterfeit.FactoryConfig{
		Fab:   reram.DefaultFab(),
		Codec: wmcode.Codec{Key: []byte("reram-test-key")},
	}
}

func testVerifier() counterfeit.Verifier {
	return counterfeit.Verifier{
		Codec:          wmcode.Codec{Key: []byte("reram-test-key")},
		CheckRecycling: true,
	}
}

// TestVerdictMatrix is the calibration pin for the ReRAM physics: the
// unchanged core imprint/extract procedures and the verifier's fixed
// operating point (25 µs t_PEW, 4% wear screen) must separate the
// ground-truth chip classes on resistance-state conditioning just as
// they do on oxide wear.
func TestVerdictMatrix(t *testing.T) {
	cases := []struct {
		name  string
		class counterfeit.ChipClass
		want  counterfeit.Verdict
	}{
		{"genuine-accept", counterfeit.ClassGenuineAccept, counterfeit.VerdictGenuine},
		{"genuine-reject", counterfeit.ClassGenuineReject, counterfeit.VerdictRejectDie},
		{"unmarked", counterfeit.ClassUnmarked, counterfeit.VerdictNoWatermark},
		{"metadata-forgery", counterfeit.ClassMetadataForgery, counterfeit.VerdictNoWatermark},
		{"digital-clone", counterfeit.ClassDigitalClone, counterfeit.VerdictNoWatermark},
		{"recycled", counterfeit.ClassRecycled, counterfeit.VerdictRecycled},
		// The physics blind spot the challenge-response axis exists for:
		// a replayed imprint is physically indistinguishable.
		{"replay-imprint", counterfeit.ClassReplayImprint, counterfeit.VerdictGenuine},
	}
	cfg := testFactory()
	v := testVerifier()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := counterfeit.Fabricate(tc.class, cfg, 0x9000+uint64(i), 500+uint64(i))
			if err != nil {
				t.Fatalf("fabricate: %v", err)
			}
			res, err := v.Verify(dev)
			if err != nil {
				t.Fatalf("verify: %v", err)
			}
			if res.Verdict != tc.want {
				t.Fatalf("verdict = %v, want %v (disagreement %.3f, worn %d/%d)",
					res.Verdict, tc.want, res.ReplicaDisagreement, res.WornDataSegments, res.SampledDataSegments)
			}
		})
	}
}

// TestSaveLoadRoundTrip pins the chip-file format: a loaded chip must
// re-save byte-identically and carry the full physical state.
func TestSaveLoadRoundTrip(t *testing.T) {
	dev, err := counterfeit.Fabricate(counterfeit.ClassGenuineAccept, testFactory(), 0xA11CE, 777)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.(*reram.Device).Age(2.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := reram.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed() != dev.Seed() || loaded.PartName() != dev.PartName() {
		t.Fatalf("identity not preserved: seed %d part %q", loaded.Seed(), loaded.PartName())
	}
	if got := loaded.AgeYears(); got != 2.5 {
		t.Fatalf("age = %v, want 2.5", got)
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("save -> load -> save is not byte-identical")
	}
	// The loaded chip verifies exactly like the original.
	v := testVerifier()
	res, err := v.Verify(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != counterfeit.VerdictGenuine {
		t.Fatalf("loaded chip verdict = %v, want GENUINE", res.Verdict)
	}
}

// TestLoaderRejects covers the untrusted-input validation surface.
func TestLoaderRejects(t *testing.T) {
	dev, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not-json", "not a chip", "decoding chip file"},
		{"wrong-format", strings.Replace(good, reram.ChipFormat, "flashmark-chip", 1), "not a ReRAM chip file"},
		{"bad-version", strings.Replace(good, `"version": 1`, `"version": 99`, 1), "unsupported chip file version"},
		{"bad-age", strings.Replace(good, `"seed": 7`, `"seed": 7, "ageYears": -1`, 1), "age"},
	}
	var l reram.Loader
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := l.Load([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// The loader still works after rejections, and reuses its storage.
	if _, err := l.Load([]byte(good)); err != nil {
		t.Fatalf("loading valid file after rejections: %v", err)
	}
}

// TestLoaderRejectsHugeGeometryCheaply: a chip file is untrusted input,
// so a geometry that claims millions of one-byte sectors over an array
// payload that does not match it must be rejected before anything is
// sized from that geometry. Geometry.Validate accepts it, and a
// per-sector table for it would take about 100 MB.
func TestLoaderRejectsHugeGeometryCheaply(t *testing.T) {
	dev, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var cf map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatal(err)
	}
	huge := nor.Geometry{Banks: 1, SegmentsPerBank: 1 << 22, SegmentBytes: 1, WordBytes: 1}
	if err := huge.Validate(); err != nil {
		t.Fatalf("geometry no longer passes validation, the test needs another: %v", err)
	}
	if cf["geometry"], err = json.Marshal(huge); err != nil {
		t.Fatal(err)
	}
	cf["array"] = json.RawMessage(`"AAAA"`)
	data, err := json.Marshal(cf)
	if err != nil {
		t.Fatal(err)
	}
	var l reram.Loader
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = l.Load(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("chip file with a mismatched huge geometry loaded")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("rejecting a %d-byte chip file allocated %d bytes, want under 1 MB", len(data), n)
	}
}

// TestRefabricateEquivalence pins the arena contract: an in-place
// refabrication is indistinguishable from a fresh construction.
func TestRefabricateEquivalence(t *testing.T) {
	worn, err := counterfeit.Fabricate(counterfeit.ClassRecycled, testFactory(), 0xBEEF, 42)
	if err != nil {
		t.Fatal(err)
	}
	d := worn.(*reram.Device)
	if err := d.Refabricate(0xF00D); err != nil {
		t.Fatal(err)
	}
	fresh, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := d.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("refabricated chip differs from a fresh construction")
	}
}

// TestAgeMonotone pins the Ager contract and the drift direction:
// storage age only grows, and aging lengthens RESET crossing times (a
// longer adaptive erase of a programmed sector).
func TestAgeMonotone(t *testing.T) {
	d, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Age(5); err != nil {
		t.Fatal(err)
	}
	if err := d.Age(1); err == nil {
		t.Fatal("aging backwards from 5 to 1 years was accepted")
	}

	young, _ := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 11)
	old, _ := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 11)
	if err := old.Age(10); err != nil {
		t.Fatal(err)
	}
	zeros := make([]uint64, reram.DefaultGeometry().WordsPerSegment())
	for _, dev := range []*reram.Device{young, old} {
		if err := dev.ProgramBlock(0, zeros); err != nil {
			t.Fatal(err)
		}
	}
	py, err := young.EraseSegmentAdaptive(0)
	if err != nil {
		t.Fatal(err)
	}
	po, err := old.EraseSegmentAdaptive(0)
	if err != nil {
		t.Fatal(err)
	}
	if po <= py {
		t.Fatalf("aged adaptive RESET %v not longer than fresh %v", po, py)
	}
}

// TestDeviceSurface pins the small inspector and accounting surface:
// the no-op lock pair, the clock/ledger accessors, the datasheet
// constants, and host-transfer time accounting.
func TestDeviceSurface(t *testing.T) {
	dev, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Unlock(); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	dev.Lock() // no-op on the crossbar command set
	if dev.Clock() == nil || dev.Ledger() == nil {
		t.Fatal("nil clock or ledger")
	}
	if got, want := dev.NominalEraseTime(), reram.OxRAMTiming().SectorReset; got != want {
		t.Fatalf("NominalEraseTime = %v, want %v", got, want)
	}
	if got, want := dev.EnduranceCycles(), reram.DefaultParams().EnduranceCycles; got != want {
		t.Fatalf("EnduranceCycles = %v, want %v", got, want)
	}
	before := dev.Clock().Now()
	dev.ChargeHostTransfer(0) // non-positive transfers charge nothing
	if dev.Clock().Now() != before {
		t.Fatal("zero-byte host transfer advanced the clock")
	}
	dev.ChargeHostTransfer(1024)
	if dev.Clock().Now() <= before {
		t.Fatal("host transfer did not advance the clock")
	}
}

// TestReadSegmentMatchesWordReads pins the bulk read path: with every
// cell in a decisive state, ReadSegment must agree word-for-word with
// individual ReadWord calls, and bad addresses must be rejected.
func TestReadSegmentMatchesWordReads(t *testing.T) {
	geom := reram.DefaultGeometry()
	dev, err := reram.NewDevice(geom, reram.OxRAMTiming(), reram.DefaultParams(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.EraseSegment(0); err != nil {
		t.Fatal(err)
	}
	values := make([]uint64, geom.WordsPerSegment())
	for w := range values {
		values[w] = uint64(w*0x2545+0xA5A5) & (1<<uint(geom.WordBits()) - 1)
	}
	if err := dev.ProgramBlock(0, values); err != nil {
		t.Fatal(err)
	}
	seg, err := dev.ReadSegment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) != geom.WordsPerSegment() {
		t.Fatalf("ReadSegment returned %d words, want %d", len(seg), geom.WordsPerSegment())
	}
	for w, got := range seg {
		if got != values[w] {
			t.Fatalf("word %d = %#x, want %#x", w, got, values[w])
		}
		one, err := dev.ReadWord(w * geom.WordBytes)
		if err != nil {
			t.Fatal(err)
		}
		if one != got {
			t.Fatalf("ReadWord(%d) = %#x, ReadSegment gave %#x", w, one, got)
		}
	}
	if _, err := dev.ReadSegment(-1); err == nil {
		t.Fatal("ReadSegment accepted a negative address")
	}
}

// TestWearInspection pins the wear-inspection surface the recycling
// screen rides on: a fresh sector reports zero wear and zero worn
// cells; fast-forwarding imprint cycles past the datasheet endurance
// marks every stressed cell worn.
func TestWearInspection(t *testing.T) {
	geom := reram.DefaultGeometry()
	dev, err := reram.NewDevice(geom, reram.OxRAMTiming(), reram.DefaultParams(), 29)
	if err != nil {
		t.Fatal(err)
	}
	minW, meanW, maxW, err := dev.SegmentWearSummary(0)
	if err != nil {
		t.Fatal(err)
	}
	if minW != 0 || meanW != 0 || maxW != 0 {
		t.Fatalf("fresh sector wear = %v/%v/%v, want zeros", minW, meanW, maxW)
	}
	worn, err := dev.WornCellCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if worn != 0 {
		t.Fatalf("fresh sector has %d worn cells", worn)
	}

	// 1.5x the datasheet endurance in full SET/RESET cycles: every
	// cell of the sector crosses the wear threshold.
	zeros := make([]uint64, geom.WordsPerSegment())
	cycles := int(1.5 * reram.DefaultParams().EnduranceCycles)
	if err := dev.StressSegmentWords(0, zeros, cycles, false); err != nil {
		t.Fatal(err)
	}
	worn, err = dev.WornCellCount(0)
	if err != nil {
		t.Fatal(err)
	}
	if worn != geom.CellsPerSegment() {
		t.Fatalf("worn cells = %d, want %d", worn, geom.CellsPerSegment())
	}
	minW, _, _, err = dev.SegmentWearSummary(0)
	if err != nil {
		t.Fatal(err)
	}
	if minW <= reram.DefaultParams().EnduranceCycles {
		t.Fatalf("min wear %v not past endurance %v", minW, reram.DefaultParams().EnduranceCycles)
	}

	if _, err := dev.WornCellCount(-2); err == nil {
		t.Fatal("WornCellCount accepted a negative address")
	}
	if _, _, _, err := dev.SegmentWearSummary(geom.TotalSegments()); err == nil {
		t.Fatal("SegmentWearSummary accepted an out-of-range sector")
	}
}

// TestConstructionRejects walks every validation branch of the physics
// parameters, the timing table, and the geometry.
func TestConstructionRejects(t *testing.T) {
	mut := func(f func(*reram.Params)) reram.Params {
		p := reram.DefaultParams()
		f(&p)
		return p
	}
	params := []struct {
		name string
		p    reram.Params
	}{
		{"tau-base", mut(func(p *reram.Params) { p.TauBaseMeanUs = 0 })},
		{"tau-clip", mut(func(p *reram.Params) { p.TauClipHighUs = p.TauClipLowUs })},
		{"conditioning", mut(func(p *reram.Params) { p.CondPower = 0 })},
		{"read-noise", mut(func(p *reram.Params) { p.ReadNoiseSigmaUs = 0 })},
		{"wear", mut(func(p *reram.Params) { p.ResetWearFull = 0 })},
		{"drift", mut(func(p *reram.Params) { p.DriftUsPerYear = -1 })},
		{"endurance", mut(func(p *reram.Params) { p.EnduranceCycles = 0 })},
	}
	for _, tc := range params {
		t.Run("params-"+tc.name, func(t *testing.T) {
			if _, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), tc.p, 1); err == nil {
				t.Fatal("invalid params accepted")
			}
		})
	}
	t.Run("timing", func(t *testing.T) {
		bad := reram.OxRAMTiming()
		bad.WordRead = 0
		if _, err := reram.NewDevice(reram.DefaultGeometry(), bad, reram.DefaultParams(), 1); err == nil {
			t.Fatal("invalid timing accepted")
		}
	})
	t.Run("geometry", func(t *testing.T) {
		if _, err := reram.NewDevice(nor.Geometry{}, reram.OxRAMTiming(), reram.DefaultParams(), 1); err == nil {
			t.Fatal("invalid geometry accepted")
		}
	})
}

// TestLoaderArrayEncodings pins the array-payload decoding paths: an
// escaped string token must decode identically to the plain form, and
// malformed payloads must be rejected.
func TestLoaderArrayEncodings(t *testing.T) {
	dev, err := reram.NewDevice(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 37)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	marker := `"array": "`
	i := strings.Index(good, marker)
	if i < 0 {
		t.Fatalf("no array field in chip file")
	}
	i += len(marker)

	// The same base64 text with its first character \u-escaped takes
	// the full JSON string decode path and must load identically.
	escaped := fmt.Sprintf(`%s\u%04x%s`, good[:i], good[i], good[i+1:])
	ld, err := reram.Load(strings.NewReader(escaped))
	if err != nil {
		t.Fatalf("loading escaped array: %v", err)
	}
	var again bytes.Buffer
	if err := ld.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != good {
		t.Fatal("escaped-array chip did not round-trip to the plain form")
	}

	if _, err := reram.Load(strings.NewReader(good[:i-1] + "42}")); err == nil {
		t.Fatal("numeric array payload accepted")
	}
	bad := good[:i] + "!!" + good[i:]
	if _, err := reram.Load(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "array payload") {
		t.Fatalf("bad base64 error = %v, want array payload rejection", err)
	}
}
