package counterfeit

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/wmcode"
)

var testKey = []byte("trusted-chipmaker-key")

func testConfig() FactoryConfig {
	return FactoryConfig{
		Fab:          mcu.Fab(mcu.PartSmallSim()),
		Codec:        wmcode.Codec{Key: testKey},
		Manufacturer: "TC",
		SegAddr:      0,
		NPE:          80_000,
		Replicas:     7,
	}
}

func testVerifier() *Verifier {
	return &Verifier{
		Codec:        wmcode.Codec{Key: testKey},
		Manufacturer: "TC",
		SegAddr:      0,
		TPEW:         25 * time.Microsecond,
		Replicas:     7,
		Reads:        3,
	}
}

func fabricateAndVerify(t *testing.T, class ChipClass, seed uint64, v *Verifier) Result {
	t.Helper()
	dev, err := Fabricate(class, testConfig(), seed, 42)
	if err != nil {
		t.Fatalf("fabricate %s: %v", class, err)
	}
	res, err := v.Verify(dev)
	if err != nil {
		t.Fatalf("verify %s: %v", class, err)
	}
	return res
}

func TestGenuineAcceptVerifies(t *testing.T) {
	res := fabricateAndVerify(t, ClassGenuineAccept, 1, testVerifier())
	if res.Verdict != VerdictGenuine {
		t.Fatalf("verdict = %s (decodeErr=%v report=%+v)", res.Verdict, res.DecodeErr, res.Report)
	}
	if res.Payload.Manufacturer != "TC" || res.Payload.Status != wmcode.StatusAccept {
		t.Errorf("payload = %+v", res.Payload)
	}
	if res.Payload.DieID != 42 {
		t.Errorf("die ID = %d", res.Payload.DieID)
	}
}

func TestGenuineRejectFlagged(t *testing.T) {
	res := fabricateAndVerify(t, ClassGenuineReject, 2, testVerifier())
	if res.Verdict != VerdictRejectDie {
		t.Fatalf("verdict = %s, want REJECT-DIE", res.Verdict)
	}
}

func TestMetadataForgeryRefused(t *testing.T) {
	// The headline claim: plain digital metadata cannot pass for a
	// physical watermark.
	res := fabricateAndVerify(t, ClassMetadataForgery, 3, testVerifier())
	if res.Verdict != VerdictNoWatermark {
		t.Fatalf("verdict = %s, want NO-WATERMARK", res.Verdict)
	}
}

func TestDigitalCloneRefused(t *testing.T) {
	res := fabricateAndVerify(t, ClassDigitalClone, 4, testVerifier())
	if res.Verdict != VerdictNoWatermark {
		t.Fatalf("verdict = %s, want NO-WATERMARK", res.Verdict)
	}
}

func TestUnmarkedRefused(t *testing.T) {
	res := fabricateAndVerify(t, ClassUnmarked, 5, testVerifier())
	if res.Verdict != VerdictNoWatermark {
		t.Fatalf("verdict = %s, want NO-WATERMARK", res.Verdict)
	}
}

func TestTopUpTamperDetected(t *testing.T) {
	res := fabricateAndVerify(t, ClassTopUpTamper, 6, testVerifier())
	if res.Verdict != VerdictTampered {
		t.Fatalf("verdict = %s, want TAMPERED", res.Verdict)
	}
}

func TestRecycledDetectedWithScreen(t *testing.T) {
	v := testVerifier()
	v.CheckRecycling = true
	res := fabricateAndVerify(t, ClassRecycled, 7, v)
	if res.Verdict != VerdictRecycled {
		t.Fatalf("verdict = %s, want RECYCLED (worn %d/%d)", res.Verdict, res.WornDataSegments, res.SampledDataSegments)
	}
	if res.WornDataSegments == 0 {
		t.Error("no worn segments found on recycled chip")
	}
}

func TestRecycledPassesWithoutScreen(t *testing.T) {
	// Without the recycling screen, a recycled genuine chip passes —
	// exactly the gap [6],[7] address and the paper acknowledges.
	res := fabricateAndVerify(t, ClassRecycled, 7, testVerifier())
	if res.Verdict != VerdictGenuine {
		t.Fatalf("verdict = %s, want GENUINE (watermark is authentic)", res.Verdict)
	}
}

func TestGenuinePassesRecyclingScreen(t *testing.T) {
	v := testVerifier()
	v.CheckRecycling = true
	res := fabricateAndVerify(t, ClassGenuineAccept, 8, v)
	if res.Verdict != VerdictGenuine {
		t.Fatalf("verdict = %s: fresh genuine chip tripped the wear screen (worn %d/%d)",
			res.Verdict, res.WornDataSegments, res.SampledDataSegments)
	}
	if res.SampledDataSegments == 0 {
		t.Error("screen sampled no segments")
	}
}

func TestReplayImprintResidualRisk(t *testing.T) {
	// Honest negative result: a full physical re-imprint of a copied
	// watermark is indistinguishable by physics alone.
	res := fabricateAndVerify(t, ClassReplayImprint, 9, testVerifier())
	if res.Verdict != VerdictGenuine {
		t.Fatalf("verdict = %s; the replay imprint should pass physics checks (documented residual risk)", res.Verdict)
	}
}

func TestWrongManufacturerFlagged(t *testing.T) {
	cfg := testConfig()
	cfg.Manufacturer = "EVILCORP"
	dev, err := Fabricate(ClassGenuineAccept, cfg, 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testVerifier().Verify(dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictWrongIdentity {
		t.Fatalf("verdict = %s, want WRONG-IDENTITY", res.Verdict)
	}
}

func TestForgedSignatureDetected(t *testing.T) {
	// A counterfeiter with the right format but the wrong key.
	cfg := testConfig()
	cfg.Codec = wmcode.Codec{Key: []byte("stolen-wrong-key")}
	dev, err := Fabricate(ClassGenuineAccept, cfg, 11, 78)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testVerifier().Verify(dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictTampered {
		t.Fatalf("verdict = %s, want TAMPERED (bad signature)", res.Verdict)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v := VerdictGenuine; v <= VerdictDuplicateID; v++ {
		if v.String() == "INVALID" {
			t.Errorf("verdict %d has no string", v)
		}
	}
	if Verdict(99).String() != "INVALID" {
		t.Error("unknown verdict should be INVALID")
	}
	if !VerdictGenuine.Accepted() || VerdictTampered.Accepted() {
		t.Error("Accepted wrong")
	}
}

func TestChipClassStrings(t *testing.T) {
	for c := ClassGenuineAccept; c <= ClassReplayImprint; c++ {
		if c.String() == "invalid" {
			t.Errorf("class %d has no string", c)
		}
	}
	if ChipClass(99).String() != "invalid" {
		t.Error("unknown class should be invalid")
	}
	if !ClassGenuineAccept.ShouldAccept() || ClassRecycled.ShouldAccept() {
		t.Error("ShouldAccept wrong")
	}
}

func TestFabricateUnknownClass(t *testing.T) {
	if _, err := Fabricate(ChipClass(99), testConfig(), 1, 1); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestConfusionMatrix(t *testing.T) {
	var m ConfusionMatrix
	m.Add(ClassGenuineAccept, VerdictGenuine)
	m.Add(ClassGenuineAccept, VerdictGenuine)
	m.Add(ClassGenuineAccept, VerdictTampered) // false reject
	m.Add(ClassUnmarked, VerdictNoWatermark)
	m.Add(ClassUnmarked, VerdictGenuine) // false accept
	if m.Total != 5 {
		t.Errorf("Total = %d", m.Total)
	}
	if got := m.FalseAccepts(); got != 1 {
		t.Errorf("FalseAccepts = %d", got)
	}
	if got := m.FalseRejects(); got != 1 {
		t.Errorf("FalseRejects = %d", got)
	}
	if got := m.CorrectAcceptRate(); got != 0.6 {
		t.Errorf("CorrectAcceptRate = %v", got)
	}
	s := m.String()
	if s == "" {
		t.Error("empty matrix string")
	}
}

func TestRunPopulationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is slow")
	}
	spec := PopulationSpec{
		ClassGenuineAccept:   2,
		ClassGenuineReject:   1,
		ClassMetadataForgery: 1,
		ClassDigitalClone:    1,
		ClassUnmarked:        1,
		ClassTopUpTamper:     1,
	}
	matrix, outcomes, err := RunPopulation(spec, testConfig(), testVerifier(), 0xBA5E)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 7 || matrix.Total != 7 {
		t.Fatalf("population size = %d / %d", len(outcomes), matrix.Total)
	}
	if fa := matrix.FalseAccepts(); fa != 0 {
		t.Errorf("false accepts = %d\n%s", fa, matrix)
	}
	if fr := matrix.FalseRejects(); fr != 0 {
		t.Errorf("false rejects = %d\n%s", fr, matrix)
	}
	if rate := matrix.CorrectAcceptRate(); rate != 1 {
		t.Errorf("correct rate = %v\n%s", rate, matrix)
	}
}

func TestAuditorBasics(t *testing.T) {
	a := NewAuditor()
	if dup := a.Record("TC", 42); dup {
		t.Fatal("first record flagged duplicate")
	}
	if dup := a.Record("TC", 42); !dup {
		t.Fatal("second record not flagged")
	}
	if dup := a.Record("OTHER", 42); dup {
		t.Fatal("same die ID from another manufacturer flagged")
	}
	if got := a.Count("TC", 42); got != 2 {
		t.Errorf("Count = %d", got)
	}
	if got := a.Duplicates(); len(got) != 1 || got[0] != 42 {
		t.Errorf("Duplicates = %v", got)
	}
	if a.Total() != 3 {
		t.Errorf("Total = %d", a.Total())
	}
}

func TestAuditCatchesReplayImprint(t *testing.T) {
	// A replay-imprinted clone carries a copied die ID: physics passes
	// it, the batch audit does not.
	cfg := testConfig()
	const victimDie = 4242
	genuine, err := Fabricate(ClassGenuineAccept, cfg, 0xA11D, victimDie)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := Fabricate(ClassReplayImprint, cfg, 0xA11E, victimDie)
	if err != nil {
		t.Fatal(err)
	}
	v := testVerifier()
	v.Audit = NewAuditor()
	res, err := v.Verify(genuine)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictGenuine {
		t.Fatalf("genuine verdict = %s", res.Verdict)
	}
	res, err = v.Verify(clone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictDuplicateID {
		t.Fatalf("clone verdict = %s, want DUPLICATE-ID", res.Verdict)
	}
	if dups := v.Audit.Duplicates(); len(dups) != 1 || dups[0] != victimDie {
		t.Fatalf("duplicates = %v", dups)
	}
}

func TestRunPopulationParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is slow")
	}
	spec := PopulationSpec{
		ClassGenuineAccept:   2,
		ClassMetadataForgery: 1,
		ClassUnmarked:        1,
	}
	serialM, serialO, err := RunPopulation(spec, testConfig(), testVerifier(), 0x9A11)
	if err != nil {
		t.Fatal(err)
	}
	parallelM, parallelO, err := RunPopulationContext(context.Background(), spec, testConfig(), testVerifier(), 0x9A11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialO) != len(parallelO) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serialO), len(parallelO))
	}
	for i := range serialO {
		if serialO[i].Class != parallelO[i].Class || serialO[i].Verdict != parallelO[i].Verdict {
			t.Errorf("outcome %d differs: %v/%v vs %v/%v", i,
				serialO[i].Class, serialO[i].Verdict, parallelO[i].Class, parallelO[i].Verdict)
		}
	}
	if serialM.CorrectAcceptRate() != parallelM.CorrectAcceptRate() {
		t.Error("matrices differ")
	}
}

func TestRunPopulationParallelRejectsAuditor(t *testing.T) {
	v := testVerifier()
	v.Audit = NewAuditor()
	_, _, err := RunPopulationContext(context.Background(), PopulationSpec{ClassUnmarked: 1}, testConfig(), v, 1, 4)
	if err == nil {
		t.Fatal("auditor accepted in parallel run")
	}
}

// TestRunPopulationParallelSingleWorkerDelegates: one worker runs the
// jobs in order, so it accepts the auditor a parallel run refuses.
func TestRunPopulationParallelSingleWorkerDelegates(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is slow")
	}
	v := testVerifier()
	v.Audit = NewAuditor()
	_, o, err := RunPopulationContext(context.Background(), PopulationSpec{ClassUnmarked: 1}, testConfig(), v, 1, 1)
	if err != nil || len(o) != 1 {
		t.Fatalf("single-worker run failed: %v, %d outcomes", err, len(o))
	}
}

// TestRunPopulationMatchesUnpooledFabrication pins a population run end
// to end: each outcome of a 4-worker run, wear-heavy recycled chips
// included, must equal fabricating and verifying that job's chip by
// hand, outside the worker pool.
func TestRunPopulationMatchesUnpooledFabrication(t *testing.T) {
	if testing.Short() {
		t.Skip("population run is slow")
	}
	spec := PopulationSpec{
		ClassGenuineAccept:   2,
		ClassRecycled:        1,
		ClassMetadataForgery: 1,
		ClassUnmarked:        1,
	}
	cfg := testConfig()
	mkVerifier := func() *Verifier {
		v := testVerifier()
		v.CheckRecycling = true
		return v
	}
	const seedBase = 0xA4E7A
	_, pooled, err := RunPopulationContext(context.Background(), spec, cfg, mkVerifier(), seedBase, 4)
	if err != nil {
		t.Fatal(err)
	}
	jobs := populationJobs(spec, seedBase)
	if len(pooled) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(pooled), len(jobs))
	}
	v := mkVerifier()
	for i, j := range jobs {
		dev, err := Fabricate(j.class, cfg, j.seed, j.die)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Verify(dev)
		if err != nil {
			t.Fatal(err)
		}
		want := Outcome{Class: j.class, Verdict: res.Verdict, Result: res}
		got := pooled[i]
		if got.Class != want.Class || got.Verdict != want.Verdict {
			t.Errorf("job %d (%s): verdict %s, want %s", i, j.class, got.Verdict, want.Verdict)
		}
		if fmt.Sprint(got.Result.DecodeErr) != fmt.Sprint(want.Result.DecodeErr) ||
			fmt.Sprint(got.Result.FaultErr) != fmt.Sprint(want.Result.FaultErr) {
			t.Errorf("job %d (%s): errors diverge: %v/%v vs %v/%v", i, j.class,
				got.Result.DecodeErr, got.Result.FaultErr, want.Result.DecodeErr, want.Result.FaultErr)
		}
		got.Result.DecodeErr, want.Result.DecodeErr = nil, nil
		got.Result.FaultErr, want.Result.FaultErr = nil, nil
		if !reflect.DeepEqual(got.Result, want.Result) {
			t.Errorf("job %d (%s): results diverge:\n got %+v\nwant %+v", i, j.class, got.Result, want.Result)
		}
	}
}
