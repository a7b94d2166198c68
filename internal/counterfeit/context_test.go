package counterfeit

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func testFactory() FactoryConfig {
	return FactoryConfig{
		Fab:   mcu.Fab(mcu.PartSmallSim()),
		Codec: wmcode.Codec{Key: []byte("ctx-test-key")},
	}
}

// TestVerifyContextCanceled aborts a verification before it starts and
// checks the chip is not classified.
func TestVerifyContextCanceled(t *testing.T) {
	dev, err := Fabricate(ClassGenuineAccept, testFactory(), 0x51, 2001)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v := &Verifier{Codec: wmcode.Codec{Key: []byte("ctx-test-key")}}
	_, err = v.VerifyContext(ctx, dev)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestVerifyContextMatchesVerify pins the satellite requirement: a
// never-canceled context changes nothing about the result.
func TestVerifyContextMatchesVerify(t *testing.T) {
	cfg := testFactory()
	mk := func() *Verifier {
		return &Verifier{Codec: wmcode.Codec{Key: []byte("ctx-test-key")}, CheckRecycling: true}
	}
	for _, class := range []ChipClass{ClassGenuineAccept, ClassRecycled, ClassUnmarked} {
		devA, err := Fabricate(class, cfg, 0x77, 3001)
		if err != nil {
			t.Fatal(err)
		}
		devB, err := Fabricate(class, cfg, 0x77, 3001)
		if err != nil {
			t.Fatal(err)
		}
		resA, err := mk().Verify(devA)
		if err != nil {
			t.Fatal(err)
		}
		resB, err := mk().VerifyContext(context.Background(), devB)
		if err != nil {
			t.Fatal(err)
		}
		if resA.Verdict != resB.Verdict ||
			resA.ReplicaDisagreement != resB.ReplicaDisagreement ||
			resA.WornDataSegments != resB.WornDataSegments {
			t.Fatalf("%s: VerifyContext diverged from Verify: %+v vs %+v", class, resA, resB)
		}
	}
}

// TestVerifyContextDeadlineMidScreen drives a verification into the
// per-segment recycling screen with an already-expired deadline budget
// and checks the abort error wraps DeadlineExceeded.
func TestVerifyContextDeadlineMidScreen(t *testing.T) {
	dev, err := Fabricate(ClassGenuineAccept, testFactory(), 0x91, 4001)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	v := &Verifier{Codec: wmcode.Codec{Key: []byte("ctx-test-key")}, CheckRecycling: true}
	_, err = v.VerifyContext(ctx, dev)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestRunPopulationContextMatchesParallel pins identical outcomes
// between the serial runner and a never-canceled 2-worker context run,
// and the canceled run's error.
func TestRunPopulationContextMatchesParallel(t *testing.T) {
	spec := PopulationSpec{ClassGenuineAccept: 2, ClassUnmarked: 1}
	cfg := testFactory()
	mk := func() *Verifier { return &Verifier{Codec: wmcode.Codec{Key: []byte("ctx-test-key")}} }
	mA, oA, err := RunPopulation(spec, cfg, mk(), 0xBA5E)
	if err != nil {
		t.Fatal(err)
	}
	mB, oB, err := RunPopulationContext(context.Background(), spec, cfg, mk(), 0xBA5E, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mA.Total != mB.Total || len(oA) != len(oB) {
		t.Fatalf("population shape diverged: %d/%d vs %d/%d", mA.Total, len(oA), mB.Total, len(oB))
	}
	for i := range oA {
		if oA[i].Verdict != oB[i].Verdict || oA[i].Class != oB[i].Class {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, oA[i], oB[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RunPopulationContext(ctx, spec, cfg, mk(), 0xBA5E, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestVerdictTextRoundTrip checks every verdict serializes to its
// canonical string and parses back, and that JSON uses the text form.
func TestVerdictTextRoundTrip(t *testing.T) {
	for v := VerdictGenuine; v <= VerdictInconclusive; v++ {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := `"` + v.String() + `"`
		if string(raw) != want {
			t.Fatalf("verdict %d marshaled to %s, want %s", int(v), raw, want)
		}
		var back Verdict
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("verdict %s did not round-trip (got %s)", v, back)
		}
	}
	if _, err := Verdict(99).MarshalText(); err == nil {
		t.Fatal("invalid verdict must not marshal")
	}
	var v Verdict
	if err := v.UnmarshalText([]byte("NOT-A-VERDICT")); err == nil {
		t.Fatal("unknown verdict text must not parse")
	}
}
