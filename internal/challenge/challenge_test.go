package challenge_test

import (
	"bytes"
	"testing"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/wmcode"
)

// backends lists every substrate the interrogation must be neutral
// over.
func backends() map[string]device.Fab {
	return map[string]device.Fab{
		"nor":   mcu.Fab(mcu.PartSmallSim()),
		"nand":  nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()),
		"reram": reram.DefaultFab(),
	}
}

// TestResponseProperties pins, per backend: the response balances near
// 50/50 (the self-calibration worked), the fingerprint is reproducible
// on the same die, different dice diverge, and different nonces
// diverge on the same die.
func TestResponseProperties(t *testing.T) {
	for name, fab := range backends() {
		t.Run(name, func(t *testing.T) {
			pol := challenge.Policy{Nonce: 0xC4A11E}
			devA, err := fab(0xD1E)
			if err != nil {
				t.Fatal(err)
			}
			respA, err := challenge.Interrogate(devA, pol)
			if err != nil {
				t.Fatal(err)
			}
			if respA.Bits == 0 || respA.PulseUs <= 0 {
				t.Fatalf("degenerate response: %+v", respA)
			}
			frac := float64(respA.Ones) / float64(respA.Bits)
			if frac < 0.30 || frac > 0.70 {
				t.Fatalf("response not balanced: %d/%d ones (%.2f)", respA.Ones, respA.Bits, frac)
			}

			// Same die, fresh instance: identical fingerprint.
			devA2, err := fab(0xD1E)
			if err != nil {
				t.Fatal(err)
			}
			respA2, err := challenge.Interrogate(devA2, pol)
			if err != nil {
				t.Fatal(err)
			}
			if respA2.Fingerprint != respA.Fingerprint {
				t.Fatal("same die produced different fingerprints")
			}

			// Different die: different fingerprint.
			devB, err := fab(0xB0B)
			if err != nil {
				t.Fatal(err)
			}
			respB, err := challenge.Interrogate(devB, pol)
			if err != nil {
				t.Fatal(err)
			}
			if respB.Fingerprint == respA.Fingerprint {
				t.Fatal("different dice produced the same fingerprint")
			}

			// Different nonce: different challenge, different response.
			devA3, err := fab(0xD1E)
			if err != nil {
				t.Fatal(err)
			}
			respN, err := challenge.Interrogate(devA3, challenge.Policy{Nonce: 0x0DDBA11})
			if err != nil {
				t.Fatal(err)
			}
			if respN.Fingerprint == respA.Fingerprint {
				t.Fatal("different nonces produced the same fingerprint")
			}
		})
	}
}

// TestCloneDiverges pins the axis the subsystem exists for: a
// replay-imprint clone — bit-exact watermark, GENUINE physics verdict
// — still answers the challenge with its own die's fingerprint, not
// the victim's.
func TestCloneDiverges(t *testing.T) {
	for name, fab := range backends() {
		t.Run(name, func(t *testing.T) {
			cfg := counterfeit.FactoryConfig{Fab: fab, Codec: wmcode.Codec{Key: []byte("k")}}
			victim, err := counterfeit.Fabricate(counterfeit.ClassGenuineAccept, cfg, 0x5EED1, 9001)
			if err != nil {
				t.Fatal(err)
			}
			clone, err := counterfeit.Fabricate(counterfeit.ClassReplayImprint, cfg, 0x5EED2, 9001)
			if err != nil {
				t.Fatal(err)
			}
			pol := challenge.Policy{}
			rv, err := challenge.Interrogate(victim, pol)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := challenge.Interrogate(clone, pol)
			if err != nil {
				t.Fatal(err)
			}
			if rv.Fingerprint == rc.Fingerprint {
				t.Fatal("clone reproduced the victim's challenge fingerprint")
			}
		})
	}
}

// TestSerializedDeterminism pins the service contract: interrogating
// two devices loaded from the same chip bytes yields the same
// fingerprint, even when the chip has a history (imprint + field use).
func TestSerializedDeterminism(t *testing.T) {
	cfg := counterfeit.FactoryConfig{Fab: reram.DefaultFab(), Codec: wmcode.Codec{Key: []byte("k")}}
	dev, err := counterfeit.Fabricate(counterfeit.ClassRecycled, cfg, 0xCAFE, 31337)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fps := make([]challenge.Response, 2)
	for i := range fps {
		loaded, err := reram.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fps[i], err = challenge.Interrogate(loaded, challenge.Policy{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fps[0].Fingerprint != fps[1].Fingerprint {
		t.Fatal("same chip bytes produced different fingerprints")
	}
	if fps[0].PulseUs != fps[1].PulseUs || fps[0].Ones != fps[1].Ones {
		t.Fatalf("response metadata diverged: %+v vs %+v", fps[0], fps[1])
	}
}

// TestPolicyValidate covers the policy guard rails.
func TestPolicyValidate(t *testing.T) {
	if err := (challenge.Policy{}).Validate(); err != nil {
		t.Fatalf("zero policy invalid: %v", err)
	}
	bad := []challenge.Policy{
		{Reads: 4},
		{Reads: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("invalid policy %+v accepted", p)
		}
	}
	if _, err := challenge.Interrogate(mustFab(t, mcu.Fab(mcu.PartSmallSim())), challenge.Policy{Reads: 2}); err == nil {
		t.Fatal("interrogation with an even read count was accepted")
	}
}

func mustFab(t *testing.T, fab device.Fab) device.Device {
	t.Helper()
	d, err := fab(1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
