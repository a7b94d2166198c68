package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/registry"
)

// Golden-response tests: the exact response bytes of /v1/verify and
// /v1/verify/batch for every report shape the service can produce —
// genuine, counterfeit (recycled), injected fault, malformed input, and
// DUPLICATE-ID provenance escalation (fleet-registry and in-batch).
//
// The goldens were recorded against the pre-refactor handlers (per-report
// json.Marshal); the zero-alloc pipeline must reproduce them byte for
// byte, which is the PR-4-style equivalence proof for the whole request
// lifecycle: format sniffing, loader reuse, the append-style report
// encoder, and the no-unmarshal provenance overlay all sit under this
// test. Regenerate deliberately with:
//
//	go test ./internal/service/ -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite the golden response files")

// Fixed fixture identities. The victim chip's die id is pre-enrolled in
// the fleet registry, so the clone (same die id, different physical
// seed) escalates; the batch pair share a die id only with each other,
// so they escalate batch-scope.
const (
	goldenSeedGenuine  = 0x60D1
	goldenSeedRecycled = 0x60D2
	goldenSeedVictim   = 0x60D3
	goldenSeedClone    = 0x60D4
	goldenSeedBatchA   = 0x60D5
	goldenSeedBatchB   = 0x60D6
	goldenSeedNAND     = 0x60D7

	goldenDieGenuine  = 4001
	goldenDieRecycled = 4002
	goldenDieCloned   = 4003
	goldenDieBatchDup = 4005
)

// goldenStore builds the fleet registry every golden server sees: the
// victim's identity is on file under the victim's physical fingerprint.
func goldenStore(t testing.TB) registry.Store {
	t.Helper()
	store := registry.NewMemory(0)
	if _, err := store.Enroll(registry.Enrollment{
		Key:         registry.Key{Manufacturer: "TC", DieID: goldenDieCloned},
		Fingerprint: registry.DeviceFingerprint("FM-SIM16", goldenSeedVictim),
		Source:      "golden",
	}); err != nil {
		t.Fatal(err)
	}
	return store
}

// goldenVerifier enables the recycling screen so the RECYCLED verdict
// (with its worn-segment counts) is part of the pinned surface.
func goldenVerifier() counterfeit.Verifier {
	v := testVerifier()
	v.CheckRecycling = true
	return v
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden_"+name+".json")
}

// checkGolden asserts the response status and compares the exact body
// bytes against the recorded golden (or rewrites it under -update).
func checkGolden(t *testing.T, name string, wantStatus int, resp *http.Response) {
	t.Helper()
	body := readAll(t, resp)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d\nbody: %s", name, resp.StatusCode, wantStatus, body)
	}
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no golden recorded (run with -update): %v", name, err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: response drifted from the recorded golden\n got: %s\nwant: %s", name, body, want)
	}
}

func TestGoldenVerifyResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{Verifier: goldenVerifier(), Provenance: goldenStore(t)})
	cases := []struct {
		name   string
		body   []byte
		status int
	}{
		{"single_genuine", chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedGenuine, goldenDieGenuine), http.StatusOK},
		{"single_recycled", chipBytes(t, counterfeit.ClassRecycled, goldenSeedRecycled, goldenDieRecycled), http.StatusOK},
		{"single_duplicate", chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedClone, goldenDieCloned), http.StatusOK},
		{"single_nand", nandBlank(t, goldenSeedNAND), http.StatusOK},
		{"single_error", []byte("not a chip"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		checkGolden(t, tc.name, tc.status, postChip(t, ts.URL+"/v1/verify", tc.body))
		// A second pass serves GENUINE/refused verdicts from the verdict
		// cache and re-applies the provenance overlay per request; the
		// bytes must not change either way.
		checkGolden(t, tc.name, tc.status, postChip(t, ts.URL+"/v1/verify", tc.body))
	}
}

func TestGoldenFaultResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Verifier: goldenVerifier(),
		Decorate: func(d device.Device) device.Device {
			return device.InjectFaults(d, device.FaultConfig{Seed: 7, EraseTimeoutProb: 1})
		},
	})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedGenuine, goldenDieGenuine)
	checkGolden(t, "single_fault", http.StatusOK, postChip(t, ts.URL+"/v1/verify", chip))
}

// TestGoldenBatchResponse pins the whole batch envelope: input-order
// results, the embedded per-chip ERROR report, the summary with its
// sorted verdict tally, fleet-registry escalation of the clone, and the
// retroactive in-batch escalation of both holders of a duplicated id.
func TestGoldenBatchResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Verifier: goldenVerifier(), Provenance: goldenStore(t), Workers: 4})
	var req BatchRequest
	for _, c := range [][]byte{
		chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedGenuine, goldenDieGenuine),
		chipBytes(t, counterfeit.ClassRecycled, goldenSeedRecycled, goldenDieRecycled),
		chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedClone, goldenDieCloned),
		[]byte(`{"format":"bogus"}`),
		chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedBatchA, goldenDieBatchDup),
		chipBytes(t, counterfeit.ClassGenuineAccept, goldenSeedBatchB, goldenDieBatchDup),
	} {
		req.Chips = append(req.Chips, json.RawMessage(c))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "batch", http.StatusOK, postChip(t, ts.URL+"/v1/verify/batch", body))
	// Identical request again: the physics verdicts now come from the
	// cache, the batch-scope dedup state is rebuilt per request, and the
	// response must stay byte-identical.
	checkGolden(t, "batch", http.StatusOK, postChip(t, ts.URL+"/v1/verify/batch", body))
}
