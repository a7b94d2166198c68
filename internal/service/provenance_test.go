package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/registry"
)

func decodeEnrollReport(t *testing.T, resp *http.Response) EnrollReport {
	t.Helper()
	defer resp.Body.Close()
	var rep EnrollReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEnrollWithoutRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postChip(t, ts.URL+"/v1/enroll", chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 1001))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("enroll without registry: status %d, want 501", resp.StatusCode)
	}
}

func TestEnrollRejectsNonGenuine(t *testing.T) {
	_, ts := newTestServer(t, Config{Provenance: registry.NewMemory(0)})
	resp := postChip(t, ts.URL+"/v1/enroll", chipBytes(t, counterfeit.ClassUnmarked, 0xA2, 1002))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("enroll of unmarked chip: status %d, want 422", resp.StatusCode)
	}
}

func TestEnrollAndEscalate(t *testing.T) {
	store := registry.NewMemory(0)
	_, ts := newTestServer(t, Config{Provenance: store})
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 1001)
	// Same signed identity (die 1001) on a different physical die: the
	// replay-imprint clone scenario. Physics alone calls both GENUINE.
	clone := chipBytes(t, counterfeit.ClassGenuineAccept, 0xB7, 1001)

	resp := postChip(t, ts.URL+"/v1/enroll?source=line-a", genuine)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enroll: status %d", resp.StatusCode)
	}
	er := decodeEnrollReport(t, resp)
	if er.Verdict != "GENUINE" || !er.Accepted || er.Count != 1 || er.Duplicate || er.Conflict {
		t.Fatalf("first enrollment: %+v", er)
	}
	if er.DieID != 1001 || er.Fingerprint == "" {
		t.Fatalf("enrollment identity: %+v", er)
	}

	// Re-enrolling the same physical chip is a duplicate, not a conflict.
	er = decodeEnrollReport(t, postChip(t, ts.URL+"/v1/enroll", genuine))
	if !er.Duplicate || er.Conflict || !er.Accepted || er.Count != 2 {
		t.Fatalf("re-enrollment of same chip: %+v", er)
	}

	// The enrolled chip itself re-verifies clean.
	rep := decodeReport(t, postChip(t, ts.URL+"/v1/verify", genuine))
	if rep.Verdict != "GENUINE" || rep.Provenance != "" {
		t.Fatalf("enrolled chip re-verify: %+v", rep)
	}

	// The clone is escalated: physics-GENUINE, but its die id is on
	// file under a different fingerprint.
	rep = decodeReport(t, postChip(t, ts.URL+"/v1/verify", clone))
	if rep.Verdict != "DUPLICATE-ID" || rep.Accepted {
		t.Fatalf("clone verify: %+v", rep)
	}
	if rep.Provenance == "" {
		t.Fatal("escalated report must carry the provenance reason")
	}

	// Enrolling the clone makes the identity conflicted — and the taint
	// retroactively catches the original holder too.
	er = decodeEnrollReport(t, postChip(t, ts.URL+"/v1/enroll", clone))
	if !er.Conflict || er.Accepted || er.Verdict != "DUPLICATE-ID" {
		t.Fatalf("clone enrollment: %+v", er)
	}
	rep = decodeReport(t, postChip(t, ts.URL+"/v1/verify", genuine))
	if rep.Verdict != "DUPLICATE-ID" {
		t.Fatalf("victim after conflict: %+v", rep)
	}

	vars := metricsVars(t, ts.URL)
	if got := counterValue(t, vars, "fmverifyd_enroll_total"); got != 3 {
		t.Fatalf("enroll_total %d, want 3", got)
	}
	if got := counterValue(t, vars, "fmverifyd_enroll_conflicts_total"); got != 1 {
		t.Fatalf("enroll_conflicts_total %d, want 1", got)
	}
	if got := counterValue(t, vars, "fmverifyd_provenance_escalations_total"); got != 2 {
		t.Fatalf("escalations %d, want 2 (clone verify + victim verify)", got)
	}
	if got := counterValue(t, vars, "fmregistry_keys"); got != 1 {
		t.Fatalf("fmregistry_keys %d, want 1", got)
	}
	if got := counterValue(t, vars, "fmregistry_conflicts"); got != 1 {
		t.Fatalf("fmregistry_conflicts %d, want 1", got)
	}
}

// TestEscalationNotCached pins the cache/provenance layering: the cache
// stores the physics verdict, so an escalation reflects live registry
// state even when the chip bytes are cache-hits.
func TestEscalationNotCached(t *testing.T) {
	store := registry.NewMemory(0)
	_, ts := newTestServer(t, Config{Provenance: store})
	clone := chipBytes(t, counterfeit.ClassGenuineAccept, 0xB7, 2002)

	// First sight: registry is empty, the chip passes and is cached.
	rep := decodeReport(t, postChip(t, ts.URL+"/v1/verify", clone))
	if rep.Verdict != "GENUINE" {
		t.Fatalf("pre-enrollment verify: %+v", rep)
	}
	// Another physical chip enrolls the same id directly into the store.
	if _, err := store.Enroll(registry.Enrollment{
		Key:         registry.Key{Manufacturer: rep.Payload.Manufacturer, DieID: rep.Payload.DieID},
		Fingerprint: registry.DeviceFingerprint("other-part", 999),
		Source:      "line-b",
	}); err != nil {
		t.Fatal(err)
	}
	// The same bytes now escalate despite the cache hit.
	resp := postChip(t, ts.URL+"/v1/verify", clone)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("expected a cache hit, got %q", resp.Header.Get("X-Cache"))
	}
	rep = decodeReport(t, resp)
	if rep.Verdict != "DUPLICATE-ID" || rep.Provenance == "" {
		t.Fatalf("cache-hit escalation: %+v", rep)
	}
}

// TestDurableRestartDetection is the acceptance scenario: a duplicate
// die id enrolled in one fmverifyd process lifetime is detected in the
// next one — the registry survives restart.
func TestDurableRestartDetection(t *testing.T) {
	dir := t.TempDir()
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 3003)
	clone := chipBytes(t, counterfeit.ClassGenuineAccept, 0xC9, 3003)

	store1, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Provenance: store1})
	er := decodeEnrollReport(t, postChip(t, ts1.URL+"/v1/enroll", genuine))
	if !er.Accepted {
		t.Fatalf("enrollment in first lifetime: %+v", er)
	}
	ts1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process lifetime: same directory, fresh store and server.
	store2, err := registry.Open(dir, registry.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	_, ts2 := newTestServer(t, Config{Provenance: store2})
	rep := decodeReport(t, postChip(t, ts2.URL+"/v1/verify", clone))
	if rep.Verdict != "DUPLICATE-ID" || rep.Accepted {
		t.Fatalf("clone after restart: %+v", rep)
	}
	// The enrolled original still verifies clean after recovery.
	rep = decodeReport(t, postChip(t, ts2.URL+"/v1/verify", genuine))
	if rep.Verdict != "GENUINE" {
		t.Fatalf("original after restart: %+v", rep)
	}
}

// TestBatchProvenanceDeterministic pins batch semantics: cross-item
// duplicate detection with retroactive taint, retry-safety for
// identical bytes, and byte-identical responses across repeated posts.
func TestBatchProvenanceDeterministic(t *testing.T) {
	store := registry.NewMemory(0)
	_, ts := newTestServer(t, Config{Provenance: store, Workers: 4})
	chipA := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 4004) // victim
	cloneA := chipBytes(t, counterfeit.ClassGenuineAccept, 0xD2, 4004)
	chipB := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA3, 4005) // clean
	unmarked := chipBytes(t, counterfeit.ClassUnmarked, 0xA4, 4006)

	mkBatch := func(chips ...[]byte) []byte {
		req := BatchRequest{}
		for _, c := range chips {
			req.Chips = append(req.Chips, json.RawMessage(c))
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	// A batch of pure retries must not escalate: same bytes, same
	// fingerprint, no conflict.
	resp := postChip(t, ts.URL+"/v1/verify/batch", mkBatch(chipB, chipB))
	raw := readAll(t, resp)
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Summary.Accepted != 2 || br.Summary.Verdicts["DUPLICATE-ID"] != 0 {
		t.Fatalf("retry batch summary: %+v", br.Summary)
	}

	// Victim first, clone later: the post-pass retroactively taints the
	// victim even though it was screened first.
	batch := mkBatch(chipA, chipB, unmarked, cloneA)
	resp = postChip(t, ts.URL+"/v1/verify/batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	first := readAll(t, resp)
	if err := json.Unmarshal(first, &br); err != nil {
		t.Fatal(err)
	}
	if br.Summary.Chips != 4 || br.Summary.Failed != 0 {
		t.Fatalf("batch summary: %+v", br.Summary)
	}
	if br.Summary.Verdicts["DUPLICATE-ID"] != 2 {
		t.Fatalf("duplicate verdicts %d, want 2 (victim and clone): %+v",
			br.Summary.Verdicts["DUPLICATE-ID"], br.Summary)
	}
	if br.Summary.Accepted != 1 {
		t.Fatalf("accepted %d, want 1 (only the clean chip): %+v", br.Summary.Accepted, br.Summary)
	}
	for _, idx := range []int{0, 3} {
		var rep ChipReport
		if err := json.Unmarshal(br.Results[idx], &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Verdict != "DUPLICATE-ID" || rep.Provenance == "" {
			t.Fatalf("result %d not escalated: %+v", idx, rep)
		}
	}

	// Determinism: the same batch again — now fully cache-hot and with
	// possibly different fan-out scheduling — must produce exactly the
	// same bytes.
	for i := 0; i < 3; i++ {
		again := readAll(t, postChip(t, ts.URL+"/v1/verify/batch", batch))
		if !bytes.Equal(first, again) {
			t.Fatalf("batch response %d not byte-identical:\n%s\nvs\n%s", i, first, again)
		}
	}
}

// TestBatchFleetEscalation pins the fleet half of the batch post-pass:
// an id enrolled outside the batch escalates batch members bearing it.
func TestBatchFleetEscalation(t *testing.T) {
	store := registry.NewMemory(0)
	_, ts := newTestServer(t, Config{Provenance: store})
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 5005)
	clone := chipBytes(t, counterfeit.ClassGenuineAccept, 0xE4, 5005)

	if resp := postChip(t, ts.URL+"/v1/enroll", genuine); resp.StatusCode != http.StatusOK {
		t.Fatalf("enroll status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	body, err := json.Marshal(BatchRequest{Chips: []json.RawMessage{clone}})
	if err != nil {
		t.Fatal(err)
	}
	resp := postChip(t, ts.URL+"/v1/verify/batch", body)
	var br BatchResponse
	if err := json.Unmarshal(readAll(t, resp), &br); err != nil {
		t.Fatal(err)
	}
	var rep ChipReport
	if err := json.Unmarshal(br.Results[0], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != "DUPLICATE-ID" {
		t.Fatalf("fleet escalation in batch: %+v", rep)
	}
}

// TestProvenanceOffIsUnchanged guards the default path: without a
// registry, duplicate ids inside one batch pass exactly as before.
func TestProvenanceOffIsUnchanged(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	chipA := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 6006)
	cloneA := chipBytes(t, counterfeit.ClassGenuineAccept, 0xF5, 6006)
	body, err := json.Marshal(BatchRequest{Chips: []json.RawMessage{chipA, cloneA}})
	if err != nil {
		t.Fatal(err)
	}
	resp := postChip(t, ts.URL+"/v1/verify/batch", body)
	var br BatchResponse
	if err := json.Unmarshal(readAll(t, resp), &br); err != nil {
		t.Fatal(err)
	}
	if br.Summary.Accepted != 2 {
		t.Fatalf("without a registry both chips pass physics: %+v", br.Summary)
	}
}

// TestEnrollSourceLabel pins that the ?source= label lands in the store.
func TestEnrollSourceLabel(t *testing.T) {
	store := registry.NewMemory(0)
	_, ts := newTestServer(t, Config{Provenance: store})
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 7007)
	er := decodeEnrollReport(t, postChip(t, ts.URL+"/v1/enroll?source=station-9", genuine))
	if !er.Accepted {
		t.Fatalf("enroll: %+v", er)
	}
	lr, ok := store.Lookup(registry.Key{Manufacturer: er.Manufacturer, DieID: er.DieID})
	if !ok {
		t.Fatal("enrollment not in store")
	}
	if lr.First.Source != "station-9" {
		t.Fatalf("source %q, want station-9", lr.First.Source)
	}
	if lr.First.UnixMicro == 0 {
		t.Fatal("enrollment timestamp not stamped")
	}
	if fmt.Sprintf("%x", lr.Fingerprint[:8]) != er.Fingerprint[:16] {
		t.Fatalf("fingerprint mismatch: store %s, report %s", lr.Fingerprint, er.Fingerprint)
	}
}
