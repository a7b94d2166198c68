package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
	"github.com/flashmark/flashmark/internal/wmcode"
)

const testKey = "service-test-key"

func testVerifier() counterfeit.Verifier {
	return counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte(testKey)}}
}

// chipBytes fabricates one chip of the given class and serializes it the
// way a client would upload it.
func chipBytes(t testing.TB, class counterfeit.ChipClass, seed, die uint64) []byte {
	t.Helper()
	return fabChipBytes(t, mcu.Fab(mcu.PartSmallSim()), class, seed, die)
}

// nandChipBytes is chipBytes for a SmallNAND chip.
func nandChipBytes(t testing.TB, class counterfeit.ChipClass, seed, die uint64) []byte {
	t.Helper()
	return fabChipBytes(t, nand.Fab(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams()), class, seed, die)
}

// reramChipBytes is chipBytes for a default ReRAM crossbar chip.
func reramChipBytes(t testing.TB, class counterfeit.ChipClass, seed, die uint64) []byte {
	t.Helper()
	return fabChipBytes(t, reram.DefaultFab(), class, seed, die)
}

func fabChipBytes(t testing.TB, fab device.Fab, class counterfeit.ChipClass, seed, die uint64) []byte {
	t.Helper()
	cfg := counterfeit.FactoryConfig{
		Fab:   fab,
		Codec: wmcode.Codec{Key: []byte(testKey)},
	}
	dev, err := counterfeit.Fabricate(class, cfg, seed, die)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if len(cfg.Verifier.Codec.Key) == 0 {
		cfg.Verifier = testVerifier()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postChip(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeReport(t *testing.T, resp *http.Response) ChipReport {
	t.Helper()
	defer resp.Body.Close()
	var rep ChipReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// metricsVars fetches /debug/vars as a flat map.
func metricsVars(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func counterValue(t *testing.T, vars map[string]any, name string) int {
	t.Helper()
	v, ok := vars[name]
	if !ok {
		t.Fatalf("metric %s not exported", name)
	}
	return int(v.(float64))
}

func TestVerifyGenuineAndCounterfeit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0xA1, 1001)
	resp := postChip(t, ts.URL+"/v1/verify", genuine)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("genuine chip: status %d", resp.StatusCode)
	}
	rep := decodeReport(t, resp)
	if rep.Verdict != "GENUINE" || !rep.Accepted {
		t.Fatalf("genuine chip classified %+v", rep)
	}
	if rep.Payload == nil || rep.Payload.DieID != 1001 {
		t.Fatalf("payload not decoded: %+v", rep.Payload)
	}

	unmarked := chipBytes(t, counterfeit.ClassUnmarked, 0xA2, 1002)
	rep = decodeReport(t, postChip(t, ts.URL+"/v1/verify", unmarked))
	if rep.Verdict != "NO-WATERMARK" || rep.Accepted {
		t.Fatalf("unmarked chip classified %+v", rep)
	}
}

func TestVerifyMalformedChip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string][]byte{
		"not json":     []byte("not a chip"),
		"wrong format": []byte(`{"format":"flashmark-chip","version":99}`),
		"empty":        {},
		"bad array":    []byte(`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","array":"!!!"}`),
	} {
		resp := postChip(t, ts.URL+"/v1/verify", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET verify: status %d, want 405", resp.StatusCode)
	}
}

func TestVerifyBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	resp := postChip(t, ts.URL+"/v1/verify", bytes.Repeat([]byte("x"), 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestRegistryCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0xB1, 1101)
	first := postChip(t, ts.URL+"/v1/verify", chip)
	b1 := readAll(t, first)
	if first.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first screening must miss, got %q", first.Header.Get("X-Cache"))
	}
	second := postChip(t, ts.URL+"/v1/verify", chip)
	b2 := readAll(t, second)
	if second.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second screening must hit, got %q", second.Header.Get("X-Cache"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached response differs:\n%s\n%s", b1, b2)
	}
	vars := metricsVars(t, ts.URL)
	if counterValue(t, vars, "fmverifyd_cache_hits_total") != 1 ||
		counterValue(t, vars, "fmverifyd_cache_misses_total") != 1 {
		t.Fatalf("cache counters off: %v", vars)
	}
	if counterValue(t, vars, "fmverifyd_verdict_genuine_total") != 2 {
		t.Fatal("cache hits must still count verdicts")
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFaultInjectedInconclusive(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Decorate: func(d device.Device) device.Device {
			return device.InjectFaults(d, device.FaultConfig{Seed: 7, EraseTimeoutProb: 1})
		},
	})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0xC1, 1201)
	resp := postChip(t, ts.URL+"/v1/verify", chip)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault must answer 200 + INCONCLUSIVE, got status %d", resp.StatusCode)
	}
	rep := decodeReport(t, resp)
	if rep.Verdict != "INCONCLUSIVE" || rep.Accepted {
		t.Fatalf("fault classified %+v", rep)
	}
	if rep.Fault == "" {
		t.Fatal("fault detail missing from report")
	}
	vars := metricsVars(t, ts.URL)
	if counterValue(t, vars, "fmverifyd_device_faults_total") != 1 {
		t.Fatal("fault counter not incremented")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0xD1, 1301)
	resp := postChip(t, ts.URL+"/v1/verify", chip)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	vars := metricsVars(t, ts.URL)
	if counterValue(t, vars, "fmverifyd_deadline_exceeded_total") != 1 {
		t.Fatal("deadline counter not incremented")
	}
}

func TestPanicRecovery(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Decorate: func(d device.Device) device.Device {
			panic("decorator exploded")
		},
	})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0xE1, 1401)
	resp := postChip(t, ts.URL+"/v1/verify", chip)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	vars := metricsVars(t, ts.URL)
	if counterValue(t, vars, "fmverifyd_panics_total") != 1 {
		t.Fatal("panic counter not incremented")
	}
	// The server keeps serving after a panic.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal("server died after panic")
	}
}

// blockingDevice holds every verification inside Unlock until the gate
// channel is closed, so tests can pin requests in flight.
type blockingDevice struct {
	device.Device
	gate <-chan struct{}
}

func (b *blockingDevice) Unlock() error {
	<-b.gate
	return b.Device.Unlock()
}

// TestServiceOverload is the acceptance load smoke: a saturated queue
// answers 429 with Retry-After while in-flight requests complete, a
// drain under load finishes cleanly, identical batches are
// byte-identical, and the counters reconcile with the traffic sent.
func TestServiceOverload(t *testing.T) {
	gate := make(chan struct{})
	srv, ts := newTestServer(t, Config{
		Workers:      1,
		QueueDepth:   1,
		CacheEntries: -1, // every request must occupy a worker
		Decorate: func(d device.Device) device.Device {
			return &blockingDevice{Device: d, gate: gate}
		},
	})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0xF1, 1501)

	// Fill the worker slot and the queue with blocked requests.
	const inflight = 2
	codes := make(chan int, inflight)
	bodies := make(chan []byte, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(chip))
			if err != nil {
				codes <- -1
				return
			}
			codes <- resp.StatusCode
			bodies <- readAll(t, resp)
		}()
	}
	// Wait until both are admitted (1 running + 1 queued).
	waitFor(t, func() bool { return srv.gate.pending.Load() == inflight })

	// Everything beyond workers+queue is refused immediately.
	rejected := 0
	for i := 0; i < 5; i++ {
		resp := postChip(t, ts.URL+"/v1/verify", chip)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated queue answered %d, want 429", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 must carry Retry-After")
		}
		rejected++
	}

	// Begin draining while requests are still in flight: readiness flips
	// immediately, new work is refused, in-flight work completes.
	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()
	waitFor(t, srv.Draining)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp = postChip(t, ts.URL+"/v1/verify", chip)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify during drain: %d, want 503", resp.StatusCode)
	}
	draining := 1

	// Release the blocked verifications: both must complete with 200 —
	// overload and drain never drop admitted work.
	close(gate)
	wg.Wait()
	for i := 0; i < inflight; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("in-flight request dropped with status %d", code)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain under load failed: %v", err)
	}
	b1, b2 := <-bodies, <-bodies
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical chips produced different verdict JSON:\n%s\n%s", b1, b2)
	}

	// Counters reconcile with the traffic sent: 2 verified + 5 rejected
	// + 1 refused-during-drain verify requests hit the verify endpoint.
	vars := metricsVars(t, ts.URL)
	requests := counterValue(t, vars, "fmverifyd_requests_total")
	if want := inflight + rejected + draining; requests != want {
		t.Fatalf("requests_total = %d, want %d", requests, want)
	}
	if got := counterValue(t, vars, "fmverifyd_rejected_total"); got != rejected {
		t.Fatalf("rejected_total = %d, want %d", got, rejected)
	}
	if got := counterValue(t, vars, "fmverifyd_chips_total"); got != inflight {
		t.Fatalf("chips_total = %d, want %d", got, inflight)
	}
	if got := counterValue(t, vars, "fmverifyd_verdict_genuine_total"); got != inflight {
		t.Fatalf("verdict_genuine_total = %d, want %d", got, inflight)
	}
	if got := counterValue(t, vars, "fmverifyd_errors_total"); got != draining {
		t.Fatalf("errors_total = %d, want %d", got, draining)
	}
	if got := counterValue(t, vars, "fmverifyd_queue_depth"); got != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestBatchDeterministicAndSummarized pins the batch contract: results
// indexed by input order, per-chip failures embedded, and two identical
// requests byte-identical even across worker schedules.
func TestBatchDeterministicAndSummarized(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, CacheEntries: -1})
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0x1A, 1601)
	reject := chipBytes(t, counterfeit.ClassGenuineReject, 0x1B, 1602)
	unmarked := chipBytes(t, counterfeit.ClassUnmarked, 0x1C, 1603)
	var req BatchRequest
	for _, c := range [][]byte{genuine, reject, unmarked, genuine, []byte(`{"format":"bogus"}`)} {
		req.Chips = append(req.Chips, json.RawMessage(c))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r1 := postChip(t, ts.URL+"/v1/verify/batch", body)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", r1.StatusCode)
	}
	b1 := readAll(t, r1)
	var resp BatchResponse
	if err := json.Unmarshal(b1, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Summary.Chips != 5 || resp.Summary.Accepted != 2 || resp.Summary.Refused != 2 || resp.Summary.Failed != 1 {
		t.Fatalf("summary %+v", resp.Summary)
	}
	if resp.Summary.Verdicts["GENUINE"] != 2 || resp.Summary.Verdicts["REJECT-DIE"] != 1 {
		t.Fatalf("verdict tally %v", resp.Summary.Verdicts)
	}
	var second ChipReport
	if err := json.Unmarshal(resp.Results[1], &second); err != nil {
		t.Fatal(err)
	}
	if second.Verdict != "REJECT-DIE" {
		t.Fatalf("results not indexed by input order: %+v", second)
	}
	var failed ChipReport
	if err := json.Unmarshal(resp.Results[4], &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Error == "" {
		t.Fatal("malformed chip must embed its error in the batch result")
	}
	// Byte-identical on repeat.
	r2 := postChip(t, ts.URL+"/v1/verify/batch", body)
	b2 := readAll(t, r2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical batch requests produced different JSON")
	}
}

func TestBatchBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"not json":  "nope",
		"no chips":  `{"chips":[]}`,
		"bad shape": `{"chips":42}`,
	} {
		resp := postChip(t, ts.URL+"/v1/verify/batch", []byte(body))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestBatchUsesRegistryCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0x2A, 1701)
	var req BatchRequest
	for i := 0; i < 4; i++ {
		req.Chips = append(req.Chips, json.RawMessage(chip))
	}
	body, _ := json.Marshal(req)
	resp := postChip(t, ts.URL+"/v1/verify/batch", body)
	readAll(t, resp)
	vars := metricsVars(t, ts.URL)
	// One miss computes; repeats of the same lot hit. (The first chips
	// may race each other before the cache fills, so assert bounds.)
	hits := counterValue(t, vars, "fmverifyd_cache_hits_total")
	misses := counterValue(t, vars, "fmverifyd_cache_misses_total")
	if hits+misses != 4 || hits < 1 {
		t.Fatalf("cache hits=%d misses=%d, want 4 total with hits >= 1", hits, misses)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if !strings.Contains(string(b), "# TYPE fmverifyd_requests_total counter") {
		t.Fatalf("metrics exposition missing service counters:\n%s", b)
	}
}

func TestNewRejectsAuditor(t *testing.T) {
	v := testVerifier()
	v.Audit = counterfeit.NewAuditor()
	if _, err := New(Config{Verifier: v}); err == nil {
		t.Fatal("config with an Auditor must be rejected")
	}
}

func TestNANDChipVerifies(t *testing.T) {
	// A NAND chip goes through the same endpoint via format sniffing;
	// an unwatermarked NAND blank refuses as NO-WATERMARK.
	_, ts := newTestServer(t, Config{})
	nandDev := nandBlank(t, 0x3A)
	resp := postChip(t, ts.URL+"/v1/verify", nandDev)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("NAND chip status %d", resp.StatusCode)
	}
	rep := decodeReport(t, resp)
	if rep.Verdict != "NO-WATERMARK" || rep.Part != "NAND-SIM" {
		t.Fatalf("NAND blank classified %+v", rep)
	}
}

// TestStatsHook pins the drain/queue introspection surface the load
// harness leans on: idle zeros, Running while a verification is held
// open, cache growth, and the draining flag.
func TestStatsHook(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv, ts := newTestServer(t, Config{
		Workers: 2,
		Decorate: func(d device.Device) device.Device {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-hold
			return d
		},
	})
	if st := srv.Stats(); st != (Stats{}) {
		t.Fatalf("idle stats = %+v, want zero", st)
	}
	genuine := chipBytes(t, counterfeit.ClassGenuineAccept, 0x5A, 1801)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(genuine))
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered
	if st := srv.Stats(); st.Running != 1 || st.Queued != 0 || st.Draining {
		t.Fatalf("in-flight stats = %+v, want Running=1", st)
	}
	close(hold)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := srv.Stats()
		return st.Running == 0 && st.CacheEntries == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if !st.Draining || st.Running != 0 || st.Queued != 0 {
		t.Fatalf("post-drain stats = %+v, want Draining with empty gate", st)
	}
}

// TestInjectedClockDrivesLatency proves the wall-clock seam: with a
// fake Now, the latency histogram records the fixture's durations, not
// the host's — the point of the check_clock.sh guardrail.
func TestInjectedClockDrivesLatency(t *testing.T) {
	const step = 32 * time.Millisecond
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	srv, ts := newTestServer(t, Config{
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			now = now.Add(step)
			return now
		},
	})
	resp := postChip(t, ts.URL+"/v1/verify", chipBytes(t, counterfeit.ClassGenuineAccept, 0x5B, 1802))
	resp.Body.Close()
	var snap struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	}
	vars := metricsVars(t, ts.URL)
	b, err := json.Marshal(vars["fmverifyd_request_seconds"])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count != 1 {
		t.Fatalf("latency count = %d, want 1", snap.Count)
	}
	// Every observed duration is a whole number of fake-clock steps, and
	// at least one step long — impossible for a real-time measurement of
	// this handler, so the fixture clock demonstrably drove it.
	steps := snap.Sum / step.Seconds()
	if steps < 1 || math.Abs(steps-math.Round(steps)) > 1e-6 {
		t.Fatalf("latency sum %gs is not a positive whole number of %v fake steps", snap.Sum, step)
	}
	_ = srv
}

func nandBlank(t testing.TB, seed uint64) []byte {
	t.Helper()
	dev, err := nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ExampleChipReport documents the single-verify response shape.
func ExampleChipReport() {
	rep := ChipReport{
		SHA256:   "…content hash…",
		Part:     "FM-SIM16",
		Verdict:  "GENUINE",
		Accepted: true,
	}
	b, _ := json.Marshal(rep.Verdict)
	fmt.Println(string(b))
	// Output: "GENUINE"
}
