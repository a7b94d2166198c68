package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/registry"
)

// The request lifecycle answers the same failure the same way on every
// POST endpoint. These tests pin it where the batch's fan-out could
// answer differently from a single verify: a deadline, a panic and a
// client that goes away. They run the recycling screen (goldenVerifier),
// as fmverifyd does: the screen consults the context between segments,
// so a deadline or a cancel that lands during extraction ends the
// verification there.

// hookDevice runs unlock before every Unlock of the wrapped device.
type hookDevice struct {
	device.Device
	unlock func()
}

func (d *hookDevice) Unlock() error {
	d.unlock()
	return d.Device.Unlock()
}

func batchBody(t testing.TB, chips ...[]byte) []byte {
	t.Helper()
	var req BatchRequest
	for _, c := range chips {
		req.Chips = append(req.Chips, json.RawMessage(c))
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestDeadlineCountedOncePerRequest: a request its deadline cuts short
// answers 504 and counts one deadline, however many of a batch's chips
// the deadline caught mid-screen.
func TestDeadlineCountedOncePerRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Verifier:       goldenVerifier(),
		Workers:        4,
		CacheEntries:   -1,
		RequestTimeout: 20 * time.Millisecond,
		Decorate: func(d device.Device) device.Device {
			return &hookDevice{Device: d, unlock: func() { time.Sleep(60 * time.Millisecond) }}
		},
	})
	var chips [][]byte
	for i := uint64(0); i < 4; i++ {
		chips = append(chips, chipBytes(t, counterfeit.ClassGenuineAccept, 0x7A0+i, 7100+i))
	}
	for i, tc := range []struct {
		path, msg string
		body      []byte
	}{
		{"/v1/verify", "verification deadline exceeded", chips[0]},
		{"/v1/verify/batch", "batch verification deadline exceeded", batchBody(t, chips...)},
	} {
		resp := postChip(t, ts.URL+tc.path, tc.body)
		body := readAll(t, resp)
		if want := fmt.Sprintf("{\"error\":%q}\n", tc.msg); resp.StatusCode != http.StatusGatewayTimeout || string(body) != want {
			t.Fatalf("%s: status %d body %s, want 504 %s", tc.path, resp.StatusCode, body, want)
		}
		vars := metricsVars(t, ts.URL)
		if got := counterValue(t, vars, "fmverifyd_deadline_exceeded_total"); got != i+1 {
			t.Fatalf("%s: deadline_exceeded_total = %d after %d timed-out requests", tc.path, got, i+1)
		}
		if got := counterValue(t, vars, "fmverifyd_errors_total"); got != i+1 {
			t.Fatalf("%s: errors_total = %d after %d timed-out requests", tc.path, got, i+1)
		}
	}
}

// TestBatchPanicAnsweredLikeVerifyPanic: a panic in a batch chip's
// fan-out is answered exactly like a panic serving a single verify —
// the same body and the same log line, and one panics_total and one
// errors_total each — so the panic value never reaches the client.
func TestBatchPanicAnsweredLikeVerifyPanic(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Decorate: func(device.Device) device.Device {
			panic("decorator exploded")
		},
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lines = append(lines, fmt.Sprintf(format, args...))
		},
	})
	a := chipBytes(t, counterfeit.ClassGenuineAccept, 0x7B1, 7201)
	b := chipBytes(t, counterfeit.ClassGenuineAccept, 0x7B2, 7202)
	paths := []struct {
		path string
		body []byte
	}{
		{"/v1/verify", a},
		{"/v1/verify/batch", batchBody(t, a, b)},
	}
	for _, tc := range paths {
		resp := postChip(t, ts.URL+tc.path, tc.body)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusInternalServerError || string(body) != "{\"error\":\"internal error\"}\n" {
			t.Fatalf("%s: status %d body %s, want 500 internal error", tc.path, resp.StatusCode, body)
		}
		mu.Lock()
		last := lines[len(lines)-1]
		mu.Unlock()
		if want := "panic serving POST " + tc.path + ": decorator exploded"; last != want {
			t.Fatalf("%s: logged %q, want %q", tc.path, last, want)
		}
	}
	vars := metricsVars(t, ts.URL)
	for _, name := range []string{"fmverifyd_requests_total", "fmverifyd_panics_total", "fmverifyd_errors_total"} {
		if got := counterValue(t, vars, name); got != len(paths) {
			t.Fatalf("%s = %d after %d panicking requests", name, got, len(paths))
		}
	}
}

// TestClientCancelAnswers499: a client that goes away mid-verification
// is answered 499 on both verify endpoints. The handler is driven
// directly, since a real client that canceled reads no answer.
func TestClientCancelAnswers499(t *testing.T) {
	var cancel context.CancelFunc
	srv, err := New(Config{
		Verifier:     goldenVerifier(),
		Workers:      2,
		CacheEntries: -1,
		Decorate: func(d device.Device) device.Device {
			return &hookDevice{Device: d, unlock: func() { cancel() }}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	chip := chipBytes(t, counterfeit.ClassGenuineAccept, 0x7C1, 7301)
	other := chipBytes(t, counterfeit.ClassGenuineAccept, 0x7C2, 7302)
	for i, tc := range []struct {
		path string
		body []byte
	}{
		{"/v1/verify", chip},
		{"/v1/verify/batch", batchBody(t, chip, other)},
	} {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)).WithContext(ctx)
		srv.Handler().ServeHTTP(rec, req)
		cancel()
		if want := "{\"error\":\"client canceled the request\"}\n"; rec.Code != statusClientClosedRequest || rec.Body.String() != want {
			t.Fatalf("%s: status %d body %s, want 499 %s", tc.path, rec.Code, rec.Body.Bytes(), want)
		}
		if got := srv.met.errors.Value(); got != int64(i+1) {
			t.Fatalf("%s: errors_total = %d after %d canceled requests", tc.path, got, i+1)
		}
	}
}

// fuzzPaths are the POST endpoints FuzzHandler picks from.
var fuzzPaths = []string{"/v1/verify", "/v1/verify/batch", "/v1/enroll", "/v1/challenge"}

// FuzzHandler drives the whole POST surface through Server.Handler:
// the first input picks an endpoint, the second is the body, so the
// fuzzer reaches sniff → load → verify, the batch body and its fan-out,
// enrollment and the challenge plane. Whatever arrives, the server must
// answer with a status it chose (no 500), a JSON body under a JSON
// Content-Type, no recovered panic, and counters that account for every
// request: requests_total = 200 answers + errors_total + rejected_total.
// Every input that loads as a chip pays a physics verification, so
// chip-sized inputs run at a few executions per second.
func FuzzHandler(f *testing.F) {
	srv, err := New(Config{
		Verifier:     testVerifier(),
		Workers:      1,
		MaxBodyBytes: 128 << 10, // one genuine chip file, ~110 KB
		Provenance:   registry.NewMemory(0),
		Challenge:    &challenge.Policy{},
	})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	const (
		verify byte = iota
		batch
		enroll
		challengeEP
	)
	nor := chipBytes(f, counterfeit.ClassGenuineAccept, 0x7D1, 7401)
	rer := reramChipBytes(f, counterfeit.ClassGenuineAccept, 0x7D2, 7402)
	fake := chipBytes(f, counterfeit.ClassUnmarked, 0x7D3, 7403)
	pair, err := json.Marshal(BatchRequest{Chips: []json.RawMessage{nor, fake}})
	if err != nil {
		f.Fatal(err)
	}
	for _, sel := range []byte{verify, enroll, challengeEP} {
		f.Add(sel, nor)
		f.Add(sel, rer)
		f.Add(sel, fake)
	}
	f.Add(batch, pair)
	f.Add(batch, []byte(`{"chips":[]}`))
	f.Add(batch, []byte(`{"chips":[{"format":"flashmark-chip"},7]}`))
	f.Add(verify, []byte("not a chip"))
	f.Add(batch, []byte("not a batch"))

	var ok int64
	f.Fuzz(func(t *testing.T, sel byte, body []byte) {
		path := fuzzPaths[int(sel)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			ok++
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s answered 500: %s", path, rec.Body.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Fatalf("%s answered %d with Content-Type %q", path, rec.Code, ct)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s answered %d with a body that is not JSON: %q", path, rec.Code, rec.Body.Bytes())
		}
		if n := srv.met.panics.Value(); n != 0 {
			t.Fatalf("%s: %d panics recovered", path, n)
		}
		req, errs, rej := srv.met.requests.Value(), srv.met.errors.Value(), srv.met.rejected.Value()
		if req != ok+errs+rej {
			t.Fatalf("%s answered %d: requests_total %d != %d OK + %d errors + %d rejected", path, rec.Code, req, ok, errs, rej)
		}
	})
}
