package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/flashmark/flashmark/internal/counterfeit"
)

// Hot-path benchmark for the full /v1/verify request lifecycle: HTTP
// mux dispatch, admission, body read, format sniff, chip-file load,
// device construction, physics verify, and report encode — everything
// a cache-missing request pays, measured single-core through the real
// http.Handler. The cache-hit sub-benchmark isolates the service
// overhead that remains when the physics verdict is already on file.
//
// Run: make bench-hotpath

// hotPaths are the request paths, each with its hard allocs/op
// ceiling. miss-screen is a miss with the recycling screen on, as
// fmverifyd runs by default (-recycling-screen); the other rows use the
// package's test verifier, which leaves it off. The allocation profile
// is deterministic, so any excess is a lifecycle regression — a dropped
// pool, a reflection encoder creeping back in — not runner noise; the
// headroom is for stdlib drift. `go test -run TestVerifyHotPathAllocs
// -v` logs each row's reading.
var hotPaths = []struct {
	name         string
	cacheEntries int
	screen       bool
	maxAllocs    float64
}{
	{"miss", -1, false, 200},
	{"miss-screen", -1, true, 200},
	{"hit", 0, false, 16},
}

// minMissChipsPerSec is a deliberately loose throughput floor for the
// miss path: raw speed tracks the runner, the floor only proves the
// benchmark did real verifications.
const minMissChipsPerSec = 20

// hotResponseWriter is a reusable discarding ResponseWriter so the
// benchmark measures the service, not httptest.ResponseRecorder.
type hotResponseWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *hotResponseWriter) Header() http.Header { return w.h }

func (w *hotResponseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += len(p)
	return len(p), nil
}

func (w *hotResponseWriter) WriteHeader(code int) { w.status = code }

func (w *hotResponseWriter) reset() {
	w.status = 0
	w.n = 0
	clear(w.h)
}

// hotDriver posts one fixed chip at /v1/verify through the server's
// real handler chain, reusing the request, body reader, and response
// writer across calls so only per-request costs are counted.
type hotDriver struct {
	handler http.Handler
	req     *http.Request
	body    *rewindReader
	rw      *hotResponseWriter
}

type rewindReader struct {
	data []byte
	off  int
}

func (r *rewindReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *rewindReader) Close() error { return nil }

// newHotDriver drives a single-worker server with the given verdict
// cache size (negative turns the cache off, as on the miss path) and,
// when screen is set, the recycling screen on.
func newHotDriver(tb testing.TB, cacheEntries int, screen bool) *hotDriver {
	tb.Helper()
	v := testVerifier()
	v.CheckRecycling = screen
	s, err := New(Config{Verifier: v, Workers: 1, CacheEntries: cacheEntries})
	if err != nil {
		tb.Fatal(err)
	}
	chip := chipBytes(tb, counterfeit.ClassGenuineAccept, 0xB001, 9001)
	body := &rewindReader{data: chip}
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", nil)
	req.Body = body
	req.ContentLength = int64(len(chip))
	return &hotDriver{
		handler: s.Handler(),
		req:     req,
		body:    body,
		rw:      &hotResponseWriter{h: make(http.Header)},
	}
}

func (d *hotDriver) verify(tb testing.TB) {
	d.body.off = 0
	d.rw.reset()
	d.handler.ServeHTTP(d.rw, d.req)
	if d.rw.status != http.StatusOK {
		tb.Fatalf("verify status %d", d.rw.status)
	}
}

// TestVerifyHotPathAllocs holds every request path under its allocs/op
// ceiling. The race detector makes sync.Pool (bodyScratch,
// chipLoaders) drop items on purpose, so the count is only meaningful
// without it.
func TestVerifyHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, p := range hotPaths {
		d := newHotDriver(t, p.cacheEntries, p.screen)
		// AllocsPerRun's own warm-up call fills the pools and, on the
		// hit path, the verdict cache.
		allocs := testing.AllocsPerRun(10, func() { d.verify(t) })
		t.Logf("%s: %v allocs/op", p.name, allocs)
		if allocs > p.maxAllocs {
			t.Errorf("%s: %v allocs/op exceeds the hard ceiling %v", p.name, allocs, p.maxAllocs)
		}
	}
}

// BenchmarkVerifyHotPath is the headline single-core chips-verified/sec
// figure. The miss sub-benchmark disables the verdict cache so every
// request runs the full lifecycle; the hit sub-benchmark serves a warm
// cache entry, isolating the fixed per-request service overhead.
func BenchmarkVerifyHotPath(b *testing.B) {
	for _, p := range hotPaths {
		b.Run(p.name, func(b *testing.B) {
			d := newHotDriver(b, p.cacheEntries, p.screen)
			d.verify(b) // warm the pools and, on the hit path, the verdict cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.verify(b)
			}
			b.StopTimer()
			perSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "chips/s")
			if p.cacheEntries < 0 && perSec < minMissChipsPerSec {
				b.Fatalf("miss-path throughput %.1f chips/s is below the %d floor", perSec, minMissChipsPerSec)
			}
		})
	}
}
