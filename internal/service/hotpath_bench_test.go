package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/reram"
)

// Hot-path benchmark for the full /v1/verify request lifecycle: HTTP
// mux dispatch, admission, body read, format sniff, chip-file load,
// device construction, physics verify, and report encode — everything
// a cache-missing request pays, measured single-core through the real
// http.Handler. The cache-hit sub-benchmark isolates the service
// overhead that remains when the physics verdict is already on file.
//
// Run: make bench-hotpath

// hotPath is one request path: its server's verdict cache size
// (negative turns the cache off, as on a miss), whether the recycling
// screen is on, the backend of the chip it posts ("nand" or "reram";
// empty posts a NOR one), its hard allocs/op ceiling, and its
// benchmark's throughput floor.
type hotPath struct {
	name           string
	cacheEntries   int
	screen         bool
	backend        string
	maxAllocs      float64
	minChipsPerSec float64
}

// hotPaths are the request paths. miss-screen is a miss with the
// recycling screen on, as fmverifyd runs by default (-recycling-screen);
// miss-nand and miss-reram are the same for a NAND and a ReRAM chip;
// the other rows use the package's test verifier, which leaves it off.
// The allocation profile is deterministic, so any excess is a lifecycle
// regression — a dropped pool, a reflection encoder creeping back in —
// not runner noise; the headroom is for stdlib drift. `go test -run
// TestVerifyHotPathAllocs -v` logs each row's reading. The throughput
// floors are rot guards, about a third of what each row read on one
// core of a 2-CPU host when they were set (miss 430–560 chips/s,
// miss-screen 200–310, miss-nand 35–49 since a deferred NAND cell
// derives its base about once, miss-reram 250–470 since the conditioning
// power is evaluated once per wear value and logistic reads are decided
// from a bound table): raw speed tracks the runner, so a floor leaves
// it headroom and only proves the benchmark did real verifications at
// about the speed the code has (a NAND verify costs several NOR ones).
var hotPaths = []hotPath{
	{name: "miss", cacheEntries: -1, maxAllocs: 200, minChipsPerSec: 160},
	{name: "miss-screen", cacheEntries: -1, screen: true, maxAllocs: 200, minChipsPerSec: 80},
	{name: "miss-nand", cacheEntries: -1, screen: true, backend: "nand", maxAllocs: 100, minChipsPerSec: 12},
	{name: "miss-reram", cacheEntries: -1, screen: true, backend: "reram", maxAllocs: 100, minChipsPerSec: 100},
	{name: "hit", maxAllocs: 16},
}

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

// newHotDriver drives a single-worker server configured for path p.
func newHotDriver(tb testing.TB, p hotPath) *hotDriver {
	tb.Helper()
	v := testVerifier()
	v.CheckRecycling = p.screen
	s, err := New(Config{Verifier: v, Workers: 1, CacheEntries: p.cacheEntries})
	if err != nil {
		tb.Fatal(err)
	}
	var chip []byte
	switch p.backend {
	case "nand":
		chip = nandChipBytes(tb, counterfeit.ClassGenuineAccept, 0xB002, 9002)
	case "reram":
		chip = reramChipBytes(tb, counterfeit.ClassGenuineAccept, 0xB003, 9003)
	default:
		chip = chipBytes(tb, counterfeit.ClassGenuineAccept, 0xB001, 9001)
	}
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
// ceiling. The race detector makes sync.Pool drop items on purpose, and
// some of the physics layer's scratch (the NOR save buffers, the sort
// scratch, the chip-file head copies) lives in sync.Pools, so the count
// is only meaningful without it.
func TestVerifyHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, p := range hotPaths {
		d := newHotDriver(t, p)
		// AllocsPerRun's own warm-up call fills the free lists and
		// pools and, on the hit path, the verdict cache.
		allocs := testing.AllocsPerRun(10, func() { d.verify(t) })
		t.Logf("%s: %v allocs/op", p.name, allocs)
		if allocs > p.maxAllocs {
			t.Errorf("%s: %v allocs/op exceeds the hard ceiling %v", p.name, allocs, p.maxAllocs)
		}
	}
}

// TestVerifyScratchSurvivesGC: on every screened miss row (NOR, NAND and
// ReRAM), the chip loaders and body buffers a miss reuses must outlive
// a garbage collection. Two GCs empty every
// sync.Pool, so a verify right after them pays again for whatever
// scratch a pool held. The loaders and bodies sit on free lists, so it
// may allocate at most twice what a steady-state verify does;
// rebuilding a loader's cell arrays, a NAND loader's deferral engines
// or the body buffer breaks that.
func TestVerifyScratchSurvivesGC(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	for _, p := range hotPaths {
		if !p.screen {
			continue
		}
		d := newHotDriver(t, p)
		allocated := func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			d.verify(t)
			runtime.ReadMemStats(&ms)
			return ms.TotalAlloc - before
		}
		allocated() // fill the free lists and pools
		// The steady cost is the cheapest of a few verifies: a GC of its
		// own during one of them would inflate it.
		steady := allocated()
		for i := 0; i < 4; i++ {
			steady = min(steady, allocated())
		}
		runtime.GC()
		runtime.GC()
		afterGC := allocated()
		t.Logf("%s: steady %d B/op, after two GCs %d B", p.name, steady, afterGC)
		if afterGC > 2*steady {
			t.Errorf("%s: a verify after two GCs allocated %d B, over twice the steady %d B/op: scratch did not survive the GC", p.name, afterGC, steady)
		}
	}
}

// TestIdleBodyBufferBounded posts junk bodies through the real handler:
// one past maxIdleBody, whose buffer must leave the free list, then one
// the size of the largest batches in steady use (about 4.9 MB), whose
// buffer must stay. Draining the list then finds the second and never
// the first.
func TestIdleBodyBufferBounded(t *testing.T) {
	s, err := New(Config{Verifier: testVerifier(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	kept, dropped := 5_000_000, maxIdleBody+1
	for _, n := range []int{dropped, kept} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(make([]byte, n))))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%d-byte junk body: status %d, want %d", n, rec.Code, http.StatusBadRequest)
		}
	}
	var idle []*[]byte
	found := false
	for i := 0; i < 64; i++ {
		bp := bodyScratch.Get()
		idle = append(idle, bp)
		if c := cap(*bp); c > maxIdleBody {
			t.Errorf("an idle body buffer keeps %d bytes, over the %d bound", c, maxIdleBody)
		} else if c >= kept {
			found = true
		}
	}
	for _, bp := range idle {
		releaseBody(bp)
	}
	if !found {
		t.Errorf("no idle body buffer kept the %d-byte body's capacity", kept)
	}
}

// TestIdleLoaderBounded posts chips through the real handler: a NAND
// chip whose geometry is just over maxIdleCells, whose loader must leave
// the free list, then the largest catalog part and a chip of every
// backend the benchmarks post, each of whose loaders must stay.
func TestIdleLoaderBounded(t *testing.T) {
	s, err := New(Config{Verifier: testVerifier(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	nandFab := func(blocks int) device.Fab {
		return nand.Fab(nand.Geometry{Blocks: blocks, PagesPerBlock: 8, PageBytes: 512}, nand.SLCTiming(), floatgate.DefaultParams())
	}
	// post verifies chip and reports the largest retention among the
	// idle loaders it then finds.
	post := func(name string, fab device.Fab) int {
		t.Helper()
		chip := fabChipBytes(t, fab, counterfeit.ClassUnmarked, 0x1D1E, 1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(chip)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rec.Code, rec.Body)
		}
		var idle []*chipfile.Loader
		most := 0
		for i := 0; i < 64; i++ {
			ld := chipLoaders.Get()
			idle = append(idle, ld)
			if n := ld.Retained(); n > maxIdleCells {
				t.Errorf("after %s, an idle loader keeps %d cells, over the %d bound", name, n, maxIdleCells)
			} else {
				most = max(most, n)
			}
		}
		for _, ld := range idle {
			releaseLoader(ld)
		}
		return most
	}
	// 65 SmallNAND-sized blocks: 2,129,920 cells.
	post("a 65-block NAND chip", nandFab(65))
	for _, c := range []struct {
		name  string
		fab   device.Fab
		cells int
	}{
		{"MSP430F5438", mcu.Fab(mcu.PartMSP430F5438()), maxIdleCells},
		{"FM-SIM16", mcu.Fab(mcu.PartSmallSim()), 65_536},
		{"ReRAM", reram.DefaultFab(), 65_536},
		{"SmallNAND", nandFab(8), 262_144},
	} {
		if most := post(c.name, c.fab); most < c.cells {
			t.Errorf("after %s (%d cells), no idle loader kept its arrays: the most any keeps is %d", c.name, c.cells, most)
		}
	}
}

// TestBodyGrowthDoubles: a body that outgrows its buffer doubles it, so
// a body the size of the largest batches in steady use (about 4.9 MB),
// read with no idle buffer to reuse, allocates under four times its
// size in all. Growing by append's 1.25x steps allocated about 5.9x.
func TestBodyGrowthDoubles(t *testing.T) {
	s, err := New(Config{Verifier: testVerifier(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Hold every idle buffer, so the request starts from a fresh one.
	var idle []*[]byte
	for i := 0; i < max(64, runtime.GOMAXPROCS(0)); i++ {
		idle = append(idle, bodyScratch.Get())
	}
	defer func() {
		for _, bp := range idle {
			releaseBody(bp)
		}
	}()
	const n = 4_900_000
	req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(make([]byte, n)))
	rec := httptest.NewRecorder()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&ms)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d-byte junk body: status %d, want %d", n, rec.Code, http.StatusBadRequest)
	}
	allocated := ms.TotalAlloc - before
	t.Logf("a %d-byte body allocated %d B (%.2fx)", n, allocated, float64(allocated)/n)
	if allocated > 4*n {
		t.Errorf("a %d-byte body allocated %d B, over four times its size", n, allocated)
	}
}

// BenchmarkVerifyHotPath is the headline single-core chips-verified/sec
// figure. The miss sub-benchmarks disable the verdict cache so every
// request runs the full lifecycle; the hit sub-benchmark serves a warm
// cache entry, isolating the fixed per-request service overhead.
func BenchmarkVerifyHotPath(b *testing.B) {
	for _, p := range hotPaths {
		b.Run(p.name, func(b *testing.B) {
			d := newHotDriver(b, p)
			d.verify(b) // warm the free lists and pools and, on the hit path, the verdict cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.verify(b)
			}
			b.StopTimer()
			perSec := float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(perSec, "chips/s")
			if perSec < p.minChipsPerSec {
				b.Fatalf("%s throughput %.1f chips/s is below the %.0f floor", p.name, perSec, p.minChipsPerSec)
			}
		})
	}
}
