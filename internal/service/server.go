// Package service implements fmverifyd's HTTP layer: a stdlib-only
// watermark-verification service that accepts serialized chip files
// (either backend's format) and returns authenticity verdicts. The
// production concerns live here, not in the binary, so they are testable
// with httptest: admission control with a bounded queue (429 +
// Retry-After on overload), per-request deadlines threaded through
// context into the verify path, panic-to-500 recovery, graceful drain,
// an LRU chip-registry cache keyed by content hash, and first-class
// metrics on /metrics and /debug/vars.
//
// Endpoints:
//
//	POST /v1/verify        one chip file -> one verdict JSON
//	POST /v1/verify/batch  {"chips":[...]} -> per-chip verdicts + summary
//	POST /v1/enroll        record a GENUINE chip's identity in the registry
//	POST /v1/challenge     challenge-response screen against the enrolled fingerprint
//	GET  /healthz          liveness (200 while the process serves)
//	GET  /readyz           readiness (503 once draining)
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/vars       expvar-style JSON snapshot
package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/challenge"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/metrics"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/wallclock"
)

// Config assembles a Server. The zero value of every field selects a
// production-sane default.
type Config struct {
	// Verifier is the incoming-inspection policy applied to every chip.
	// It must not carry an Auditor: requests are stateless and
	// concurrent, and batch-local replay audits belong to the client
	// (see cmd/flashmark batch).
	Verifier counterfeit.Verifier

	// Workers bounds concurrent verifications (0 selects GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond Workers
	// (0 selects 64; negative means no queue — refuse unless a worker
	// slot is free).
	QueueDepth int
	// RequestTimeout is the per-request verification deadline
	// (0 selects 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps an accepted request body (0 selects 16 MiB).
	MaxBodyBytes int64
	// CacheEntries bounds the chip-registry LRU (0 selects 4096;
	// negative disables caching).
	CacheEntries int

	// Decorate, when set, wraps every loaded device before verification
	// — the chaos/testing seam for fault injectors and recorders.
	Decorate func(device.Device) device.Device

	// Provenance, when set, is the fleet-scale die-identity registry:
	// POST /v1/enroll records verified identities into it, and the
	// verify endpoints escalate physics-GENUINE chips to DUPLICATE-ID
	// when their die id is on file under a different physical
	// fingerprint (see internal/registry). The server does not close
	// the store; the owner does.
	Provenance registry.Store

	// Challenge, when set, enables POST /v1/challenge: the second,
	// independent physical-identity axis. Enrollment interrogates the
	// chip with this policy and records the response fingerprint; the
	// challenge endpoint re-interrogates and escalates on a mismatch.
	// Requires Provenance (the fingerprints live in the registry).
	Challenge *challenge.Policy

	// OmitDeviceFingerprint, when set, enrolls identities with a zero
	// physical fingerprint. The fleet registry then cannot distinguish
	// two chips claiming one die id by simulator identity — the
	// honest-hardware regime, where only observable physics (the
	// challenge-response axis) separates a clone from its victim.
	OmitDeviceFingerprint bool

	// Now supplies wall time for latency accounting and enrollment
	// timestamps (nil selects wallclock.Now). Injecting a fake makes
	// the latency histograms and enroll stamps fixture-testable; the
	// per-request deadline still rides the context machinery.
	Now func() time.Time

	// Logf, when set, receives one line per completed request.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.QueueDepth == 0:
		c.QueueDepth = 64
	case c.QueueDepth < 0:
		c.QueueDepth = 0
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 4096
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.Now == nil {
		c.Now = wallclock.Now
	}
	return c
}

// serviceMetrics is every instrument the server exports.
type serviceMetrics struct {
	requests  *metrics.Counter
	rejected  *metrics.Counter
	errors    *metrics.Counter
	deadlines *metrics.Counter
	panics    *metrics.Counter
	faults    *metrics.Counter
	cacheHit  *metrics.Counter
	cacheMiss *metrics.Counter
	chips     *metrics.Counter
	verdicts  map[counterfeit.Verdict]*metrics.Counter
	latency   *metrics.Histogram

	enrolls          *metrics.Counter
	enrollDuplicates *metrics.Counter
	enrollConflicts  *metrics.Counter
	escalations      *metrics.Counter

	challenges          *metrics.Counter
	challengeMatches    *metrics.Counter
	challengeMismatches *metrics.Counter
	challengeUnenrolled *metrics.Counter
}

func newServiceMetrics(reg *metrics.Registry, g *gate, cache *verdictCache) *serviceMetrics {
	m := &serviceMetrics{
		requests:  reg.Counter("fmverifyd_requests_total", "verification requests accepted for processing"),
		rejected:  reg.Counter("fmverifyd_rejected_total", "requests refused with 429 by admission control"),
		errors:    reg.Counter("fmverifyd_errors_total", "requests answered with a 4xx/5xx other than 429"),
		deadlines: reg.Counter("fmverifyd_deadline_exceeded_total", "verifications aborted by the per-request deadline"),
		panics:    reg.Counter("fmverifyd_panics_total", "handler panics converted to 500"),
		faults:    reg.Counter("fmverifyd_device_faults_total", "chips answered INCONCLUSIVE on an injected device fault"),
		cacheHit:  reg.Counter("fmverifyd_cache_hits_total", "chip verdicts served from the registry cache"),
		cacheMiss: reg.Counter("fmverifyd_cache_misses_total", "chip verdicts computed fresh"),
		chips:     reg.Counter("fmverifyd_chips_total", "chips screened (batch requests count each chip)"),
		verdicts:  make(map[counterfeit.Verdict]*metrics.Counter),
		latency: reg.Histogram("fmverifyd_request_seconds", "wall-clock request latency",
			metrics.DefaultLatencyBuckets()),
	}
	for v := counterfeit.VerdictGenuine; v <= counterfeit.VerdictInconclusive; v++ {
		name := "fmverifyd_verdict_" + strings.ToLower(strings.ReplaceAll(v.String(), "-", "_")) + "_total"
		m.verdicts[v] = reg.Counter(name, "chips classified "+v.String())
	}
	m.enrolls = reg.Counter("fmverifyd_enroll_total", "identities enrolled into the fleet registry")
	m.enrollDuplicates = reg.Counter("fmverifyd_enroll_duplicates_total", "enrollments of an identity already on file")
	m.enrollConflicts = reg.Counter("fmverifyd_enroll_conflicts_total", "enrollments that made an identity conflicted")
	m.escalations = reg.Counter("fmverifyd_provenance_escalations_total", "physics-GENUINE chips escalated to DUPLICATE-ID by the registry")
	m.challenges = reg.Counter("fmverifyd_challenge_total", "challenge-response interrogations completed")
	m.challengeMatches = reg.Counter("fmverifyd_challenge_matches_total", "challenges answered with the enrolled response fingerprint")
	m.challengeMismatches = reg.Counter("fmverifyd_challenge_mismatches_total", "challenges answered with a fingerprint other than the enrolled one")
	m.challengeUnenrolled = reg.Counter("fmverifyd_challenge_unenrolled_total", "challenges of identities with no enrolled response fingerprint")
	reg.GaugeFunc("fmverifyd_queue_depth", "admitted requests waiting for a worker", g.queued)
	reg.GaugeFunc("fmverifyd_inflight", "requests holding a worker slot", g.running)
	reg.GaugeFunc("fmverifyd_cache_entries", "chip verdicts resident in the registry cache",
		func() int64 { return int64(cache.Len()) })
	return m
}

// Server is the verification service. Create with New, mount via
// Handler, stop with Drain.
type Server struct {
	cfg      Config
	reg      *metrics.Registry
	gate     *gate
	cache    *verdictCache
	met      *serviceMetrics
	mux      *http.ServeMux
	draining chan struct{}
	drainMu  sync.Mutex
	inflight sync.WaitGroup
}

// New validates the config and assembles a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Verifier.Audit != nil {
		return nil, fmt.Errorf("service: verifier must not carry an Auditor (requests are stateless and concurrent)")
	}
	if cfg.Challenge != nil {
		if cfg.Provenance == nil {
			return nil, fmt.Errorf("service: the challenge-response plane requires a fleet registry (Config.Provenance)")
		}
		if err := cfg.Challenge.Validate(); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	// Keep one idle loader and body buffer per worker across GCs.
	chipLoaders.Reserve(cfg.Workers)
	bodyScratch.Reserve(cfg.Workers)
	s := &Server{
		cfg:      cfg,
		reg:      metrics.NewRegistry(),
		gate:     newGate(cfg.Workers, cfg.QueueDepth),
		cache:    newVerdictCache(cfg.CacheEntries),
		draining: make(chan struct{}),
	}
	s.met = newServiceMetrics(s.reg, s.gate, s.cache)
	if cfg.Provenance != nil {
		registerRegistryGauges(s.reg, cfg.Provenance)
	}
	const chipFile = "a chip file body"
	enrollEP := endpoint{accepts: chipFile, work: "verification", serve: s.serveEnroll}
	if cfg.Provenance == nil {
		enrollEP.off = "no fleet registry configured (start fmverifyd with -registry-dir)"
	}
	challengeEP := endpoint{accepts: chipFile, work: "verification", serve: s.serveChallenge}
	if cfg.Challenge == nil {
		challengeEP.off = "no challenge-response plane configured (start fmverifyd with -challenge)"
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/v1/verify", s.post(endpoint{
		accepts: chipFile, work: "verification", pre: s.verifyHit, serve: s.serveVerify}))
	s.mux.Handle("/v1/verify/batch", s.post(endpoint{
		accepts: "a JSON batch body", work: "batch verification", pre: decodeBatch, serve: s.serveBatch}))
	s.mux.Handle("/v1/enroll", s.post(enrollEP))
	s.mux.Handle("/v1/challenge", s.post(challengeEP))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.Handle("/metrics", s.reg.Handler())
	s.mux.Handle("/debug/vars", s.reg.VarsHandler())
	return s, nil
}

// Registry returns the metrics registry the server reports into.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Stats is a point-in-time view of the server's admission and drain
// state. It exists for tests and the load harness, which need to assert
// "the queue actually emptied" directly rather than scraping and
// parsing the /metrics text for the same gauges.
type Stats struct {
	// Queued counts admitted requests waiting for a worker slot.
	Queued int64
	// Running counts requests holding a worker slot.
	Running int64
	// Draining reports whether Drain has been called.
	Draining bool
	// CacheEntries is the number of resident chip-verdict cache entries.
	CacheEntries int
}

// Stats snapshots the admission gate, drain flag, and verdict cache.
func (s *Server) Stats() Stats {
	return Stats{
		Queued:       s.gate.queued(),
		Running:      s.gate.running(),
		Draining:     s.Draining(),
		CacheEntries: s.cache.Len(),
	}
}

// Handler returns the service's root handler with panic recovery
// applied; mount it on an http.Server (or httptest.Server).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panicked(w, r, rec)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain begins a graceful shutdown: readiness flips to 503 so load
// balancers stop sending traffic, new verification requests are refused
// with 503, and the call blocks until every in-flight verification has
// completed or ctx expires (in which case the number still in flight is
// reported in the error). Liveness, metrics and debug endpoints keep
// serving throughout so the drain itself is observable.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain aborted with requests still in flight: %w", ctx.Err())
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// since measures elapsed wall time against the configured clock, so a
// fixture clock sees exactly the durations the handlers record.
func (s *Server) since(start time.Time) time.Duration {
	return s.cfg.Now().Sub(start)
}
