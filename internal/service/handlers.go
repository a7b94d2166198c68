package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/parallel"
)

// ChipReport is the verdict JSON for one screened chip. Fields are
// derived only from the chip bytes and the server's verifier policy, so
// the report for a given chip file is byte-stable across requests and
// cacheable by content hash.
type ChipReport struct {
	SHA256              string         `json:"sha256"`
	Part                string         `json:"part,omitempty"`
	Seed                uint64         `json:"seed,omitempty"`
	Verdict             string         `json:"verdict"`
	Accepted            bool           `json:"accepted"`
	Payload             *PayloadReport `json:"payload,omitempty"`
	ReplicaDisagreement float64        `json:"replicaDisagreement"`
	WornDataSegments    int            `json:"wornDataSegments"`
	SampledDataSegments int            `json:"sampledDataSegments"`
	Fault               string         `json:"fault,omitempty"`
	DeviceTimeUs        int64          `json:"deviceTimeUs"`
	// Provenance explains a registry escalation: why a physics-GENUINE
	// chip was answered DUPLICATE-ID. Only set when the server runs
	// with a fleet registry; escalated reports are not cached.
	Provenance string `json:"provenance,omitempty"`
	Error      string `json:"error,omitempty"`
}

// PayloadReport is the decoded watermark payload, present when the chip
// carried a structurally valid watermark.
type PayloadReport struct {
	Manufacturer string `json:"manufacturer"`
	DieID        uint64 `json:"dieId"`
	SpeedGrade   uint8  `json:"speedGrade"`
	Status       string `json:"status"`
	YearWeek     uint16 `json:"yearWeek"`
}

// BatchRequest is the body of POST /v1/verify/batch: each element of
// Chips is one complete chip file (the same JSON either backend's Save
// writes).
type BatchRequest struct {
	Chips []json.RawMessage `json:"chips"`
}

// BatchSummary aggregates a batch's verdicts.
type BatchSummary struct {
	Chips    int            `json:"chips"`
	Accepted int            `json:"accepted"`
	Refused  int            `json:"refused"`
	Failed   int            `json:"failed"`
	Verdicts map[string]int `json:"verdicts"`
}

// BatchResponse is the body answered by POST /v1/verify/batch. Results
// are indexed by input position regardless of completion order.
type BatchResponse struct {
	Results []json.RawMessage `json:"results"`
	Summary BatchSummary      `json:"summary"`
}

// httpError carries a status code through the screening path.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}

func writeJSONBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_, _ = w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		_, _ = io.WriteString(w, "\n")
	}
}

// beginRequest registers an in-flight verification unless the server is
// draining; the caller must invoke the returned done func.
func (s *Server) beginRequest() (done func(), ok bool) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.Draining() {
		return nil, false
	}
	s.inflight.Add(1)
	return func() { s.inflight.Done() }, true
}

// bodyScratch recycles request-body read buffers across requests: the
// dominant body (one chip file, ~100KB of base64) is read into pooled
// capacity instead of a fresh io.ReadAll allocation chain per request.
var bodyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// readBody drains the request body under the configured cap into a
// pooled buffer. On success the caller owns raw until it calls release
// (typically deferred to the end of the handler); raw must not be
// retained past it. Everything handed onward — report bodies, cache
// entries, batch chip elements — is copied out of raw by construction.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (raw []byte, release func(), herr *httpError) {
	bp := bodyScratch.Get().(*[]byte)
	buf := (*bp)[:0]
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf[:0]
			bodyScratch.Put(bp)
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				return nil, nil, &httpError{http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
			}
			return nil, nil, &httpError{http.StatusBadRequest, "reading request body: " + err.Error()}
		}
	}
	return buf, func() { *bp = buf[:0]; bodyScratch.Put(bp) }, nil
}

// chipLoaders pools chip-file dispatchers so a steady request stream
// reloads chips into recycled arrays. It is shared by every Server in
// the process, like bodyScratch: a loader holds no server state, and a
// per-Server pool would give each new Server its own set of
// multi-megabyte cell arrays.
var chipLoaders = sync.Pool{New: func() any { return new(chipfile.Loader) }}

// withChip loads raw through a pooled dispatcher, applies the
// configured decorator, and runs use on the device. The device aliases
// the loader's storage, so the loader returns to the pool only after
// use does; use must not keep the device.
func (s *Server) withChip(raw []byte, use func(device.Device) *httpError) *httpError {
	ld := chipLoaders.Get().(*chipfile.Loader)
	defer chipLoaders.Put(ld)
	dev, err := ld.Load(raw)
	if err != nil {
		return &httpError{http.StatusBadRequest, err.Error()}
	}
	if s.cfg.Decorate != nil {
		dev = s.cfg.Decorate(dev)
	}
	return use(dev)
}

// screenChip runs one chip's bytes through parse -> decorate -> verify
// and renders the ChipReport. The encoded body, its decoded form, and
// the verdict come back for caching; failures come back as *httpError.
func (s *Server) screenChip(ctx context.Context, raw []byte, sum string) ([]byte, ChipReport, counterfeit.Verdict, *httpError) {
	var (
		rep ChipReport
		res counterfeit.Result
	)
	herr := s.withChip(raw, func(dev device.Device) *httpError {
		var err error
		res, err = s.cfg.Verifier.VerifyContext(ctx, dev)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				s.met.deadlines.Inc()
				return &httpError{http.StatusGatewayTimeout, "verification deadline exceeded"}
			}
			if errors.Is(err, context.Canceled) {
				return &httpError{statusClientClosedRequest, "client canceled the request"}
			}
			return &httpError{http.StatusUnprocessableEntity, "verification failed: " + err.Error()}
		}
		rep = ChipReport{
			SHA256:              sum,
			Part:                dev.PartName(),
			Seed:                dev.Seed(),
			Verdict:             res.Verdict.String(),
			Accepted:            res.Verdict.Accepted(),
			ReplicaDisagreement: res.ReplicaDisagreement,
			WornDataSegments:    res.WornDataSegments,
			SampledDataSegments: res.SampledDataSegments,
			DeviceTimeUs:        dev.Clock().Now().Microseconds(),
		}
		return nil
	})
	if herr != nil {
		return nil, ChipReport{}, 0, herr
	}
	if res.DecodeErr == nil && res.Verdict != counterfeit.VerdictInconclusive {
		rep.Payload = &PayloadReport{
			Manufacturer: res.Payload.Manufacturer,
			DieID:        res.Payload.DieID,
			SpeedGrade:   res.Payload.SpeedGrade,
			Status:       res.Payload.Status.String(),
			YearWeek:     res.Payload.YearWeek,
		}
	}
	if res.FaultErr != nil {
		rep.Fault = res.FaultErr.Error()
	}
	body, err := encodeChipReport(&rep)
	if err != nil {
		return nil, ChipReport{}, 0, &httpError{http.StatusInternalServerError, "encoding report: " + err.Error()}
	}
	return body, rep, res.Verdict, nil
}

// statusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; no RFC status fits better.
const statusClientClosedRequest = 499

// chipKey is the registry-cache key: the content hash of the chip bytes.
// The verifier policy is fixed per server, so the hash alone identifies
// the verdict.
func chipKey(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// screenCached serves one chip through the verdict cache: a hit skips
// parsing and verification entirely, a miss computes and populates.
// key must be chipKey(raw); callers compute it once and reuse it.
// Cached entries hold the physics verdict only — the provenance overlay
// (applyProvenance/batchProvenance) runs per request on top, and the
// caller counts the final verdict into the metrics.
func (s *Server) screenCached(ctx context.Context, key string, raw []byte) ([]byte, ChipReport, counterfeit.Verdict, bool, *httpError) {
	if body, rep, verdict, ok := s.cache.Get(key); ok {
		s.met.cacheHit.Inc()
		return body, rep, verdict, true, nil
	}
	s.met.cacheMiss.Inc()
	body, rep, verdict, herr := s.screenChip(ctx, raw, key)
	if herr != nil {
		return nil, ChipReport{}, 0, false, herr
	}
	s.cache.Put(key, body, rep, verdict)
	return body, rep, verdict, false, nil
}

func (s *Server) countChip(v counterfeit.Verdict) {
	s.met.chips.Inc()
	if c, ok := s.met.verdicts[v]; ok {
		c.Inc()
	}
	if v == counterfeit.VerdictInconclusive {
		s.met.faults.Inc()
	}
}

// handleVerify answers POST /v1/verify: one chip file in, one
// ChipReport out.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	s.met.requests.Inc()
	defer func() { s.met.latency.ObserveDuration(s.since(start)) }()
	if r.Method != http.MethodPost {
		s.met.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, "use POST with a chip file body")
		return
	}
	done, ok := s.beginRequest()
	if !ok {
		s.met.errors.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer done()
	raw, releaseBody, herr := s.readBody(w, r)
	if herr != nil {
		s.met.errors.Inc()
		writeError(w, herr.status, herr.msg)
		return
	}
	defer releaseBody()
	// A cache hit bypasses admission: it consumes no verification
	// worker. The provenance overlay still applies — escalation depends
	// on live registry state, which is exactly what the cache omits.
	key := chipKey(raw)
	if body, rep, verdict, ok := s.cache.Get(key); ok {
		s.met.cacheHit.Inc()
		body, verdict, herr := s.applyProvenance(body, &rep, verdict)
		if herr != nil {
			s.met.errors.Inc()
			writeError(w, herr.status, herr.msg)
			return
		}
		s.countChip(verdict)
		w.Header().Set("X-Cache", "hit")
		writeJSONBody(w, http.StatusOK, body)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	body, rep, verdict, cached, herr := s.screenCached(ctx, key, raw)
	if herr != nil {
		s.met.errors.Inc()
		writeError(w, herr.status, herr.msg)
		return
	}
	body, verdict, herr = s.applyProvenance(body, &rep, verdict)
	if herr != nil {
		s.met.errors.Inc()
		writeError(w, herr.status, herr.msg)
		return
	}
	s.countChip(verdict)
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	s.logf("verify %s -> %s in %v", key[:12], verdict, s.since(start).Round(time.Millisecond))
	writeJSONBody(w, http.StatusOK, body)
}

// handleVerifyBatch answers POST /v1/verify/batch: a population of chip
// files fans out over the deterministic parallel engine; results are
// indexed by input order, so two identical batch requests produce
// byte-identical response bodies no matter how the fan-out is scheduled.
func (s *Server) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	s.met.requests.Inc()
	defer func() { s.met.latency.ObserveDuration(s.since(start)) }()
	if r.Method != http.MethodPost {
		s.met.errors.Inc()
		writeError(w, http.StatusMethodNotAllowed, "use POST with a JSON batch body")
		return
	}
	done, ok := s.beginRequest()
	if !ok {
		s.met.errors.Inc()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer done()
	raw, releaseBody, herr := s.readBody(w, r)
	if herr != nil {
		s.met.errors.Inc()
		writeError(w, herr.status, herr.msg)
		return
	}
	defer releaseBody()
	// Unmarshal copies each chip element out of raw (RawMessage always
	// appends into its own storage), so the pooled body can be released
	// when the handler returns.
	var req BatchRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, "batch body must be {\"chips\":[...]}: "+err.Error())
		return
	}
	if len(req.Chips) == 0 {
		s.met.errors.Inc()
		writeError(w, http.StatusBadRequest, "batch contains no chips")
		return
	}
	// The whole batch occupies one admission slot; its internal fan-out
	// is bounded separately by BatchWorkers on the parallel engine.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	type chipOutcome struct {
		body    []byte
		rep     ChipReport
		verdict counterfeit.Verdict
		failed  bool
	}
	pool := parallel.Pool{Workers: s.cfg.BatchWorkers}
	outcomes, err := parallel.MapContext(ctx, pool, len(req.Chips), func(i int) (chipOutcome, error) {
		key := chipKey(req.Chips[i])
		body, rep, verdict, _, herr := s.screenCached(ctx, key, req.Chips[i])
		if herr != nil {
			if herr.status == http.StatusGatewayTimeout || herr.status == statusClientClosedRequest {
				// A dead context ends the whole batch, not just this chip.
				return chipOutcome{}, ctx.Err()
			}
			rep := ChipReport{SHA256: key, Verdict: "ERROR", Error: herr.msg}
			eb, merr := encodeChipReport(&rep)
			if merr != nil {
				return chipOutcome{}, merr
			}
			return chipOutcome{body: eb, rep: rep, failed: true}, nil
		}
		return chipOutcome{body: body, rep: rep, verdict: verdict}, nil
	})
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.met.deadlines.Inc()
			s.met.errors.Inc()
			writeError(w, http.StatusGatewayTimeout, "batch verification deadline exceeded")
			return
		}
		s.met.errors.Inc()
		writeError(w, http.StatusInternalServerError, "batch verification failed: "+err.Error())
		return
	}
	// Registry post-pass: serial, in input order, after the parallel
	// physics fan-out — the response stays byte-deterministic no matter
	// how the fan-out was scheduled.
	bodies := make([][]byte, len(outcomes))
	reps := make([]ChipReport, len(outcomes))
	verdicts := make([]counterfeit.Verdict, len(outcomes))
	failed := make([]bool, len(outcomes))
	for i, o := range outcomes {
		bodies[i], reps[i], verdicts[i], failed[i] = o.body, o.rep, o.verdict, o.failed
	}
	if herr := s.batchProvenance(bodies, reps, verdicts, failed); herr != nil {
		s.met.errors.Inc()
		writeError(w, herr.status, herr.msg)
		return
	}
	summary := BatchSummary{Chips: len(outcomes), Verdicts: make(map[string]int)}
	for i := range outcomes {
		if failed[i] {
			summary.Failed++
			continue
		}
		s.countChip(verdicts[i])
		summary.Verdicts[verdicts[i].String()]++
		if verdicts[i].Accepted() {
			summary.Accepted++
		} else {
			summary.Refused++
		}
	}
	body := appendBatchResponse(nil, bodies, summary, nil)
	s.logf("batch of %d -> %d accepted, %d refused, %d failed in %v",
		summary.Chips, summary.Accepted, summary.Refused,
		summary.Failed, s.since(start).Round(time.Millisecond))
	writeJSONBody(w, http.StatusOK, body)
}

// handleHealthz answers liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSONBody(w, http.StatusOK, []byte(`{"status":"ok"}`))
}

// handleReadyz answers readiness: 503 once draining so load balancers
// stop routing new work here.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSONBody(w, http.StatusServiceUnavailable, []byte(`{"status":"draining"}`))
		return
	}
	writeJSONBody(w, http.StatusOK, []byte(`{"status":"ready"}`))
}
