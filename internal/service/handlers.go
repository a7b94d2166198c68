package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/freelist"
	"github.com/flashmark/flashmark/internal/nor"
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

// chipLoaders recycles chip-file dispatchers so a steady request stream
// reloads chips into recycled arrays, a GC included. It is shared by
// every Server in the process, like bodyScratch: a loader holds no
// server state, and a per-Server list would give each new Server its
// own set of multi-megabyte cell arrays.
var chipLoaders = freelist.New(func() *chipfile.Loader { return new(chipfile.Loader) }, 0)

// maxIdleCells bounds what an idle loader keeps: the cells of the
// largest catalog part, MSP430F5438 (2,097,152). A NAND or ReRAM chip
// file names its own geometry, so one request can grow a loader's
// arrays (and a NAND loader's per-block state) far past any real chip;
// such a loader is dropped for the collector rather than kept for the
// life of the process.
var maxIdleCells = nor.MSP430F5438().TotalCells()

// releaseLoader returns a loader to chipLoaders, or drops it when what
// it keeps for reuse exceeds maxIdleCells.
func releaseLoader(ld *chipfile.Loader) {
	if ld.Retained() > maxIdleCells {
		return
	}
	chipLoaders.Put(ld)
}

// withChip loads raw through a recycled dispatcher, applies the
// configured decorator, and runs use on the device. The device aliases
// the loader's storage, so the loader returns to chipLoaders only after
// use does; use must not keep the device.
func (s *Server) withChip(raw []byte, use func(device.Device) error) error {
	ld := chipLoaders.Get()
	defer releaseLoader(ld)
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
// the verdict come back for caching. A chip that cannot be screened
// comes back as an *httpError; a verification the request's context
// ended comes back as that context error, for the lifecycle to answer.
func (s *Server) screenChip(ctx context.Context, raw []byte, sum string) ([]byte, ChipReport, counterfeit.Verdict, error) {
	var (
		rep ChipReport
		res counterfeit.Result
	)
	err := s.withChip(raw, func(dev device.Device) error {
		var err error
		res, err = s.cfg.Verifier.VerifyContext(ctx, dev)
		if err != nil {
			if errors.Is(err, ctx.Err()) {
				return err
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
	if err != nil {
		return nil, ChipReport{}, 0, err
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
func (s *Server) screenCached(ctx context.Context, key string, raw []byte) ([]byte, ChipReport, counterfeit.Verdict, bool, error) {
	if body, rep, verdict, ok := s.cache.Get(key); ok {
		s.met.cacheHit.Inc()
		return body, rep, verdict, true, nil
	}
	s.met.cacheMiss.Inc()
	body, rep, verdict, err := s.screenChip(ctx, raw, key)
	if err != nil {
		return nil, ChipReport{}, 0, false, err
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

// verifyHit is /v1/verify's pre-admission step. A chip in the verdict
// cache is answered here: it consumes no verification worker, so it
// takes no admission slot and no deadline, and it is not logged. The
// provenance overlay still applies — escalation depends on live
// registry state, which is exactly what the cache omits.
func (s *Server) verifyHit(req *request) ([]byte, error) {
	req.key = chipKey(req.raw)
	body, rep, verdict, ok := s.cache.Get(req.key)
	if !ok {
		return nil, nil
	}
	s.met.cacheHit.Inc()
	body, verdict, err := s.applyProvenance(body, &rep, verdict)
	if err != nil {
		return nil, err
	}
	s.countChip(verdict)
	req.w.Header().Set("X-Cache", "hit")
	return body, nil
}

// serveVerify answers POST /v1/verify: one chip file in, one
// ChipReport out.
func (s *Server) serveVerify(ctx context.Context, req *request) ([]byte, error) {
	body, rep, verdict, cached, err := s.screenCached(ctx, req.key, req.raw)
	if err != nil {
		return nil, err
	}
	body, verdict, err = s.applyProvenance(body, &rep, verdict)
	if err != nil {
		return nil, err
	}
	s.countChip(verdict)
	if cached {
		req.w.Header().Set("X-Cache", "hit")
	} else {
		req.w.Header().Set("X-Cache", "miss")
	}
	s.logf("verify %s -> %s in %v", req.key[:12], verdict, s.since(req.start).Round(time.Millisecond))
	return body, nil
}

// decodeBatch is /v1/verify/batch's pre-admission step: a malformed or
// empty batch is refused before it takes an admission slot. A body of
// canonical chip files splits without a JSON scan into elements that
// alias the recycled body, which run releases only after serve, and so
// the batch fan-out, has returned. Any other body goes to
// json.Unmarshal, which copies each element (RawMessage always appends
// into its own storage) and words every refusal.
func decodeBatch(req *request) ([]byte, error) {
	chips, ok := chipfile.SplitBatch(req.raw)
	if !ok {
		var br BatchRequest
		if err := json.Unmarshal(req.raw, &br); err != nil {
			return nil, &httpError{http.StatusBadRequest, "batch body must be {\"chips\":[...]}: " + err.Error()}
		}
		chips = br.Chips
	}
	if len(chips) == 0 {
		return nil, &httpError{http.StatusBadRequest, "batch contains no chips"}
	}
	req.chips = chips
	return nil, nil
}

// chipOutcome is one batch element after screening: its report body,
// the report's decoded form and the verdict, or, when the element could
// not be screened, an embedded ERROR report marked failed.
type chipOutcome struct {
	body    []byte
	rep     ChipReport
	verdict counterfeit.Verdict
	failed  bool
}

// serveBatch answers POST /v1/verify/batch: a population of chip files
// fans out over the deterministic parallel engine; results are indexed
// by input order, so two identical batch requests produce
// byte-identical response bodies no matter how the fan-out is
// scheduled. The whole batch holds one admission slot, and its fan-out
// runs on up to Workers goroutines.
func (s *Server) serveBatch(ctx context.Context, req *request) ([]byte, error) {
	outcomes, err := parallel.MapContext(ctx, parallel.Pool{Workers: s.cfg.Workers}, len(req.chips),
		func(i int) (chipOutcome, error) { return s.screenElement(ctx, req.chips[i]) })
	if err != nil {
		return nil, err
	}
	if err := s.batchProvenance(outcomes); err != nil {
		return nil, err
	}
	summary := BatchSummary{Chips: len(outcomes), Verdicts: make(map[string]int)}
	bodies := make([][]byte, len(outcomes))
	for i, o := range outcomes {
		bodies[i] = o.body
		if o.failed {
			summary.Failed++
			continue
		}
		s.countChip(o.verdict)
		summary.Verdicts[o.verdict.String()]++
		if o.verdict.Accepted() {
			summary.Accepted++
		} else {
			summary.Refused++
		}
	}
	s.logf("batch of %d -> %d accepted, %d refused, %d failed in %v",
		summary.Chips, summary.Accepted, summary.Refused,
		summary.Failed, s.since(req.start).Round(time.Millisecond))
	return appendBatchResponse(nil, bodies, summary, nil), nil
}

// screenElement screens one batch element. An element that cannot be
// screened gets an ERROR report in its slot; only a context that ended
// fails the element, and with it the whole batch.
func (s *Server) screenElement(ctx context.Context, raw []byte) (chipOutcome, error) {
	key := chipKey(raw)
	body, rep, verdict, _, err := s.screenCached(ctx, key, raw)
	var herr *httpError
	switch {
	case err == nil:
		return chipOutcome{body: body, rep: rep, verdict: verdict}, nil
	case !errors.As(err, &herr):
		return chipOutcome{}, err
	}
	rep = ChipReport{SHA256: key, Verdict: "ERROR", Error: herr.msg}
	body, err = encodeChipReport(&rep)
	if err != nil {
		return chipOutcome{}, err
	}
	return chipOutcome{body: body, rep: rep, failed: true}, nil
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
