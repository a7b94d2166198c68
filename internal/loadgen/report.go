package loadgen

import (
	"encoding/json"
	"os"
	"runtime"

	"github.com/flashmark/flashmark/internal/metrics"
)

// Report is the BENCH_service.json payload (schema
// flashmark-bench-service/v1). scripts/loadgen_slo.sh gates its SLO
// bands on the top-level field names, so renaming one breaks the gate.
type Report struct {
	Schema     string `json:"schema"`
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`

	Seed           uint64  `json:"seed"`
	RateHz         float64 `json:"rate_hz"`
	PlannedS       float64 `json:"planned_duration_s"`
	ElapsedS       float64 `json:"elapsed_s"`
	FleetChips     int     `json:"fleet_chips"`
	ScheduleSHA256 string  `json:"schedule_sha256"`

	PlannedRequests int   `json:"planned_requests"`
	SentRequests    int64 `json:"sent_requests"`
	ClientDropped   int64 `json:"client_dropped"`

	VerifyRequests int64   `json:"verify_requests"`
	VerifyP50Ms    float64 `json:"verify_p50_ms"`
	VerifyP99Ms    float64 `json:"verify_p99_ms"`
	VerifyP999Ms   float64 `json:"verify_p999_ms"`
	BatchRequests  int64   `json:"batch_requests"`
	BatchP99Ms     float64 `json:"batch_p99_ms"`
	ChipsVerified  int64   `json:"chips_verified"`
	VerifiesPerSec float64 `json:"verifies_per_sec"`

	EnrollRequests int64   `json:"enroll_requests"`
	EnrollP99Ms    float64 `json:"enroll_p99_ms"`
	EnrollsPerSec  float64 `json:"enrolls_per_sec"`

	DuplicateIDVerdicts int64   `json:"duplicate_id_verdicts"`
	Shed429             int64   `json:"shed_429"`
	ShedRate            float64 `json:"shed_rate"`
	HTTPErrors          int64   `json:"http_errors"`
}

// ms converts a quantile in seconds to milliseconds.
func ms(s metrics.HistogramSnapshot, q float64) float64 { return s.Quantile(q) * 1e3 }

// BuildReport renders a run into the gated report shape.
func BuildReport(cfg Config, res *Result) Report {
	cfg = cfg.withDefaults()
	elapsed := res.Elapsed.Seconds()
	verifyLat := res.Verify.merged()
	batchLat := res.Batch.merged()
	enrollLat := res.Enroll.merged()
	rep := Report{
		Schema:     "flashmark-bench-service/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),

		Seed:           cfg.Seed,
		RateHz:         cfg.Rate,
		PlannedS:       cfg.Duration.Seconds(),
		ElapsedS:       elapsed,
		FleetChips:     cfg.Fleet.Size(),
		ScheduleSHA256: res.Plan.Digest(),

		PlannedRequests: len(res.Plan.Requests),
		SentRequests:    res.Sent,
		ClientDropped:   res.Dropped,

		VerifyRequests: res.Verify.requests.Load(),
		VerifyP50Ms:    ms(verifyLat, 0.50),
		VerifyP99Ms:    ms(verifyLat, 0.99),
		VerifyP999Ms:   ms(verifyLat, 0.999),
		BatchRequests:  res.Batch.requests.Load(),
		BatchP99Ms:     ms(batchLat, 0.99),
		ChipsVerified:  res.Verify.chips.Load() + res.Batch.chips.Load(),

		EnrollRequests: res.Enroll.requests.Load(),
		EnrollP99Ms:    ms(enrollLat, 0.99),

		DuplicateIDVerdicts: res.DuplicateID.Load(),
		Shed429:             res.shed(),
		HTTPErrors:          res.httpErrors(),
	}
	if elapsed > 0 {
		rep.VerifiesPerSec = float64(rep.ChipsVerified) / elapsed
		rep.EnrollsPerSec = float64(res.Enroll.chips.Load()) / elapsed
	}
	if res.Sent+res.Dropped > 0 {
		// Shed rate counts both server 429s and client-side drops: every
		// planned arrival the system (client cap included) refused.
		rep.ShedRate = float64(rep.Shed429+res.Dropped) / float64(res.Sent+res.Dropped)
	}
	return rep
}

// WriteFile writes the report as indented JSON.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
