package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/registry"
	"github.com/flashmark/flashmark/internal/service"
	"github.com/flashmark/flashmark/internal/wmcode"
)

func TestPlanDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 500, Duration: 2 * time.Second}
	a := BuildPlan(cfg)
	b := BuildPlan(cfg)
	if len(a.Requests) == 0 {
		t.Fatal("plan is empty")
	}
	if !reflect.DeepEqual(a.Requests, b.Requests) {
		t.Fatal("identical configs produced different plans")
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest mismatch: %s vs %s", a.Digest(), b.Digest())
	}
	c := BuildPlan(Config{Seed: 43, Rate: 500, Duration: 2 * time.Second})
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced the same digest")
	}
}

func TestPlanShape(t *testing.T) {
	cfg := Config{Seed: 7, Rate: 400, Duration: 3 * time.Second}.withDefaults()
	p := BuildPlan(cfg)
	if got := p.Count(OpVerify) + p.Count(OpBatch) + p.Count(OpEnroll); got != len(p.Requests) {
		t.Fatalf("kind counts sum to %d, want %d", got, len(p.Requests))
	}
	// With ~1200 expected arrivals at 8:1:1 every kind should appear.
	for _, k := range []OpKind{OpVerify, OpBatch, OpEnroll} {
		if p.Count(k) == 0 {
			t.Errorf("no %s requests planned", k)
		}
	}
	var prev time.Duration
	for i, r := range p.Requests {
		if r.At < prev {
			t.Fatalf("request %d arrives at %v, before predecessor %v", i, r.At, prev)
		}
		prev = r.At
		if r.At >= cfg.Duration {
			t.Fatalf("request %d at %v exceeds duration %v", i, r.At, cfg.Duration)
		}
		if len(r.Chips) == 0 {
			t.Fatalf("request %d has no chips", i)
		}
		if r.Kind == OpBatch && len(r.Chips) > cfg.BatchMax {
			t.Fatalf("batch %d holds %d chips, cap %d", i, len(r.Chips), cfg.BatchMax)
		}
		limit := cfg.Fleet.Size()
		if r.Kind == OpEnroll {
			limit = cfg.Fleet.Enrollable()
		}
		for _, c := range r.Chips {
			if c < 0 || c >= limit {
				t.Fatalf("request %d (%s) picks chip %d outside [0,%d)", i, r.Kind, c, limit)
			}
		}
	}
}

func TestFleetDeterminism(t *testing.T) {
	spec := FleetSpec{Genuine: 3, Clones: 2, Counterfeits: 2}
	a, err := BuildFleet(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildFleet(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Chips, b.Chips) {
		t.Fatal("identical seeds produced different fleets")
	}
	if len(a.Chips) != spec.Size() {
		t.Fatalf("fleet holds %d chips, want %d", len(a.Chips), spec.Size())
	}
	for i := 0; i < spec.Genuine; i++ {
		if a.Chips[i].Class != counterfeit.ClassGenuineAccept {
			t.Fatalf("chip %d is %s, want genuine", i, a.Chips[i].Class)
		}
	}
	for i := spec.Genuine; i < spec.Genuine+spec.Clones; i++ {
		c := a.Chips[i]
		if c.Class != counterfeit.ClassReplayImprint {
			t.Fatalf("chip %d is %s, want replay-imprint clone", i, c.Class)
		}
		victim := a.Chips[(i-spec.Genuine)%spec.Genuine]
		if c.DieID != victim.DieID {
			t.Fatalf("clone %d carries die %#x, want victim's %#x", i, c.DieID, victim.DieID)
		}
	}
}

func TestFleetSpecDefaults(t *testing.T) {
	d := FleetSpec{}.withDefaults()
	if d.Genuine != 24 || d.Clones != 8 || d.Counterfeits != 8 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	none := FleetSpec{Genuine: 2, Clones: -1, Counterfeits: -1}.withDefaults()
	if none.Clones != 0 || none.Counterfeits != 0 {
		t.Fatalf("negative counts should disable: %+v", none)
	}
	if none.Size() != 2 || none.Enrollable() != 2 {
		t.Fatalf("size/enrollable wrong: %d/%d", none.Size(), none.Enrollable())
	}
}

// TestRunEndToEnd drives a real in-process fmverifyd handler with a
// short scenario and checks the accounting invariants.
func TestRunEndToEnd(t *testing.T) {
	cfg := Config{
		Seed:        11,
		Rate:        300,
		Duration:    1 * time.Second,
		MaxInFlight: 32,
		Fleet:       FleetSpec{Genuine: 4, Clones: 3, Counterfeits: 3},
		Mix:         Mix{Verify: 6, Batch: 2, Enroll: 2},
	}
	srv, err := service.New(service.Config{
		Verifier:   counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte("loadgen-key")}},
		Provenance: registry.NewMemory(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg.Target = ts.URL

	plan := BuildPlan(cfg)
	fleet, err := BuildFleet(cfg.Fleet, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg, plan, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Sent + res.Dropped; got != int64(len(plan.Requests)) {
		t.Fatalf("sent %d + dropped %d != planned %d", res.Sent, res.Dropped, len(plan.Requests))
	}
	if res.httpErrors() != 0 {
		t.Fatalf("%d http errors against healthy in-process server", res.httpErrors())
	}
	launched := res.Verify.requests.Load() + res.Batch.requests.Load() + res.Enroll.requests.Load()
	if launched != res.Sent {
		t.Fatalf("per-kind requests sum to %d, want sent %d", launched, res.Sent)
	}
	if res.Verify.chips.Load()+res.Batch.chips.Load() == 0 {
		t.Fatal("no chips verified")
	}
	// The fleet has 3 clones sharing genuine die ids and the scenario
	// enrolls from the enrollable prefix, so the registry must flag
	// duplicate identities somewhere in the run.
	if plan.Count(OpEnroll) > 3 && res.DuplicateID.Load() == 0 {
		t.Error("clone storm produced no DUPLICATE-ID verdicts")
	}
	// A latency histogram must hold exactly the OK responses.
	served := res.Sent - res.shed() - res.httpErrors()
	merged := res.Verify.merged()
	for _, s := range []*opStats{res.Batch, res.Enroll} {
		snap := s.merged()
		if err := merged.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Count != served {
		t.Fatalf("latency observations %d != served %d", merged.Count, served)
	}

	rep := BuildReport(cfg, res)
	if rep.Schema != "flashmark-bench-service/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.ScheduleSHA256 != plan.Digest() {
		t.Fatal("report digest differs from plan digest")
	}
	if rep.ChipsVerified == 0 || rep.VerifiesPerSec <= 0 {
		t.Fatalf("report throughput empty: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var round Report
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round != rep {
		t.Fatal("report did not round-trip through JSON")
	}
	// scripts/loadgen_slo.sh bands these fields: each must stay a JSON
	// number under its name, or the live SLO gate fails.
	var fields map[string]any
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{
		"verify_p99_ms", "verify_p999_ms", "verifies_per_sec", "enrolls_per_sec",
		"shed_rate", "shed_429", "duplicate_id_verdicts", "http_errors",
	} {
		if _, ok := fields[k].(float64); !ok {
			t.Errorf("report field %q = %v, want a number", k, fields[k])
		}
	}
}

// TestRunBoundedConcurrency squeezes the in-flight cap to force
// client-side shedding and checks drops are counted, not queued.
func TestRunBoundedConcurrency(t *testing.T) {
	cfg := Config{
		Seed:        3,
		Rate:        2000,
		Duration:    500 * time.Millisecond,
		MaxInFlight: 2,
		Fleet:       FleetSpec{Genuine: 2, Clones: -1, Counterfeits: -1},
		Mix:         Mix{Verify: 1},
	}
	srv, err := service.New(service.Config{
		Verifier: counterfeit.Verifier{Codec: wmcode.Codec{Key: []byte("loadgen-key")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg.Target = ts.URL

	plan := BuildPlan(cfg)
	fleet, err := BuildFleet(cfg.Fleet, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), cfg, plan, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("2-slot cap at 2000 req/s shed nothing client-side")
	}
	if got := res.Sent + res.Dropped; got != int64(len(plan.Requests)) {
		t.Fatalf("sent %d + dropped %d != planned %d", res.Sent, res.Dropped, len(plan.Requests))
	}
	rep := BuildReport(cfg, res)
	if rep.ShedRate <= 0 {
		t.Fatalf("shed rate %v with %d drops", rep.ShedRate, res.Dropped)
	}
}

func TestRunRequiresTarget(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, Plan{}, &Fleet{}); err == nil {
		t.Fatal("Run without target succeeded")
	}
}
