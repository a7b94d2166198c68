GO ?= go

.PHONY: all build vet test race bench bench-physics bench-registry bench-hotpath loadgen experiments smoke cluster-smoke scenarios-check cover cover-check fmt clean

all: build vet test

build:
	$(GO) build ./...

# perfbench is its own module, which ./... skips.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Physics fast-path gate: batched vs per-cell reference physics on
# segment erase, verification extraction and the Fig. 4
# characterization sweep. Each benchmark fails if its speedup falls
# more than 20% below the recorded value, or characterization below 3x.
# 3x, not 1x: a single sweep per path is too noisy to gate.
bench-physics:
	$(GO) test -run xxx -bench 'BenchmarkSegmentErase|BenchmarkVerify|BenchmarkSegmentCharacterize|BenchmarkSteadyStateRead' -benchtime 3x -v ./internal/flashctl/

# Registry gate: fleet-scale lookup against 1M enrolled ids must stay
# under 1000 ns/op; durable group-commit enrollment is reported for
# context.
bench-registry:
	$(GO) test -run xxx -bench 'BenchmarkRegistryLookup|BenchmarkRegistryEnroll' -benchtime 10000x ./internal/registry/

# Verify hot-path gate: the full /v1/verify request lifecycle (mux ->
# admission -> body read -> sniff -> load -> physics verify -> encode)
# measured single-core through the real handler, cache-miss and
# cache-hit. Each miss row must clear its chips/s floor (miss 160,
# miss-screen 80, miss-nand 12, miss-reram 100); the allocs/op ceilings
# are plain tests (TestVerifyHotPathAllocs).
bench-hotpath:
	$(GO) test -run xxx -bench BenchmarkVerifyHotPath -benchtime 50x ./internal/service/

# Synthetic-fleet load scenario and SLO gate: prove the schedule is
# reproducible, start fmverifyd, drive it with the fixed Poisson
# workload (genuine chips, replay-imprint clones, counterfeits) in a
# steady, an overdrive and a cluster phase, and fail unless each
# phase's report in loadgen-out/ holds the bands in
# scripts/loadgen_slo.sh.
loadgen:
	./scripts/loadgen_slo.sh loadgen-out

experiments:
	$(GO) run ./cmd/fmexperiments -run all

# End-to-end smoke of fmverifyd: build, fabricate chips, verify over
# HTTP, assert verdicts and metrics, check the SIGTERM drain.
smoke:
	./scripts/service_smoke.sh smoke-out

# End-to-end smoke of the distributed plane: a replicated registry
# shard behind fmverifyd -cluster; enroll, SIGKILL the primary, fail
# over, and catch the clone as DUPLICATE-ID.
cluster-smoke:
	./scripts/cluster_smoke.sh cluster-smoke-out

# Scenario determinism gate: replay the embedded supply-chain corpus
# twice (parallel workers, then -workers 1), byte-diff every transcript
# against its committed golden and the two runs against each other.
# Catches any wall-clock, map-order, or cross-scenario state leak.
scenarios-check:
	./scripts/scenarios_check.sh scenarios-out

cover:
	$(GO) test -cover ./...

# Coverage gate: recompute total statement coverage and fail if it fell
# below scripts/coverage_baseline.txt.
cover-check:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	./scripts/check_coverage.sh coverage.out

clean:
	$(GO) clean ./...
