#!/usr/bin/env sh
# Service-level SLO scenario: build fmverifyd and fmloadgen, prove the
# load schedule is reproducible (two -plan-only runs must print the same
# digest), drive live daemons with the fixed CI scenario in three phases
# (steady, overdrive, cluster), and fail unless each phase's report
# holds its SLO bands.
#
# Usage: scripts/loadgen_slo.sh [workdir]
# Artifacts (the BENCH_service*.json reports, /metrics snapshot, daemon
# logs) are left in the workdir (default: ./loadgen-out) for CI upload.
set -eu

workdir=${1:-loadgen-out}
addr=127.0.0.1:8932
base="http://$addr"
key=loadgen-key
seed=20260808

# The fixed CI scenario and its steady-phase SLO bands (FIELD OP BOUND
# over the report). Offered load is deliberately modest for shared
# runners: the bands check acceptance, not peak throughput, and hold
# only for this scenario, so change them together (see DESIGN.md "SLO
# methodology").
scenario="-seed $seed -rate 120 -duration 8s -inflight 64 \
    -fleet-genuine 24 -fleet-clones 8 -fleet-counterfeits 8 -key $key"
steady_bands="verify_p99_ms <= 1000 verify_p999_ms <= 2500 \
    verifies_per_sec >= 60 enrolls_per_sec >= 5 shed_rate <= 0.05 \
    http_errors == 0 duplicate_id_verdicts >= 1"

# bands REPORT FIELD OP BOUND...: print each measured field next to its
# bound and fail unless every band holds. (.FIELD | numbers) is empty
# for a missing or non-numeric field, so jq -e exits non-zero instead of
# comparing null, which jq orders below every number.
bands() {
    report=$1
    shift
    ok=true
    while [ "$#" -ge 3 ]; do
        got=$(jq -c ".$1" "$report")
        if jq -e "(.$1 | numbers) $2 $3" "$report" >/dev/null; then
            echo "  $1 = $got ($2 $3)"
        else
            echo "FAIL: $1 = $got, want $2 $3" >&2
            ok=false
        fi
        shift 3
    done
    if ! $ok; then
        cat "$report" >&2
        exit 1
    fi
}

mkdir -p "$workdir"
go build -o "$workdir/fmverifyd" ./cmd/fmverifyd
go build -o "$workdir/fmloadgen" ./cmd/fmloadgen

"$workdir/fmloadgen" -version

# Reproducibility gate: the schedule is a pure function of the flags, so
# two plan-only runs must agree on the digest before anything is sent.
# shellcheck disable=SC2086
"$workdir/fmloadgen" $scenario -plan-only >"$workdir/plan_a.txt"
# shellcheck disable=SC2086
"$workdir/fmloadgen" $scenario -plan-only >"$workdir/plan_b.txt"
if ! cmp -s "$workdir/plan_a.txt" "$workdir/plan_b.txt"; then
    echo "FAIL: identical seeds produced different plans" >&2
    diff "$workdir/plan_a.txt" "$workdir/plan_b.txt" >&2 || true
    exit 1
fi
echo "plan determinism OK: $(cat "$workdir/plan_a.txt")"

"$workdir/fmverifyd" -addr "$addr" -key "$key" -registry-dir "$workdir/registry" \
    >"$workdir/fmverifyd.log" 2>&1 &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT

i=0
until curl -sf "$base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: daemon did not become healthy" >&2
        cat "$workdir/fmverifyd.log" >&2
        exit 1
    fi
    sleep 0.2
done

# shellcheck disable=SC2086
"$workdir/fmloadgen" $scenario -target "$base" -out "$workdir/BENCH_service.json"

# Server-side view of the same run, uploaded next to the client report.
curl -sf "$base/metrics" >"$workdir/metrics.txt"

echo "steady SLO bands:"
# shellcheck disable=SC2086
bands "$workdir/BENCH_service.json" $steady_bands

kill -TERM "$daemon"
if ! wait "$daemon"; then
    echo "FAIL: daemon did not drain cleanly after the load run" >&2
    cat "$workdir/fmverifyd.log" >&2
    exit 1
fi
trap - EXIT

# Overdrive phase: a deliberately under-provisioned daemon (one worker,
# a queue of two, verdict cache off so every request is a real
# verification) is offered several times its capacity. The SLO here is
# about *failure shape*, not throughput: the excess must be shed with
# 429s (shed_429 > 0), shedding must not corrupt any response (fmloadgen
# exits non-zero on any HTTP error), and the requests that ARE admitted
# must stay fast (verify_p99_ms bounded) — a bounded queue keeps latency
# flat where an unbounded one would let the backlog poison every
# admitted request.
od_addr=127.0.0.1:8933
od_base="http://$od_addr"
"$workdir/fmverifyd" -addr "$od_addr" -key "$key" -workers 1 -queue 2 -cache -1 \
    -registry-dir "$workdir/registry-overdrive" \
    >"$workdir/fmverifyd_overdrive.log" 2>&1 &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT

i=0
until curl -sf "$od_base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: overdrive daemon did not become healthy" >&2
        cat "$workdir/fmverifyd_overdrive.log" >&2
        exit 1
    fi
    sleep 0.2
done

"$workdir/fmloadgen" -seed "$seed" -rate 600 -duration 3s -inflight 128 \
    -fleet-genuine 24 -fleet-clones 8 -fleet-counterfeits 8 -key "$key" \
    -target "$od_base" -out "$workdir/BENCH_service_overdrive.json"

echo "overdrive SLO bands:"
bands "$workdir/BENCH_service_overdrive.json" \
    shed_429 '>' 0 verify_p99_ms '>' 0 verify_p99_ms '<' 1500

kill -TERM "$daemon"
if ! wait "$daemon"; then
    echo "FAIL: overdrive daemon did not drain cleanly" >&2
    cat "$workdir/fmverifyd_overdrive.log" >&2
    exit 1
fi
trap - EXIT

# Cluster phase: the same clone storm through the distributed plane.
# Two fmregistryd shard primaries hold the fleet between them (die ids
# route by consistent hash, so victim and clone always share a shard
# while the fleet as a whole spans both), and a stateless fmverifyd
# fronts them with -cluster. The SLO is the detection floor: sharding
# the registry must not lose a single DUPLICATE-ID escalation, and both
# shards must end up holding keys — otherwise the ring routed everything
# to one node and the phase silently degenerated to single-node.
go build -o "$workdir/fmregistryd" ./cmd/fmregistryd

shard_a=127.0.0.1:8934
shard_b=127.0.0.1:8935
shard_a_metrics=127.0.0.1:8936
shard_b_metrics=127.0.0.1:8937
cl_addr=127.0.0.1:8938
cl_base="http://$cl_addr"

"$workdir/fmregistryd" -addr "$shard_a" -dir "$workdir/shard-a" \
    -metrics-addr "$shard_a_metrics" >"$workdir/fmregistryd_a.log" 2>&1 &
shard_a_pid=$!
"$workdir/fmregistryd" -addr "$shard_b" -dir "$workdir/shard-b" \
    -metrics-addr "$shard_b_metrics" >"$workdir/fmregistryd_b.log" 2>&1 &
shard_b_pid=$!
"$workdir/fmverifyd" -addr "$cl_addr" -key "$key" -cluster "$shard_a;$shard_b" \
    >"$workdir/fmverifyd_cluster.log" 2>&1 &
daemon=$!
trap 'kill "$daemon" "$shard_a_pid" "$shard_b_pid" 2>/dev/null || true' EXIT

i=0
until curl -sf "$cl_base/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "FAIL: cluster-mode daemon did not become healthy" >&2
        cat "$workdir/fmverifyd_cluster.log" "$workdir/fmregistryd_a.log" "$workdir/fmregistryd_b.log" >&2
        exit 1
    fi
    sleep 0.2
done

# shellcheck disable=SC2086
"$workdir/fmloadgen" $scenario -target "$cl_base" -out "$workdir/BENCH_service_cluster.json"

echo "cluster SLO bands:"
bands "$workdir/BENCH_service_cluster.json" duplicate_id_verdicts '>=' 1

keys_a=$(curl -sf "http://$shard_a_metrics/metrics" | awk '/^fmregistry_keys/ { print $2 }')
keys_b=$(curl -sf "http://$shard_b_metrics/metrics" | awk '/^fmregistry_keys/ { print $2 }')
if [ "${keys_a:-0}" -lt 1 ] || [ "${keys_b:-0}" -lt 1 ]; then
    echo "FAIL: fleet did not spread across shards (shard A keys = ${keys_a:-0}, shard B keys = ${keys_b:-0})" >&2
    exit 1
fi
echo "cluster sharding OK: shard A holds $keys_a keys, shard B holds $keys_b"

kill -TERM "$daemon"
if ! wait "$daemon"; then
    echo "FAIL: cluster-mode daemon did not drain cleanly" >&2
    cat "$workdir/fmverifyd_cluster.log" >&2
    exit 1
fi
kill -TERM "$shard_a_pid" "$shard_b_pid"
wait "$shard_a_pid" "$shard_b_pid" || true
trap - EXIT

echo "loadgen scenario done (artifacts in $workdir)"
