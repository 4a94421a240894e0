#!/usr/bin/env bash
# Benchmark smoke gate: run BenchmarkSimulatorThroughput and fail on a
# >20% throughput regression versus the checked-in baseline
# (scripts/bench_baseline.txt). Usage: scripts/bench_smoke.sh [benchtime]
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=$(grep -Ev '^\s*(#|$)' scripts/bench_baseline.txt | head -1 | tr -d '[:space:]')
benchtime="${1:-2s}"

out=$(go test -bench='BenchmarkSimulatorThroughput$' -run=NONE -benchtime="$benchtime" -count=1 .)
echo "$out"

minsts=$(echo "$out" | awk '{for (i = 2; i <= NF; i++) if ($i == "Minsts/s") print $(i-1)}' | tail -1)
if [ -z "$minsts" ]; then
    echo "bench_smoke: could not parse Minsts/s from benchmark output" >&2
    exit 1
fi

awk -v got="$minsts" -v base="$baseline" 'BEGIN {
    floor = 0.8 * base
    if (got + 0 < floor) {
        printf "bench_smoke: FAIL — %.2f Minsts/s is below 80%% of the %.2f baseline (floor %.2f)\n", got, base, floor
        exit 1
    }
    printf "bench_smoke: OK — %.2f Minsts/s (baseline %.2f, floor %.2f)\n", got, base, floor
}'

# The DISE-installed run (informational, not gated): the paper's
# configuration, with store-class productions expanding through the
# per-slot expansion memo. scans/lookup is the productions examined per
# engine lookup. Three consecutive runs of it on a 2-vCPU container
# spread over about 20% (4.6-5.7 Minsts/s before the expansion memo), too
# wide for an absolute floor.
echo "-- DISE-installed throughput (informational) --"
go test -bench='BenchmarkSimulatorThroughputDise$' -run=NONE -benchtime="$benchtime" \
    -count=1 . | grep -E 'Benchmark|^ok' || true

# Memory-system micro-benchmarks (informational, not gated): the fused
# Cache.access scan and the unified Hierarchy miss engine, the two hot
# paths behind the simulator throughput number above.
echo "-- cache micros (informational) --"
go test -bench='BenchmarkCacheAccess$|BenchmarkHierarchyDataLatency$' \
    -run=NONE -benchtime=1s -count=1 ./internal/cache | grep -E 'Benchmark|^ok' || true

# Dispatch micros (informational, not gated): the steady-state uop
# dispatch loop — fetch from the pre-resolved uop cache through exec and
# the fused time/advance — plain, with a store-class DISE production
# installed, store-dominated (the store-queue push path), and
# multiplier-saturated (the port probe's worst case, a booked-solid run
# as long as the ROB allows). All must stay 0 allocs/op
# (TestDispatchAllocFree enforces it; -benchmem shows it here).
echo "-- dispatch micros (informational) --"
go test -bench='BenchmarkDispatch$' -benchmem \
    -run=NONE -benchtime=1s -count=1 ./internal/pipeline | grep -E 'Benchmark|^ok' || true

# Timing-core micros (informational, not gated): the booking reservation
# shapes — a port table's issue chain and the fetch/dispatch/commit
# cursor's chain and lockstep shapes — and the Core.time hot loop on the
# default core vs the LinearTiming reference (cursors and store-queue
# filters against their linear references). BenchmarkBooking$ anchors
# per path element, so the monotone/* sub-benchmarks are included.
echo "-- timing-core micros (informational) --"
go test -bench='BenchmarkBooking$|BenchmarkTimeEdge$' \
    -run=NONE -benchtime=1s -count=1 ./internal/pipeline | grep -E 'Benchmark|^ok' || true

# Machine construction and set-up (informational, not gated): one
# machine.New per preset, the cost of a session the serve pool cannot
# recycle; one Load of mcf into a recycled machine, which maps the 4 MiB
# data image rather than copying it; and one build of each kernel, mcf's
# ring written in place. -benchmem shows the bytes each takes;
# TestMachineFootprint (internal/machine) bounds each preset's machine.
echo "-- machine construction and set-up (informational) --"
go test -bench='BenchmarkMachineNew$|BenchmarkMachineLoad$' -benchmem \
    -run=NONE -benchtime=1s -count=1 ./internal/machine | grep -E 'Benchmark|^ok' || true
go test -bench='BenchmarkWorkloadBuild$' -benchmem \
    -run=NONE -benchtime=1s -count=1 ./internal/workload | grep -E 'Benchmark|^ok' || true

# Crash-safety micros (informational, not gated): the incremental machine
# snapshot (the per-checkpoint price) and the serve workload rerun with
# periodic checkpointing on, whose delta against
# BenchmarkServeConcurrent/sessions=8 is the end-to-end cost of recovery.
echo "-- snapshot/checkpoint (informational) --"
go test -bench='BenchmarkSnapshot$|BenchmarkCheckpointOverhead' \
    -run=NONE -benchtime=1x -count=1 ./internal/serve | grep -E 'Benchmark|^ok' || true

# Metrics-overhead micros (informational, not gated): the per-instrument
# price of the observability layer — counter/histogram/trace-ring
# ns/op, all required to stay at 0 allocs/op (TestAllocFree enforces it;
# -benchmem shows it here).
echo "-- metrics overhead (informational) --"
go test -bench='BenchmarkMetricsOverhead' -benchmem \
    -run=NONE -benchtime=1s -count=1 ./internal/obs | grep -E 'Benchmark|^ok' || true
