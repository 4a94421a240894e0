#!/usr/bin/env bash
# Runs a workload's traced run and prints where its CPU time went,
# folded into the benchmark's layers, with each layer's leading
# functions (the format of bench/profile_leaders.txt).
#
#   bash bench/profile.sh [WORKLOAD] [SEED] [SECONDS]
#
# The profile stays in .bench_build/profile/WORKLOAD/cpu.pprof; dig
# deeper with: go tool pprof .bench_build/bench <that file>
set -euo pipefail

wl=${1:-sim-plain}
seed=${2:-1}
secs=${3:-15}
dir=".bench_build/profile/$wl"
mkdir -p "$dir"
if ! bash bench/run.sh --workload "$wl" --seed "$seed" --seconds "$secs" --trace 1 --trace-dir "$dir" >"$dir/run.out"; then
    echo "profile: the traced run reported failures; see $dir/run.out" >&2
fi
.bench_build/bench -fold "$dir/cpu.pprof"
