#!/usr/bin/env bash
# Records a comparison of the working tree (head) against commit BASE:
# PAIRS base/head run pairs per workload (default 10), alternating which
# side runs first, both sides with this tree's benchmark code and
# BENCHMARK.json. Writes bench/records/LABEL.json (default LABEL: the
# head commit's short hash). See README.md, "Records".
#
#   bash bench/record.sh BASE [PAIRS] [LABEL]
set -euo pipefail

base=${1:?usage: bench/record.sh BASE [PAIRS] [LABEL]}
pairs=${2:-10}
root=$(git rev-parse --show-toplevel)
cd "$root"
label=${3:-$(git rev-parse --short HEAD)}
work="$root/.bench_build/record/$label"

# The base is a plain source tree, as the benchmark sees it, with the
# head's benchmark dropped in so both sides measure the same way.
rm -rf "$work"
mkdir -p "$work/base"
git archive "$base" | tar -x -C "$work/base"
rm -rf "$work/base/bench"
cp -R bench BENCHMARK.json "$work/base/"

secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(awk '/"workloads"/,/\]/' BENCHMARK.json | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')

# run SIDE DIR WORKLOAD SEED appends the run's result line to SIDE.jsonl.
run() {
    local out line
    out=$(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$secs" --trace 0 2>"$work/$1.err" || true)
    line=$(printf '%s\n' "$out" | tail -n 1)
    case "$line" in
    "{"*) ;;
    *) line='{"correct":false,"attempted":0,"failed":1,"metrics":{}}' ;;
    esac
    printf '{"workload":"%s","seed":%d,"side":"%s","result":%s}\n' "$3" "$4" "$1" "$line" >>"$work/$1.jsonl"
}

for wl in $workloads; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then
            run base "$work/base" "$wl" "$i"
            run head "$root" "$wl" "$i"
        else
            run head "$root" "$wl" "$i"
            run base "$work/base" "$wl" "$i"
        fi
        echo "record: $wl pair $i of $pairs done" >&2
    done
done

mkdir -p bench/records
"$root/.bench_build/bench" -summarize "bench/records/$label.json" "$work/base.jsonl" "$work/head.jsonl"
echo "record: wrote bench/records/$label.json" >&2
