#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through (see README.md):
#
#   bash bench/run.sh --workload sim-plain --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays in .bench_build/ (Go build cache included), and the toolchain is
# kept offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
