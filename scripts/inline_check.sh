#!/usr/bin/env bash
# Inlining guard: the single timing pass per uop (Core.step and Core.time
# in internal/pipeline) is fast only while the per-uop helpers below are
# inlined into it. Fails when `go build -gcflags=-m ./internal/pipeline`
# no longer reports "inlining call to" for any of them, as when an edit
# prices one over the compiler's inlining budget.
# Usage: scripts/inline_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

helpers=(
    '(*cursor).book'
    '(*ring).push'
    '(*ring).oldest'
    '(*Core).pushStoreQ'
    '(*Core).readyAt'
    '(*Core).setReadyAt'
    'dise.(*Engine).Armed'
    'cache.(*Hierarchy).FetchLatency'
    'cache.(*Hierarchy).DataLatency'
)

out=$(go build -gcflags=-m ./internal/pipeline 2>&1)
fail=0
for h in "${helpers[@]}"; do
    if ! grep -qF "inlining call to $h" <<<"$out"; then
        echo "inline_check: internal/pipeline no longer inlines $h" >&2
        fail=1
    fi
done
if ((fail)); then
    echo "inline_check: 'go build -gcflags=-m=2 ./internal/...' prints each helper's inlining cost" >&2
    exit 1
fi
echo "inline_check: OK, all ${#helpers[@]} per-uop helpers inline"
