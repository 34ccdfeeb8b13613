#!/usr/bin/env bash
# Benchmark harness: run the scheduler/coroutine/timer/activation
# microbenchmarks across -cpu 1,2,4, the memory-model microbenchmarks
# (hierarchy, coherence directory, TLB, caches), plus the end-to-end
# sweep benches, and serialize the results to a machine-readable
# BENCH_<n>.json (ns/op, allocs/op per benchmark) via
# scripts/bench_compare.go. This file series
# is the repository's recorded performance trajectory; CI regenerates it
# on every change and fails when a benchmark's ns/op exceeds 2x the
# committed baseline (`bench_compare compare -threshold 2.0`) or its
# allocs/op grow.
#
#   ./scripts/bench.sh               # writes BENCH_<next>.json in the repo root
#   BENCH_OUT=BENCH_ci.json ./scripts/bench.sh   # explicit output (CI)
#
# Microbenches use -benchtime default; the sweep benches run one
# iteration (-benchtime 1x) because each is a whole simulation sweep.
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

echo "== microbenchmarks (internal/sim, internal/kern) =="
go test ./internal/sim ./internal/kern \
    -run XXX -bench 'Engine|Coro|Timer|RNG|EnvRun' -benchmem -count 1 -cpu 1,2,4 \
    | tee "$TMP/bench.txt"

echo "== memory-model microbenchmarks (internal/mem) =="
go test ./internal/mem -run XXX -bench . -benchmem -count 1 \
    | tee -a "$TMP/bench.txt"

echo "== sweep benchmarks (end to end) =="
go test . -run XXX -bench 'BenchmarkSweep' -benchtime 1x -count 1 \
    | tee -a "$TMP/bench.txt"

echo "== open-loop cell (100k-connection churn, run to completion) =="
go test . -run XXX -bench 'BenchmarkOpenLoopCell' -benchtime 1x -count 1 -timeout 30m \
    | tee -a "$TMP/bench.txt"

out="${BENCH_OUT:-}"
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

go run ./scripts parse < "$TMP/bench.txt" > "$out"
echo "wrote $out"
