#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload bulk_copy --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary journals) stays under .bench_build/ in the current
# directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
