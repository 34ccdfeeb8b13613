#!/usr/bin/env bash
# Workload-layer smoke test, in two halves:
#
#  1. Bulk byte-identity: the flyweight tcp refactor and the workload
#     layer must leave the paper's bulk workload untouched. The full
#     quick figure set is diffed against the committed pre-refactor
#     golden (testdata/figures_quick_golden.txt), and an explicit
#     "-workload bulk" run must print byte-identically to the default
#     (nil-spec) run.
#
#  2. Open-loop determinism: a 10⁴-connection churn cell through the
#     CLI twice must print byte-identical output, including the
#     p50/p99/p999 tail-latency lines, must run to completion (every
#     generated connection terminal), and must match the committed
#     testdata/openloop10k_golden.txt, so a host-side change to
#     per-connection state that moves bytes deterministically fails too.
#
# CI runs this; it is also handy locally:
#
#   ./scripts/workload_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/affinity-sim" ./cmd/affinity-sim
go build -o "$TMP/affinity-figures" ./cmd/affinity-figures

echo "== bulk byte-identity vs. pre-refactor golden =="
"$TMP/affinity-figures" -all -quick > "$TMP/figures.txt"
if ! cmp -s testdata/figures_quick_golden.txt "$TMP/figures.txt"; then
    echo "workload_smoke: quick figures diverged from the golden:" >&2
    diff testdata/figures_quick_golden.txt "$TMP/figures.txt" >&2 || true
    exit 1
fi

"$TMP/affinity-sim" -warmup 5000000 -measure 20000000 > "$TMP/bulk_nil.txt"
"$TMP/affinity-sim" -warmup 5000000 -measure 20000000 -workload bulk > "$TMP/bulk_explicit.txt"
if ! cmp -s "$TMP/bulk_nil.txt" "$TMP/bulk_explicit.txt"; then
    echo "workload_smoke: explicit bulk spec diverged from the nil default:" >&2
    diff "$TMP/bulk_nil.txt" "$TMP/bulk_explicit.txt" >&2 || true
    exit 1
fi

echo "== open-loop 10k-connection cell, deterministic across two runs =="
CELL="openloop,conns=10000"
"$TMP/affinity-sim" -mode full -workload "$CELL" > "$TMP/cell1.txt"
"$TMP/affinity-sim" -mode full -workload "$CELL" > "$TMP/cell2.txt"
if ! cmp -s "$TMP/cell1.txt" "$TMP/cell2.txt"; then
    echo "workload_smoke: repeated open-loop cell differs:" >&2
    diff "$TMP/cell1.txt" "$TMP/cell2.txt" >&2 || true
    exit 1
fi
if ! cmp -s testdata/openloop10k_golden.txt "$TMP/cell1.txt"; then
    echo "workload_smoke: open-loop cell diverged from the golden:" >&2
    diff testdata/openloop10k_golden.txt "$TMP/cell1.txt" >&2 || true
    exit 1
fi
if ! grep -q "p50" "$TMP/cell1.txt" || ! grep -q "p999" "$TMP/cell1.txt"; then
    echo "workload_smoke: open-loop cell reported no tail latency:" >&2
    cat "$TMP/cell1.txt" >&2
    exit 1
fi
if ! grep -q "churn: 10000 generated, 10000 completed" "$TMP/cell1.txt"; then
    echo "workload_smoke: open-loop cell did not complete all connections:" >&2
    cat "$TMP/cell1.txt" >&2
    exit 1
fi

echo "workload_smoke: OK (figures golden intact, bulk spec inert, 10k cell deterministic, complete and golden)"
