#!/usr/bin/env bash
# Flow-director steering & coalescing smoke test, in four checks:
#
#  1. Pathology: a flow-director cell under a fixed hold-off window
#     (timer,usecs=100) must reorder — nonzero out-of-order drops, dup
#     ACKs and flow re-steers in the printed reorder line — while the
#     identical cell under static RSS must not print one at all.
#
#  2. Cure: the same flow-director cell under adaptive coalescing must
#     report no out-of-order drops (the window starts narrow, so the
#     old queue drains before the new one overtakes).
#
#  3. Determinism: the pathology run repeated must print byte-identical
#     output, reordering counters included.
#
#  4. Validation: a malformed -coalesce spec and a NIC count beyond the
#     interrupt vectors must each be rejected as a usage error (exit 2)
#     before any simulation runs — the NIC count under a 4 GB
#     address-space limit, so a shape builder that allocates first
#     fails fast instead of swapping.
#
# CI runs this; it is also handy locally:
#
#   ./scripts/reorder_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/affinity-sim" ./cmd/affinity-sim

CELL=(-dir rx -cpus 2 -nics 1 -queues 2 -conns 2)

echo "== flow-director + fixed window reorders; static RSS does not =="
"$TMP/affinity-sim" "${CELL[@]}" -policy flowdirector -coalesce timer,usecs=100 > "$TMP/fd.txt"
if ! grep -q "^reorder: " "$TMP/fd.txt"; then
    echo "reorder_smoke: flow-director cell printed no reorder line:" >&2
    cat "$TMP/fd.txt" >&2
    exit 1
fi
if grep -q "^reorder: 0 out-of-order" "$TMP/fd.txt"; then
    echo "reorder_smoke: flow-director cell reported zero out-of-order drops:" >&2
    cat "$TMP/fd.txt" >&2
    exit 1
fi
"$TMP/affinity-sim" "${CELL[@]}" -policy rss -coalesce timer,usecs=100 > "$TMP/rss.txt"
if grep -q "^reorder: " "$TMP/rss.txt"; then
    echo "reorder_smoke: static RSS reordered under the same coalescing:" >&2
    cat "$TMP/rss.txt" >&2
    exit 1
fi

echo "== adaptive coalescing cures the re-steer reordering =="
"$TMP/affinity-sim" "${CELL[@]}" -policy flowdirector -coalesce adaptive > "$TMP/adaptive.txt"
if grep "^reorder: " "$TMP/adaptive.txt" | grep -qv "^reorder: 0 out-of-order"; then
    echo "reorder_smoke: adaptive coalescing still reordered:" >&2
    cat "$TMP/adaptive.txt" >&2
    exit 1
fi

echo "== pathology run deterministic across two runs =="
"$TMP/affinity-sim" "${CELL[@]}" -policy flowdirector -coalesce timer,usecs=100 > "$TMP/fd2.txt"
if ! cmp -s "$TMP/fd.txt" "$TMP/fd2.txt"; then
    echo "reorder_smoke: repeated flow-director cell differs:" >&2
    diff "$TMP/fd.txt" "$TMP/fd2.txt" >&2 || true
    exit 1
fi

echo "== malformed -coalesce spec rejected with exit 2 =="
set +e
"$TMP/affinity-sim" -coalesce "timer,usecs=banana" > "$TMP/bad.txt" 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "reorder_smoke: malformed -coalesce spec exited $rc, want 2:" >&2
    cat "$TMP/bad.txt" >&2
    exit 1
fi

echo "== NIC count beyond the interrupt vectors rejected with exit 2 =="
set +e
(ulimit -v 4000000; "$TMP/affinity-sim" -nics 1000000000 -plan) > "$TMP/nics.txt" 2>&1
rc=$?
set -e
# The Go runtime's own "fatal error: out of memory" also exits 2, so the
# refusal must be the usage error naming the vectors.
if [ "$rc" -ne 2 ] || ! grep -q "allocatable interrupt vectors" "$TMP/nics.txt"; then
    echo "reorder_smoke: -nics 1000000000 -plan exited $rc, want 2 with a usage error:" >&2
    cat "$TMP/nics.txt" >&2
    exit 1
fi

echo "reorder_smoke: OK (flow-director reorders, RSS clean, adaptive cures, deterministic, bad spec and NIC count rejected)"
