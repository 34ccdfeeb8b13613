#!/usr/bin/env bash
# Cold/warm replay check against a live affinity-serve: the same sweep
# requested twice must produce byte-identical NDJSON bodies, with the
# second pass served entirely from the result cache (no new
# simulations). A restart pass then stops the server with SIGTERM,
# starts a new one on the same -cache-dir, and requires the sweep
# byte-identical once more, every cell a disk hit from the journal and
# no simulation. CI runs this; it is also handy locally:
#
#   ./scripts/serve_replay.sh [addr]
set -euo pipefail

ADDR=${1:-127.0.0.1:18080}
TMP=$(mktemp -d)
# The worker checkpoints its journal into $TMP/cache as it drains after
# SIGTERM, so the trap waits for it to exit before removing $TMP.
SERVE_PID=
trap 'if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null && wait "$SERVE_PID" 2>/dev/null || true; fi; rm -rf "$TMP"' EXIT

go build -o "$TMP/affinity-serve" ./cmd/affinity-serve

start_server() {
    "$TMP/affinity-serve" -addr "$ADDR" -cache-dir "$TMP/cache" &
    SERVE_PID=$!
    for i in $(seq 1 50); do
        if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then
            return
        fi
        if [ "$i" = 50 ]; then
            echo "serve_replay: server never became healthy" >&2
            exit 1
        fi
        sleep 0.2
    done
}

metric() {
    curl -sf "http://$ADDR/metrics" | awk -v name="$1" '$1 == name {print $2}'
}

start_server

SWEEP='{"dir":"tx","sizes":[128,65536],"modes":["none","full"],"warmup_cycles":2000000,"measure_cycles":5000000}'

curl -sf "http://$ADDR/v1/sweep" -d "$SWEEP" > "$TMP/cold.ndjson"
sims_cold=$(curl -sf "http://$ADDR/metrics" | awk '/^affinity_sims_total/ {print $2}')
curl -sf "http://$ADDR/v1/sweep" -d "$SWEEP" > "$TMP/warm.ndjson"
sims_warm=$(curl -sf "http://$ADDR/metrics" | awk '/^affinity_sims_total/ {print $2}')
hits=$(curl -sf "http://$ADDR/metrics" | awk '/^affinity_cache_hits_total/ {print $2}')

if ! cmp -s "$TMP/cold.ndjson" "$TMP/warm.ndjson"; then
    echo "serve_replay: warm response differs from cold response" >&2
    diff "$TMP/cold.ndjson" "$TMP/warm.ndjson" >&2 || true
    exit 1
fi
if [ "$sims_cold" = 0 ]; then
    echo "serve_replay: cold pass ran no simulations?" >&2
    exit 1
fi
if [ "$sims_warm" != "$sims_cold" ]; then
    echo "serve_replay: warm pass simulated ($sims_cold -> $sims_warm) instead of hitting the cache" >&2
    exit 1
fi
if [ "${hits:-0}" = 0 ]; then
    echo "serve_replay: no cache hits recorded on the warm pass" >&2
    exit 1
fi

lines=$(wc -l < "$TMP/cold.ndjson")

# Restart pass: the drain checkpoints the journal, and a new process on
# the same directory replays it.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve_replay: server exited non-zero after SIGTERM" >&2
    exit 1
fi
start_server
curl -sf "http://$ADDR/v1/sweep" -d "$SWEEP" > "$TMP/restart.ndjson"
sims_restart=$(metric affinity_sims_total)
disk_hits=$(metric affinity_cache_disk_hits_total)

if ! cmp -s "$TMP/cold.ndjson" "$TMP/restart.ndjson"; then
    echo "serve_replay: response after restart differs from cold response" >&2
    diff "$TMP/cold.ndjson" "$TMP/restart.ndjson" >&2 || true
    exit 1
fi
if [ "$sims_restart" != 0 ]; then
    echo "serve_replay: restarted server simulated $sims_restart cells instead of replaying the journal" >&2
    exit 1
fi
if [ "$disk_hits" != "$lines" ]; then
    echo "serve_replay: restarted server served $disk_hits disk hits, want $lines (one per cell)" >&2
    exit 1
fi

echo "serve_replay: OK ($lines cells, $sims_cold simulations cold, $hits cache hits warm, $disk_hits disk hits after restart, bodies byte-identical)"
