#!/usr/bin/env bash
# Fault-injection smoke test: run one cell of every fault kind through
# the CLI, checking that each run completes, reports degradation where
# the fault implies it, and passes the post-run resource invariants
# (the CLI exits nonzero on a violation). Then assert determinism: the
# same faulted cell twice must print byte-identical output. CI runs
# this; it is also handy locally:
#
#   ./scripts/fault_smoke.sh
set -euo pipefail

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/affinity-sim" ./cmd/affinity-sim

run() { # name spec [extra flags...]
    local name=$1 spec=$2
    shift 2
    if ! "$TMP/affinity-sim" -warmup 2000000 -measure 5000000 "$@" \
        -faults "$spec" > "$TMP/$name.txt" 2>&1; then
        echo "fault_smoke: $name run failed:" >&2
        cat "$TMP/$name.txt" >&2
        exit 1
    fi
    if ! grep -q "invariants: ok" "$TMP/$name.txt"; then
        echo "fault_smoke: $name missing invariant verdict:" >&2
        cat "$TMP/$name.txt" >&2
        exit 1
    fi
}

run loss  "loss,rate=0.01"
run burst "burst,penter=0.002,pexit=0.2,bad=0.9"
# The flap needs a LAN-tuned RTO and a longer window so post-flap
# retransmission (and therefore the recorded recovery) lands inside
# the measured window rather than after it.
run flap  "flap,nic=0,from=4e6,until=8e6" -measure 60000000 -rto-init 20000000 -rto-max 160000000
run delay "delay,nic=0,delay=4e3,jitter=8e3"
run stall "stall,nic=1,from=2e6,until=2.5e6"
run storm "storm,nic=2,cpu=1,period=4e5"

# Loss must actually drop and retransmit.
if ! grep -Eq "faults: [1-9][0-9]* wire drops" "$TMP/loss.txt"; then
    echo "fault_smoke: lossy run reported no wire drops:" >&2
    cat "$TMP/loss.txt" >&2
    exit 1
fi
# A completed flap must record its recovery time.
if ! grep -q "flap recoveries" "$TMP/flap.txt"; then
    echo "fault_smoke: flap run recorded no recovery:" >&2
    cat "$TMP/flap.txt" >&2
    exit 1
fi

# Determinism: the same faulted cell twice is byte-identical.
run burst2 "burst,penter=0.002,pexit=0.2,bad=0.9"
if ! cmp -s "$TMP/burst.txt" "$TMP/burst2.txt"; then
    echo "fault_smoke: repeated faulted run differs:" >&2
    diff "$TMP/burst.txt" "$TMP/burst2.txt" >&2 || true
    exit 1
fi

# An invalid schedule must be rejected before simulating.
if "$TMP/affinity-sim" -faults "loss,rate=2" >/dev/null 2>&1; then
    echo "fault_smoke: invalid schedule (rate=2) was accepted" >&2
    exit 1
fi
# So must a jitter whose draw bound overflows, a delay no frame can
# outlast within the run, and a storm naming every NIC: each is a usage
# error (exit 2) reported before any cycle is simulated.
for spec in "delay,jitter=18446744073709551615" "delay,delay=1e12" "storm,cpu=0,period=1e5,nic=-1"; do
    rc=0
    "$TMP/affinity-sim" -warmup 2000000 -measure 5000000 -faults "$spec" > "$TMP/refused.txt" 2>&1 || rc=$?
    if [ "$rc" -ne 2 ] || ! grep -q "fault event 0" "$TMP/refused.txt"; then
        echo "fault_smoke: invalid schedule \"$spec\" exited $rc, want a refusal with exit 2:" >&2
        cat "$TMP/refused.txt" >&2
        exit 1
    fi
done

echo "fault_smoke: OK (6 fault kinds, invariants clean, repeat run byte-identical)"
