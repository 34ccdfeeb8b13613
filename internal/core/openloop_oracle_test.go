package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/ttcp"
)

// openLoopPin is one open-loop cell's pinned output: the SHA-256 of its
// exported JSON and the engine's scheduling counts perfbench digests.
type openLoopPin struct {
	spec                        string
	sha                         string
	fired, scheduled, bandSched uint64
	// giveUps marks the cell that must take every give-up path.
	giveUps bool
}

// giveUpCell overloads a one-worker pool behind a one-deep accept queue
// with a 350 µs give-up timeout, so give-up timers fire on connections
// whose SYN the listener refused, on established connections still
// waiting in the accept queue, and on connections that already
// completed; one connection also completes after its give-up.
const giveUpCell = "openloop,conns=60,servers=1,backlog=1,interval=60000,timeout=700000"

// openLoopPins are the cells host-side per-connection state must not
// move: the 10⁴-connection cell perfbench's openloop_churn workload runs
// (seed 1, full affinity, TX 64 KB) and giveUpCell.
var openLoopPins = []openLoopPin{
	{
		spec:      "openloop",
		sha:       "e1af318372a03eec79e1d63dafe742b8b6553b8a4adf9f49a9d82d5c1545ba42",
		fired:     1_619_623,
		scheduled: 1_629_634,
		bandSched: 1_469_851,
	},
	{
		spec:      giveUpCell,
		sha:       "4102bc04eb7d95f83e2679fc749fbb431c77c85261af2694f60fa6a134b39dc8",
		fired:     1925,
		scheduled: 1927,
		bandSched: 1720,
		giveUps:   true,
	},
}

// runOpenLoopPin runs one pinned cell and returns its result and the
// SHA-256 of its exported JSON.
func runOpenLoopPin(t *testing.T, spec string) (*Result, string) {
	t.Helper()
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.Seed = 1
	cfg.Workload = mustWorkload(t, spec)
	r := Run(cfg)
	if r.Aborted {
		t.Fatalf("%s: aborted: %s", spec, r.AbortReason)
	}
	js, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	return r, fmt.Sprintf("%x", sha256.Sum256(js))
}

// TestOpenLoopCellPins pins each open-loop cell's exported bytes and
// engine counts, and checks that the give-up cell exercises both kinds
// of give-up.
func TestOpenLoopCellPins(t *testing.T) {
	for _, p := range openLoopPins {
		r, sha := runOpenLoopPin(t, p.spec)
		e := r.Engine
		if sha != p.sha || e.Fired != p.fired || e.Scheduled != p.scheduled || e.BandScheduled != p.bandSched {
			t.Errorf("%s moved: sha=%s fired=%d scheduled=%d band=%d, want sha=%s fired=%d scheduled=%d band=%d",
				p.spec, sha, e.Fired, e.Scheduled, e.BandScheduled, p.sha, p.fired, p.scheduled, p.bandSched)
		}
		// A refused SYN is abandoned by its give-up timer, so
		// abandonments beyond the refusals found the connection
		// established; connections never abandoned completed before
		// their timer fired; and completions plus abandonments beyond
		// the population completed after their give-up.
		if p.giveUps && (r.SynDrops == 0 || r.ConnsAbandoned <= r.SynDrops || r.ConnsAbandoned >= r.ConnsGenerated ||
			r.Transactions+r.ConnsAbandoned <= r.ConnsGenerated) {
			t.Errorf("%s: generated=%d completed=%d abandoned=%d syn_drops=%d, want every give-up path taken",
				p.spec, r.ConnsGenerated, r.Transactions, r.ConnsAbandoned, r.SynDrops)
		}
	}
}
