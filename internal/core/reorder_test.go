package core

import (
	"testing"

	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// reorderCell is the pinned flow-director pathology cell: a 2-CPU box
// with one dual-queue NIC carrying two receive flows, processes left to
// the load balancer (so they migrate), under the given placement policy
// and coalescing model. Default windows: the cured cell's steering
// settles to a re-steer every few balance intervals, so the measured
// window must be long enough to catch one.
func reorderCell(t *testing.T, policy, coalesce string) Config {
	t.Helper()
	cfg := DefaultConfig(ModeNone, ttcp.RX, 65536)
	cfg.Topology = topo.Uniform(2, 1, 2)
	cfg.Topology.Conns = 2
	pol, err := ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = pol
	if coalesce != "" {
		co, err := netdev.ParseCoalesce(coalesce)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Coalesce = co
	}
	return cfg
}

// TestFlowDirectorReordersUnderFixedWindowCoalescing pins the PR's
// headline pathology and its cure on one cell:
//
//   - flow-director steering under a fixed hold-off window reorders:
//     every migration re-programs the flow's queue while the old
//     queue's tail sits parked for a full window, so frames overtake —
//     nonzero out-of-order drops, dup ACKs and fast retransmits, and
//     measurably lost throughput;
//   - static RSS under the identical coalescing never reorders (no
//     re-steers, so no second queue ever carries the flow);
//   - adaptive coalescing under the identical flow-director steering
//     cures it (the window starts narrow, so the old queue drains
//     before the new one overtakes) at full throughput.
func TestFlowDirectorReordersUnderFixedWindowCoalescing(t *testing.T) {
	pathology := Run(reorderCell(t, "flowdirector", "timer,usecs=100"))
	static := Run(reorderCell(t, "rss", "timer,usecs=100"))
	cured := Run(reorderCell(t, "flowdirector", "adaptive"))

	if pathology.FlowResteers == 0 {
		t.Fatal("flow-director cell issued no re-steers: no migrations, the cell tests nothing")
	}
	if pathology.OutOfOrder == 0 || pathology.DupAcks == 0 || pathology.FastRetransmits == 0 {
		t.Errorf("fixed-window flow-director cell did not reorder: ooo=%d dupacks=%d fastrexmit=%d",
			pathology.OutOfOrder, pathology.DupAcks, pathology.FastRetransmits)
	}

	if static.OutOfOrder != 0 || static.DupAcks != 0 || static.FastRetransmits != 0 {
		t.Errorf("static RSS reordered under the same coalescing: ooo=%d dupacks=%d fastrexmit=%d",
			static.OutOfOrder, static.DupAcks, static.FastRetransmits)
	}
	if static.FlowResteers != 0 {
		t.Errorf("static RSS issued %d re-steers; steering must be inert outside flowdirector", static.FlowResteers)
	}

	if cured.OutOfOrder != 0 || cured.DupAcks != 0 || cured.FastRetransmits != 0 {
		t.Errorf("adaptive coalescing did not cure the re-steer reordering: ooo=%d dupacks=%d fastrexmit=%d",
			cured.OutOfOrder, cured.DupAcks, cured.FastRetransmits)
	}

	// The cure is not avoidance: the cured run still migrates and
	// re-steers, and recovers the throughput the pathology lost.
	if cured.FlowResteers == 0 {
		t.Error("cured cell issued no re-steers; it avoided the pathology instead of curing it")
	}
	if pathology.Mbps >= cured.Mbps {
		t.Errorf("reordering cost no throughput: pathology %.1f Mbps >= cured %.1f Mbps",
			pathology.Mbps, cured.Mbps)
	}
}

// TestReorderCounterDeterminism pins the new counters across runner
// parallelism: the pathology, static and cured cells must export
// byte-identical JSON — OutOfOrder, DupAcks, FastRetransmits and
// FlowResteers included — whether simulated serially or on the
// four-worker pool selected through AFFINITY_WORKERS.
func TestReorderCounterDeterminism(t *testing.T) {
	configs := []Config{
		reorderCell(t, "flowdirector", "timer,usecs=100"),
		reorderCell(t, "rss", "timer,usecs=100"),
		reorderCell(t, "flowdirector", "adaptive"),
	}

	serial := NewRunner(1).RunConfigs(configs)
	t.Setenv(WorkersEnv, "4")
	parallel := NewRunner(0).RunConfigs(configs)
	for i := range configs {
		js, err := serial[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		jp, err := parallel[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		if js != jp {
			t.Errorf("config %d diverged across parallelism:\nserial:   %s\nparallel: %s", i, js, jp)
		}
	}
	if serial[0].OutOfOrder == 0 {
		t.Error("determinism batch is vacuous: the pathology cell reported no reordering")
	}
}
