package affinity_test

import (
	"testing"

	"repro/affinity"
	"repro/internal/perf"
)

// quadConfig is a 4-processor run of the paper's workload via the public
// facade — the §5 scaling scenario beyond the measured 2P box.
func quadConfig(mode affinity.Mode) affinity.Config {
	cfg := affinity.DefaultConfig(mode, affinity.TX, 65536)
	cfg.Topology = affinity.Uniform(4, 8, 1)
	cfg.WarmupCycles = 10_000_000
	cfg.MeasureCycles = 40_000_000
	return cfg
}

// TestQuadProcessorOrdering checks the paper's headline result survives a
// machine the paper never measured: on 4 processors full affinity beats
// interrupt affinity beats no affinity.
func TestQuadProcessorOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run; skipped in -short mode")
	}
	rs := affinity.RunAll([]affinity.Config{
		quadConfig(affinity.ModeNone),
		quadConfig(affinity.ModeIRQ),
		quadConfig(affinity.ModeFull),
	})
	none, irq, full := rs[0], rs[1], rs[2]
	t.Logf("4P TX 64KB: none %.1f, irq %.1f, full %.1f Mb/s", none.Mbps, irq.Mbps, full.Mbps)
	if !(full.Mbps >= irq.Mbps && irq.Mbps >= none.Mbps) {
		t.Errorf("affinity ordering violated on 4P: full %.1f, irq %.1f, none %.1f",
			full.Mbps, irq.Mbps, none.Mbps)
	}
	if full.Mbps < 1.2*none.Mbps {
		t.Errorf("full affinity gain on 4P only %.1f%%; the extra CPUs are stranded",
			100*(full.Mbps/none.Mbps-1))
	}
}

// TestRSSViaFacade runs the §8 receive-side-scaling shape — 2 NICs with
// four queues each on 10 Gb/s links — end to end through the facade and
// checks the architectural effect RSS exists for: without it every
// interrupt lands on CPU0; with it the queue vectors spread the interrupt
// load across the processors. The run receives (RX) because TX-completion
// interrupts always use queue 0 — receive traffic is what RSS steers.
func TestRSSViaFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run; skipped in -short mode")
	}
	shape := func(queues int) affinity.Topology {
		top := affinity.Uniform(2, 2, queues)
		top.Conns = 8
		for i := range top.NICs {
			top.NICs[i].LinkBps = 10_000_000_000
		}
		return top
	}
	base := affinity.DefaultConfig(affinity.ModeNone, affinity.RX, 65536)
	base.WarmupCycles = 10_000_000
	base.MeasureCycles = 40_000_000

	single := base
	single.Topology = shape(1)

	rss := base
	rss.Topology = shape(4)
	pol, err := affinity.PolicyByName("rss")
	if err != nil {
		t.Fatal(err)
	}
	rss.Policy = pol

	plan, err := affinity.PlanFor(rss)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != "rss" || len(plan.QueueVectors[0]) != 4 {
		t.Fatalf("unexpected plan: %s", plan)
	}

	rs := affinity.RunAll([]affinity.Config{single, rss})
	t.Logf("2×10G NICs RX 64KB: single-queue %.1f Mb/s, rss %.1f Mb/s", rs[0].Mbps, rs[1].Mbps)
	if rs[1].Mbps < 0.95*rs[0].Mbps {
		t.Errorf("RSS (%.1f Mb/s) regressed against single-queue (%.1f Mb/s)",
			rs[1].Mbps, rs[0].Mbps)
	}
	if got := rs[0].Ctr.CPUTotal(1, perf.IRQsReceived); got != 0 {
		t.Errorf("single-queue: CPU1 took %d interrupts, want 0 (default mask pins CPU0)", got)
	}
	irq0 := rs[1].Ctr.CPUTotal(0, perf.IRQsReceived)
	irq1 := rs[1].Ctr.CPUTotal(1, perf.IRQsReceived)
	if irq0 == 0 || irq1 == 0 {
		t.Fatalf("RSS did not spread interrupts: cpu0=%d cpu1=%d", irq0, irq1)
	}
	// Receive interrupts split evenly, but CPU0 additionally takes every
	// ACK transmit-completion (queue 0), so allow it a majority.
	if ratio := float64(irq0) / float64(irq0+irq1); ratio < 0.15 || ratio > 0.85 {
		t.Errorf("RSS interrupt split badly skewed: cpu0=%d cpu1=%d", irq0, irq1)
	}
}
