package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

type simTime = sim.Time

// Extension finding: under frame loss the workload stops being
// CPU-bound — recovery timeouts idle the processors (utilization drops
// to ~25-40%) — so affinity's effect washes out; its gains are a
// property of the paper's CPU-saturated, loss-free regime. The test
// pins that finding: both modes keep moving data correctly, losses and
// retransmissions really happen, and the machine is demonstrably not
// saturated.
func TestLossMakesWorkloadIdleBoundNotAffinityBound(t *testing.T) {
	for _, mode := range []Mode{ModeNone, ModeFull} {
		cfg := testConfig(mode, ttcp.TX, 65536)
		cfg.MeasureCycles = 400_000_000
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindLoss, NIC: -1, Rate: 0.005},
		}}
		m := NewMachine(cfg)
		m.Eng.Run(simTime(cfg.WarmupCycles))
		r := m.Measure(cfg.MeasureCycles)
		var rexmit, drops uint64
		for _, s := range m.Sockets {
			rexmit += s.Retransmits()
		}
		for _, n := range m.NICs {
			drops += n.WireDrops
		}
		m.Shutdown()
		if r.Bytes == 0 {
			t.Fatalf("%s: lossy links moved no data", mode)
		}
		if drops == 0 || rexmit == 0 {
			t.Fatalf("%s: no losses (%d) or recoveries (%d) observed", mode, drops, rexmit)
		}
		if r.AvgUtil > 0.8 {
			t.Errorf("%s: utilization %.2f — loss should idle the machine, washing out affinity",
				mode, r.AvgUtil)
		}
	}
}

// Extension: NAPI polling (the 2.6-era interrupt mitigation). At this
// operating point — gigabit ports against 2 GHz processors — the poll
// drains faster than the wire refills, so the interrupt saving is
// modest (each burst still begins with an interrupt); the test pins the
// honest claim: NAPI never *increases* interrupts and does not cost
// throughput. Higher per-port packet rates are where NAPI's savings
// grow.
func TestNAPIMitigatesInterruptsAtMachineLevel(t *testing.T) {
	run := func(napi bool) (mbps float64, irqs uint64) {
		cfg := testConfig(ModeNone, ttcp.TX, 65536)
		// Two ports carrying all the traffic: per-device load high enough
		// that polling outpaces interrupt-per-burst behaviour.
		cfg.Topology = topo.Uniform(2, 2, 1)
		m := NewMachine(cfg)
		defer m.Shutdown()
		for _, n := range m.NICs {
			n.SetNAPI(napi)
		}
		m.Eng.Run(simTime(cfg.WarmupCycles))
		r := m.Measure(cfg.MeasureCycles)
		return r.Mbps, r.Ctr.Total(perf.IRQsReceived)
	}
	mbpsDef, irqsDef := run(false)
	mbpsNapi, irqsNapi := run(true)
	if irqsNapi > irqsDef {
		t.Errorf("NAPI irqs %d above default %d", irqsNapi, irqsDef)
	}
	if mbpsNapi < mbpsDef*0.95 {
		t.Errorf("NAPI throughput %.0f collapsed vs default %.0f", mbpsNapi, mbpsDef)
	}
}

// Regression: wide interrupt-coalescing windows produce bursty softirq
// allocation storms that once raced the per-CPU pool caches at refill
// preemption points (popCPU drained by a bottom half between unlock and
// pop). The run must complete with pool invariants intact.
func TestWideCoalescingPoolRace(t *testing.T) {
	cfg := testConfig(ModeFull, ttcp.TX, 65536)
	m := NewMachine(cfg)
	defer m.Shutdown()
	for _, n := range m.NICs {
		n.SetCoalesce(200_000) // 100 µs bursts
	}
	m.Eng.Run(simTime(cfg.WarmupCycles))
	r := m.Measure(cfg.MeasureCycles)
	if r.Bytes == 0 {
		t.Fatal("no progress under wide coalescing")
	}
	if r.Drops != 0 {
		t.Fatalf("%d ring drops under wide coalescing", r.Drops)
	}
}
