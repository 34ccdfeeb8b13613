package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// faultedConfig is a small machine with a representative mix of faults
// inside its run window: a mid-run link flap, background burst loss,
// wire jitter, a DMA stall, and an interrupt storm on CPU1.
func faultedConfig(mode Mode, dir ttcp.Direction) Config {
	cfg := testConfig(mode, dir, 16384)
	cfg.Topology = topo.Uniform(2, 4, 1)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindFlap, NIC: 1, From: 60_000_000, Until: 80_000_000},
		{Kind: fault.KindBurst, NIC: -1, PEnterBad: 0.002, PExitBad: 0.2, BadRate: 0.9},
		{Kind: fault.KindDelay, NIC: 0, DelayCycles: 4_000, JitterCycles: 8_000},
		{Kind: fault.KindStall, NIC: 2, From: 100_000_000, Until: 104_000_000},
		{Kind: fault.KindStorm, NIC: 3, CPU: 1, From: 40_000_000, Until: 140_000_000, PeriodCycles: 400_000},
	}}
	return cfg
}

// stripped clears the fields that legitimately differ between two runs
// of equal behaviour (the Config embeds the caller's pointers).
func stripped(r *Result) Result {
	c := *r
	c.Cfg = Config{}
	c.Trace = nil
	return c
}

// A faulted sweep must be byte-identical whether the cells run
// serially or on a 4-worker pool: every fault decision comes from the
// cell's own seeded engine, never from wall-clock or shared state.
func TestFaultedSweepDeterministicAcrossRunners(t *testing.T) {
	var cfgs []Config
	for _, mode := range []Mode{ModeNone, ModeFull} {
		for _, dir := range []ttcp.Direction{ttcp.TX, ttcp.RX} {
			cfgs = append(cfgs, faultedConfig(mode, dir))
		}
	}
	serial := NewRunner(1).RunConfigs(cfgs)
	parallel := NewRunner(4).RunConfigs(cfgs)
	for i := range cfgs {
		if !reflect.DeepEqual(stripped(serial[i]), stripped(parallel[i])) {
			t.Errorf("cell %d: serial and parallel results differ:\n  serial:   %+v\n  parallel: %+v",
				i, stripped(serial[i]), stripped(parallel[i]))
		}
	}
	// And the faults really did something.
	for i, r := range serial {
		if r.WireDrops == 0 || r.Retransmits == 0 {
			t.Errorf("cell %d: no drops (%d) or retransmissions (%d) under burst loss + flap",
				i, r.WireDrops, r.Retransmits)
		}
		if r.InvariantViolation != "" {
			t.Errorf("cell %d: invariant violation: %s", i, r.InvariantViolation)
		}
		if !r.InvariantsChecked {
			t.Errorf("cell %d: faulted run skipped the invariant pass", i)
		}
	}
}

// An empty (or nil) schedule is the clean baseline: the run must be
// byte-identical to one with no Faults field at all — no extra engine
// events, no extra random draws.
func TestEmptyScheduleIdenticalToNil(t *testing.T) {
	base := testConfig(ModeFull, ttcp.TX, 16384)
	withNil := base
	withNil.Faults = nil
	withEmpty := base
	withEmpty.Faults = &fault.Schedule{}
	a, b := Run(withNil), Run(withEmpty)
	if !reflect.DeepEqual(stripped(a), stripped(b)) {
		t.Fatalf("empty fault schedule perturbed the run:\n  nil:   %+v\n  empty: %+v", stripped(a), stripped(b))
	}
	if a.InvariantsChecked || b.InvariantsChecked {
		t.Fatal("clean runs should not pay for the invariant drain")
	}
}

// The throughput-vs-loss sweep of EXPERIMENTS.md in miniature: loss
// from 0 to 2%, each cell leaving the machine provably clean.
func TestLossSweepInvariants(t *testing.T) {
	for _, rate := range []float64{0.005, 0.02} {
		cfg := testConfig(ModeFull, ttcp.TX, 16384)
		// At 2% loss the 200 ms default RTO dwarfs a 120M-cycle window
		// (every connection spends the window parked in timeout); a
		// longer window and a LAN-tuned RTO keep the cell meaningful.
		cfg.MeasureCycles = 600_000_000
		cfg.TCP.RTOInitCycles = 40_000_000
		cfg.TCP.RTOMaxCycles = 320_000_000
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindLoss, NIC: -1, Rate: rate},
		}}
		r := Run(cfg)
		if r.Bytes == 0 {
			t.Fatalf("rate %g: no progress", rate)
		}
		if r.WireDrops == 0 {
			t.Fatalf("rate %g: loss had no effect", rate)
		}
		if !r.InvariantsChecked || r.InvariantViolation != "" {
			t.Fatalf("rate %g: invariants: checked=%v violation=%q", rate, r.InvariantsChecked, r.InvariantViolation)
		}
		if r.GoodputRatio <= 0 || r.GoodputRatio >= 1 {
			t.Fatalf("rate %g: goodput ratio %g out of range", rate, r.GoodputRatio)
		}
	}
}

// A mid-run flap drops frames while down, recovers after link-up, and
// reports the recovery time.
func TestMidRunFlapRecovers(t *testing.T) {
	cfg := testConfig(ModeFull, ttcp.TX, 16384)
	cfg.Topology = topo.Uniform(2, 4, 1)
	// A LAN-tuned RTO so post-flap recovery lands inside the measured
	// window (the 200 ms default would fire long after it ends).
	cfg.TCP.RTOInitCycles = 40_000_000
	cfg.TCP.RTOMaxCycles = 320_000_000
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindFlap, NIC: 0, From: 50_000_000, Until: 70_000_000},
	}}
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Eng.Run(simTime(cfg.WarmupCycles))
	r := m.Measure(cfg.MeasureCycles)
	if r.Bytes == 0 {
		t.Fatal("no progress around the flap")
	}
	if m.NICs[0].LinkDownDrops == 0 {
		t.Fatal("no frames dropped while the link was down")
	}
	if len(r.FlapRecoveryCycles) != 1 {
		t.Fatalf("recorded %d flap recoveries, want 1 (%v)", len(r.FlapRecoveryCycles), r.FlapRecoveryCycles)
	}
	if rec := r.FlapRecoveryCycles[0]; rec == 0 || rec > 4_000_000_000 {
		t.Fatalf("recovery time %d cycles implausible", rec)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A DMA stall defers receive completions without losing accounted
// frames, and an interrupt storm burns the victim CPU without breaking
// anything — both leave the machine clean.
func TestStallAndStormInvariants(t *testing.T) {
	cfg := testConfig(ModeNone, ttcp.RX, 16384)
	cfg.Topology = topo.Uniform(2, 2, 1)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindStall, NIC: 0, From: 50_000_000, Until: 56_000_000},
		{Kind: fault.KindStorm, NIC: 1, CPU: 1, From: 40_000_000, Until: 120_000_000, PeriodCycles: 200_000},
	}}
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Eng.Run(simTime(cfg.WarmupCycles))
	r := m.Measure(cfg.MeasureCycles)
	if r.Bytes == 0 {
		t.Fatal("no progress under stall + storm")
	}
	if m.NICs[0].StallDeferred == 0 {
		t.Fatal("stall deferred nothing")
	}
	if m.K.APIC.Spurious == 0 {
		t.Fatal("storm injected nothing")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Validation failures surface as panics at machine assembly, matching
// the other shape gates.
func TestInvalidSchedulePanics(t *testing.T) {
	cfg := testConfig(ModeNone, ttcp.TX, 16384)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindFlap, NIC: 99, From: 1, Until: 2},
	}}
	defer func() {
		if recover() == nil {
			t.Fatal("bad schedule did not panic")
		}
	}()
	NewMachine(cfg)
}
