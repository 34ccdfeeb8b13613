package cache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

func fpCfg() core.Config {
	return core.DefaultConfig(core.ModeNone, ttcp.TX, 65536)
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := Fingerprint(fpCfg())
	if base != Fingerprint(fpCfg()) {
		t.Fatal("fingerprint of identical configs differs")
	}

	mutations := map[string]func(*core.Config){
		"Mode":             func(c *core.Config) { c.Mode = core.ModeFull },
		"Dir":              func(c *core.Config) { c.Dir = ttcp.RX },
		"Size":             func(c *core.Config) { c.Size = 128 },
		"Seed":             func(c *core.Config) { c.Seed = 7 },
		"WarmupCycles":     func(c *core.Config) { c.WarmupCycles = 1 },
		"MeasureCycles":    func(c *core.Config) { c.MeasureCycles = 1 },
		"Policy":           func(c *core.Config) { c.Policy = topo.RSS{} },
		"Policy=rotate":    func(c *core.Config) { c.Policy = topo.Rotate{} },
		"CPU.ClockHz":      func(c *core.Config) { c.CPU.ClockHz = 1_000_000_000 },
		"CPU.Penalty":      func(c *core.Config) { c.CPU.Penalty.LLCMiss = 999 },
		"Tune":             func(c *core.Config) { c.Tune.WakeAffinity = !c.Tune.WakeAffinity },
		"TCP":              func(c *core.Config) { c.TCP.MSS = 576 },
		"Topology":         func(c *core.Config) { c.Topology = topo.Uniform(4, 2, 2) },
		"Topology.NumCPUs": func(c *core.Config) { c.Topology.NumCPUs = 4 },
		"Topology.NICs":    func(c *core.Config) { c.Topology = topo.Uniform(2, 4, 1) },
		"Faults": func(c *core.Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{
				{Kind: fault.KindLoss, NIC: -1, Rate: 0.01},
			}}
		},
		"Workload": func(c *core.Config) {
			c.Workload = &workload.Spec{Kind: workload.KindRPC}
		},
	}
	for field, mutate := range mutations {
		cfg := fpCfg()
		mutate(&cfg)
		if Fingerprint(cfg) == base {
			t.Errorf("mutating %s did not change the fingerprint", field)
		}
	}
}

// TestFingerprintMergesEquivalentShapes pins the deliberate merge: a
// Mode and its equivalent explicit Policy simulate identically and
// render identically, so they share one cache entry.
func TestFingerprintMergesEquivalentShapes(t *testing.T) {
	byMode := fpCfg()
	byPolicy := fpCfg()
	byPolicy.Policy = topo.None{} // what ModeNone resolves to
	if Fingerprint(byMode) != Fingerprint(byPolicy) {
		t.Error("a Mode and its equivalent explicit Policy should fingerprint identically")
	}

	// But a Mode whose *name* differs must not merge even if placement
	// did: rendered output spells the mode.
	otherMode := fpCfg()
	otherMode.Mode = core.ModeProc
	otherMode.Policy = topo.None{} // same placement as base... but
	if Fingerprint(otherMode) == Fingerprint(byMode) {
		t.Error("different Modes must fingerprint differently even under identical placement")
	}
}

// TestFingerprintFaultSensitivity pins the fault-schedule corner of the
// key: a nil and an empty schedule inject nothing and must share the
// clean baseline's entry, while schedules differing in any event
// parameter — even one cycle of a window — must never collide.
func TestFingerprintFaultSensitivity(t *testing.T) {
	clean := Fingerprint(fpCfg())
	empty := fpCfg()
	empty.Faults = &fault.Schedule{}
	if Fingerprint(empty) != clean {
		t.Error("an empty fault schedule simulates identically to nil and must share its fingerprint")
	}

	ev := fault.Event{Kind: fault.KindBurst, NIC: -1, PEnterBad: 0.002, PExitBad: 0.2, BadRate: 0.9}
	base := fpCfg()
	base.Faults = &fault.Schedule{Events: []fault.Event{ev}}
	faulted := Fingerprint(base)
	if faulted == clean {
		t.Fatal("a faulted config must not share the clean baseline's fingerprint")
	}

	tweaks := map[string]func(*fault.Event){
		"Kind":      func(e *fault.Event) { e.Kind = fault.KindLoss; e.Rate = 0.9 },
		"NIC":       func(e *fault.Event) { e.NIC = 0 },
		"Until":     func(e *fault.Event) { e.Until = 1 },
		"BadRate":   func(e *fault.Event) { e.BadRate = 0.8 },
		"PEnterBad": func(e *fault.Event) { e.PEnterBad = 0.003 },
	}
	for field, tweak := range tweaks {
		cfg := fpCfg()
		e := ev
		tweak(&e)
		cfg.Faults = &fault.Schedule{Events: []fault.Event{e}}
		if Fingerprint(cfg) == faulted {
			t.Errorf("changing fault %s did not change the fingerprint", field)
		}
	}
}

// TestFingerprintWorkloadSensitivity pins the workload corner of the
// key: a nil spec and an explicit default-bulk spec simulate
// byte-identically and share the baseline entry, while specs differing
// in any field that can change a run must never collide.
func TestFingerprintWorkloadSensitivity(t *testing.T) {
	clean := Fingerprint(fpCfg())
	bulk := fpCfg()
	bulk.Workload = &workload.Spec{Kind: workload.KindBulk}
	if Fingerprint(bulk) != clean {
		t.Error("an explicit default-bulk spec simulates identically to nil and must share its fingerprint")
	}

	base := fpCfg()
	base.Workload = &workload.Spec{Kind: workload.KindOpenLoop}
	openloop := Fingerprint(base)
	if openloop == clean {
		t.Fatal("an openloop config must not share the bulk baseline's fingerprint")
	}

	tweaks := map[string]func(*workload.Spec){
		"Conns":          func(s *workload.Spec) { s.Conns = 777 },
		"Arrival":        func(s *workload.Spec) { s.Arrival = workload.ArrivalPareto },
		"IntervalCycles": func(s *workload.Spec) { s.IntervalCycles = 123_456 },
		"Mix":            func(s *workload.Spec) { s.Mix = workload.MixShort },
		"RspBytes":       func(s *workload.Spec) { s.RspBytes = 4096 },
		"Servers":        func(s *workload.Spec) { s.Servers = 3 },
		"Backlog":        func(s *workload.Spec) { s.Backlog = 16 },
		"TimeoutCycles":  func(s *workload.Spec) { s.TimeoutCycles = 1_000_000 },
	}
	for field, tweak := range tweaks {
		cfg := fpCfg()
		s := workload.Spec{Kind: workload.KindOpenLoop}
		tweak(&s)
		cfg.Workload = &s
		if Fingerprint(cfg) == openloop {
			t.Errorf("changing workload %s did not change the fingerprint", field)
		}
	}

	alt := fpCfg()
	alt.Workload = &workload.Spec{Kind: workload.KindBulk, Alternate: true}
	if Fingerprint(alt) == clean {
		t.Error("bulk with alternating directions must not share the plain bulk fingerprint")
	}
}

// TestFingerprintIgnoresInertWorkloadFields: a workload spec field the
// kind does not read cannot change the simulation, so a parsed spec that
// sets one keys as its canonical spelling does.
func TestFingerprintIgnoresInertWorkloadFields(t *testing.T) {
	key := func(spec string) string {
		t.Helper()
		w, err := workload.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		cfg := fpCfg()
		cfg.Workload = w
		return Fingerprint(cfg)
	}
	for canonical, spellings := range map[string][]string{
		"bulk,alt=true": {
			"bulk,alt=true,req=1,rsp=2,mix=short",
			"bulk,alt=true,conns=5,arrival=pareto,alpha=3,interval=9,maxinterval=90,servers=2,backlog=4,timeout=7",
		},
		"rpc": {
			"rpc,conns=5,servers=3,alpha=7",
			"rpc,alt=true,arrival=pareto,interval=9,maxinterval=90,backlog=4,timeout=7",
		},
		"rpc,req=512,rsp=16384,mix=fixed": {"rpc,req=512,rsp=16384,mix=fixed,conns=5,alt=true"},
		"openloop,conns=300":              {"openloop,conns=300,alt=true"},
	} {
		want := key(canonical)
		for _, spec := range spellings {
			if key(spec) != want {
				t.Errorf("%q keys apart from %q, though its extra fields are inert", spec, canonical)
			}
		}
	}
	for _, pair := range [][2]string{{"rpc", "rpc,mix=short"}, {"bulk", "bulk,alt=true"}, {"openloop", "openloop,servers=3"}} {
		if key(pair[0]) == key(pair[1]) {
			t.Errorf("%q and %q share a key, though they simulate differently", pair[0], pair[1])
		}
	}
}

// TestFingerprintIgnoresInertCoalesceFields: a coalescing parameter the
// mode does not read cannot change the simulation, so a parsed spec that
// sets one keys as its canonical spelling does, and a legacy config keys
// as nil whatever parameters it carries.
func TestFingerprintIgnoresInertCoalesceFields(t *testing.T) {
	key := func(spec string) string {
		t.Helper()
		co, err := netdev.ParseCoalesce(spec)
		if err != nil {
			t.Fatalf("ParseCoalesce(%q): %v", spec, err)
		}
		cfg := fpCfg()
		cfg.Coalesce = co
		return Fingerprint(cfg)
	}
	for canonical, spellings := range map[string][]string{
		"":                 {"legacy", "legacy,usecs=5", "legacy,frames=3,min=1,max=2"},
		"timer,usecs=100":  {"timer,usecs=100,min=3", "timer,usecs=100,frames=4,max=9"},
		"frames,frames=16": {"frames,frames=16,min=2,max=9"},
		"adaptive":         {"adaptive,usecs=7"},
	} {
		want := key(canonical)
		for _, spec := range spellings {
			if key(spec) != want {
				t.Errorf("%q keys apart from %q, though its extra fields are inert", spec, canonical)
			}
		}
	}
	literal := fpCfg()
	literal.Coalesce = &netdev.CoalesceConfig{Mode: netdev.CoalesceLegacy, Usecs: 5, Frames: 3}
	if Fingerprint(literal) != key("") {
		t.Error("a legacy config carrying parameters keys apart from nil, though legacy reads none")
	}
}

func TestCacheableGates(t *testing.T) {
	if !Cacheable(fpCfg()) {
		t.Error("plain config should be cacheable")
	}
	traced := fpCfg()
	traced.Trace = &trace.Config{}
	if Cacheable(traced) {
		t.Error("traced runs carry a live recorder and must bypass the cache")
	}
	gauged := fpCfg()
	gauged.GaugeCycles = 1_000_000
	if Cacheable(gauged) {
		t.Error("gauge-sampled runs carry a Series and must bypass the cache")
	}
}

var (
	sinkKey string
	sinkNIC netdev.NICConfig
)

// TestFingerprintAllocs pins the key's own allocations: beyond what
// resolving the plan and each NIC's device config costs, a Fingerprint
// may allocate at most twice. The walk reads the pooled view in place
// and allocates nothing itself; a step that boxes a value or a buffer
// that stops being reused costs one or more per key, so this fails
// without depending on timing.
func TestFingerprintAllocs(t *testing.T) {
	adaptive := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	adaptive.Topology = topo.Uniform(4, 4, 2)
	co, err := netdev.ParseCoalesce("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	adaptive.Coalesce = co
	for name, cfg := range map[string]core.Config{"tx64k": fpCfg(), "uniform-4-4-2/adaptive": adaptive} {
		key := testing.AllocsPerRun(200, func() { sinkKey = Fingerprint(cfg) })
		plan := testing.AllocsPerRun(200, func() {
			p, err := core.PlanFor(cfg)
			if err != nil {
				panic(err)
			}
			for n := range p.QueueVectors {
				sinkNIC = core.NICConfigFor(p, cfg.Coalesce, n)
			}
		})
		if key-plan > 2 {
			t.Errorf("%s: Fingerprint makes %.0f allocations, %.0f beyond PlanFor and NICConfigFor's %.0f; want at most 2",
				name, key, key-plan, plan)
		}
	}
}
