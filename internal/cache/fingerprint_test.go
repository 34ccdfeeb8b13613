package cache

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/netdev"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// TestFingerprintCoversConfig fails when any configuration struct the
// fingerprint walks grows a field that coveredFields does not list.
// Adding a field to one of these types REQUIRES deciding how the cache
// key treats it (hash it, resolve it through PlanFor, or gate it
// as uncacheable) and then recording it in coveredFields — otherwise two
// configs differing only in the new field would silently share a cache
// entry.
func TestFingerprintCoversConfig(t *testing.T) {
	types := map[string]reflect.Type{
		"core.Config":           reflect.TypeOf(core.Config{}),
		"cpu.Config":            reflect.TypeOf(cpu.Config{}),
		"cpu.Penalties":         reflect.TypeOf(cpu.Penalties{}),
		"kern.Tuning":           reflect.TypeOf(kern.Tuning{}),
		"tcp.Config":            reflect.TypeOf(tcp.Config{}),
		"topo.Topology":         reflect.TypeOf(topo.Topology{}),
		"topo.NICShape":         reflect.TypeOf(topo.NICShape{}),
		"trace.Config":          reflect.TypeOf(trace.Config{}),
		"topo.Plan":             reflect.TypeOf(topo.Plan{}),
		"netdev.NICConfig":      reflect.TypeOf(netdev.NICConfig{}),
		"netdev.CoalesceConfig": reflect.TypeOf(netdev.CoalesceConfig{}),
		"fault.Schedule":        reflect.TypeOf(fault.Schedule{}),
		"fault.Event":           reflect.TypeOf(fault.Event{}),
		"workload.Spec":         reflect.TypeOf(workload.Spec{}),
	}
	for name, typ := range types {
		covered, ok := coveredFields[name]
		if !ok {
			t.Errorf("%s: fingerprint walks this type but coveredFields has no entry", name)
			continue
		}
		var actual []string
		for i := 0; i < typ.NumField(); i++ {
			actual = append(actual, typ.Field(i).Name)
		}
		want := append([]string(nil), covered...)
		sort.Strings(actual)
		sort.Strings(want)
		if !reflect.DeepEqual(actual, want) {
			t.Errorf("%s fields drifted from the fingerprint's covered set.\n  struct has: %v\n  covered:    %v\n"+
				"Update Fingerprint (or Cacheable) to handle the new field, then list it in coveredFields.",
				name, actual, want)
		}
	}
	for name := range coveredFields {
		if _, ok := types[name]; !ok {
			t.Errorf("coveredFields lists %s but the test does not reflect over it; add it to the types map", name)
		}
	}
}

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
