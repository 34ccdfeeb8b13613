package cache

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// writeFingerprint is the fmt-based key text the append encoder in
// fingerprint.go replaced, kept verbatim as its reference:
// FuzzFingerprintText requires appendFingerprint to write these exact
// bytes, so every key (and every disk cache entry and journal record
// written under one) holds.
func writeFingerprint(w io.Writer, cfg core.Config) {
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("%s\n", fingerprintVersion)

	// Identity fields that surface verbatim in rendered artifacts.
	p("mode=%d dir=%d size=%d seed=%d\n", int(cfg.Mode), int(cfg.Dir), cfg.Size, cfg.Seed)

	// Windows. The think, rotate, skipwl and reclat knobs were deleted;
	// the line keeps their only remaining values so existing keys hold.
	p("warmup=%d measure=%d think=0 rotate=false skipwl=false reclat=false\n",
		cfg.WarmupCycles, cfg.MeasureCycles)

	// Per-run artifact attachments: uncacheable (Cacheable is false when
	// set), hashed anyway so the key function is total.
	p("trace=%t gauge=%d\n", cfg.Trace != nil, cfg.GaugeCycles)
	if cfg.Trace != nil {
		p("trace.cap=%d\n", cfg.Trace.Capacity)
	}

	// Coalescing model. Nil and an explicit legacy config simulate
	// identically (String normalizes both to "legacy"), so both hash as
	// the absence of this section; the resolved per-device line below
	// covers it again through NICConfigFor, but this line also covers
	// the PlanFor-error path so the key stays total.
	if cfg.Coalesce != nil && !cfg.Coalesce.Legacy() {
		p("coalesce=%s\n", cfg.Coalesce.String())
	}

	// Machine shape.
	t := cfg.Topology
	p("topo cpus=%d conns=%d domains=%d\n", t.NumCPUs, t.Conns, len(t.Domains))
	for _, d := range t.Domains {
		p("domain=%v\n", d)
	}
	for _, n := range t.NICs {
		p("nic queues=%d link=%d\n", n.Queues, n.LinkBps)
	}

	// Placement, resolved through the plan: covers Mode/Policy
	// interaction and any custom PlacementPolicy's actual output. A shape
	// the policy rejects hashes its error — the run will fail identically.
	if plan, err := core.PlanFor(cfg); err != nil {
		p("plan.err=%v\n", err)
	} else {
		p("plan policy=%q rotate=%t fd=%t\n", plan.Policy, plan.RotateIRQs, plan.FlowDirector)
		for n := range plan.QueueVectors {
			p("plan.nic%d vecs=%v masks=%v\n", n, plan.QueueVectors[n], plan.IRQMasks[n])
		}
		p("plan.procs masks=%v starts=%v flows=%v\n", plan.ProcMasks, plan.StartCPUs, plan.FlowQueues)
		// Resolved per-device configuration — exactly what NewMachine
		// hands each NIC (ring sizes, coalescing, wire latency), so
		// device-model knobs can never slip past the key. The device's
		// loss rate was deleted; loss=0 keeps existing keys.
		for n := range plan.QueueVectors {
			nc := core.NICConfigFor(plan, cfg.Coalesce, n)
			p("nicdev%d vec=%d link=%d tx=%d rx=%d coalesce=%d co=%s wirelat=%d loss=0 napi=%t qvecs=%v\n",
				n, nc.Vector, nc.LinkBps, nc.TxRing, nc.RxRing, nc.CoalesceCycles,
				nc.Coalesce.String(), nc.WireLatencyCycles, nc.NAPI, nc.QueueVectors)
		}
	}

	// Model parameter blocks, field by field.
	c := cfg.CPU
	p("cpu clock=%d basecpi=%g tlb=%d\n", c.ClockHz, c.BaseCPI, c.TLBEntries)
	pe := c.Penalty
	p("pen clear=%d tc=%d l2h=%d l2m=%d llc=%d itlb=%d dtlb=%d br=%d rcp=%d\n",
		pe.MachineClear, pe.TCMiss, pe.L2Hit, pe.L2Miss, pe.LLCMiss,
		pe.ITLBWalk, pe.DTLBWalk, pe.BrMispredict, pe.RemoteClearPeriod)
	tu := cfg.Tune
	p("tune cdirq=%d cipi=%d ctimer=%d cswitch=%d quantum=%d tick=%d ipilat=%d bal=%d decay=%d wakeaff=%t wakeipi=%t preempt=%t dmainv=%t\n",
		tu.ClearsPerDeviceIRQ, tu.ClearsPerIPI, tu.ClearsPerTimer, tu.ClearsPerSwitch,
		tu.QuantumCycles, tu.TickCycles, tu.IPILatencyCycles, tu.BalanceTicks,
		tu.CacheDecayCycles, tu.WakeAffinity, tu.WakeIPI, tu.PreemptIPI, tu.DMAReadInvalidates)
	tc := cfg.TCP
	p("tcp mss=%d snd=%d rcv=%d skbs=%d hdrs=%d delack=%d clidelay=%d intcopy=%t rtoinit=%d rtomax=%d\n",
		tc.MSS, tc.SndBuf, tc.RcvBuf, tc.PoolSKBs, tc.PoolHeaders,
		tc.DelAckSegs, tc.ClientDelayCycles, tc.RxIntCopy,
		tc.RTOInitCycles, tc.RTOMaxCycles)

	// Fault schedule, event by event. A nil and an empty schedule inject
	// nothing and simulate identically (the injector draws no random
	// numbers), so both hash as the absence of this section.
	if !cfg.Faults.Empty() {
		for _, e := range cfg.Faults.Events {
			p("fault kind=%s nic=%d cpu=%d from=%d until=%d rate=%g bad=%g penter=%g pexit=%g delay=%d jitter=%d period=%d\n",
				e.Kind, e.NIC, e.CPU, e.From, e.Until, e.Rate, e.BadRate,
				e.PEnterBad, e.PExitBad, e.DelayCycles, e.JitterCycles, e.PeriodCycles)
		}
	}

	// Workload spec, field by field. A nil spec and any spec that
	// simulates as the plain bulk workload (IsDefaultBulk) are
	// byte-identical runs, so both hash as the absence of this section.
	if wl := cfg.Workload; !wl.IsDefaultBulk() {
		p("workload kind=%s alt=%t req=%d rsp=%d mix=%s conns=%d arrival=%s interval=%d alpha=%g maxinterval=%d servers=%d backlog=%d timeout=%d\n",
			wl.Kind, wl.Alternate, wl.ReqBytes, wl.RspBytes, wl.Mix,
			wl.Conns, wl.Arrival, wl.IntervalCycles, wl.Alpha, wl.MaxIntervalCycles,
			wl.Servers, wl.Backlog, wl.TimeoutCycles)
	}
}

// goldenAxes are the golden product's coordinates in goldenConfig's
// argument order; a corner takes the first or the last value of each.
var goldenAxes = [8][2]string{
	{"paper", "uniform-4-4-2"},
	{"none", "full"},
	{"tx", "rx"},
	{"128", "65536"},
	{"default", "rotate"},
	{"bulk", "openloop,conns=300"},
	{"legacy", "timer,usecs=100"},
	{"none", "stall"},
}

// goldenCorner builds corner c of the golden product: bit k of c picks
// the last value of axis k.
func goldenCorner(t *testing.T, c byte) core.Config {
	var v [8]string
	for k, axis := range goldenAxes {
		v[k] = axis[c>>k&1]
	}
	return goldenConfig(t, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
}

// fuzzReader hands out decoded values from fuzz bytes; past the end
// every value is zero.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// n returns a value in [0, n).
func (r *fuzzReader) n(n int) int { return int(r.byte()) % n }

// u64 reads a small value, or a 2-, 4- or 8-byte one, chosen by the top
// two bits of the first byte, so short inputs reach small fields.
func (r *fuzzReader) u64() uint64 {
	b := r.byte()
	width := [4]int{0, 2, 4, 8}[b>>6]
	if width == 0 {
		return uint64(b & 63)
	}
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

func (r *fuzzReader) int() int { return int(int64(r.u64())) }

// float draws from the values %g spells in distinct ways — signed zero,
// the exponent thresholds, non-finite values, subnormals — or any bits.
func (r *fuzzReader) float() float64 {
	special := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 0.1, 1.5, 1e-5, 1e20, 123456789,
		math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64}
	if i := r.n(len(special) + 1); i < len(special) {
		return special[i]
	}
	return math.Float64frombits(r.u64())
}

func (r *fuzzReader) str(choices ...string) string { return choices[r.n(len(choices))] }

// fill sets every field of the struct v from r. A field kind it does not
// know fails the test, so a new parameter type cannot slip past the fuzz.
func (r *fuzzReader) fill(t *testing.T, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(r.byte()&1 == 1)
		case reflect.Int:
			f.SetInt(int64(r.int()))
		case reflect.Uint64:
			f.SetUint(r.u64())
		case reflect.Float64:
			f.SetFloat(r.float())
		case reflect.Struct:
			r.fill(t, f)
		default:
			t.Fatalf("fill: field %s.%s has kind %s", v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// fuzzTopology decodes a machine shape. Most are valid; some are not
// (no CPUs or NICs, negative queues, broken domains), so the key's
// plan.err branch is exercised too.
func (r *fuzzReader) fuzzTopology() topo.Topology {
	t := topo.Topology{NumCPUs: r.n(34), Conns: []int{0, 1, 3, 64, -1}[r.n(5)]}
	t.NICs = make([]topo.NICShape, r.n(10))
	for i := range t.NICs {
		t.NICs[i].Queues = int(int8(r.byte())) % 6
		t.NICs[i].LinkBps = []uint64{0, 1e9, 1e10, r.u64()}[r.n(4)]
	}
	switch r.n(3) {
	case 1: // a round-robin partition into k domains
		if k := 1 + r.n(4); t.NumCPUs >= k {
			t.Domains = make([][]int, k)
			for c := 0; c < t.NumCPUs; c++ {
				t.Domains[c%k] = append(t.Domains[c%k], c)
			}
		}
	case 2: // arbitrary CPU lists, usually not a partition
		t.Domains = make([][]int, r.n(4))
		for d := range t.Domains {
			for j := r.n(4); j > 0; j-- {
				t.Domains[d] = append(t.Domains[d], int(int8(r.byte())))
			}
		}
	}
	return t
}

// fuzzConfig starts from a golden corner and applies the mutations the
// bytes in data encode, one per op byte, until data runs out.
func fuzzConfig(t *testing.T, corner byte, data []byte) core.Config {
	cfg := goldenCorner(t, corner)
	r := &fuzzReader{b: data}
	for len(r.b) > 0 {
		switch r.n(12) {
		case 0:
			cfg.Topology = r.fuzzTopology()
		case 1:
			cfg.Mode = core.Mode(r.n(7))
			cfg.Dir = ttcp.Direction(r.n(3))
			cfg.Size = r.int()
			cfg.Seed = r.u64()
			cfg.WarmupCycles, cfg.MeasureCycles = r.u64(), r.u64()
		case 2:
			cfg.Policy = nil
			if pols := topo.Policies(); r.byte()&1 == 1 {
				cfg.Policy = pols[r.n(len(pols))]
			}
		case 3:
			cfg.Coalesce = nil
			if r.byte()&1 == 1 {
				cfg.Coalesce = &netdev.CoalesceConfig{
					Mode:  r.str("", netdev.CoalesceLegacy, netdev.CoalesceTimer, netdev.CoalesceFrames, netdev.CoalesceAdaptive, "bogus"),
					Usecs: r.u64(), Frames: r.int(), MinUsecs: r.u64(), MaxUsecs: r.u64(),
				}
			}
		case 4:
			switch r.n(3) {
			case 0:
				cfg.Faults = nil
			case 1:
				cfg.Faults = &fault.Schedule{}
			case 2:
				if cfg.Faults == nil {
					cfg.Faults = &fault.Schedule{}
				}
				cfg.Faults.Events = append(cfg.Faults.Events, fault.Event{
					Kind: fault.Kind(r.str("loss", "burst", "flap", "delay", "stall", "storm", "")),
					NIC:  r.int(), CPU: r.int(), From: r.u64(), Until: r.u64(),
					Rate: r.float(), BadRate: r.float(), PEnterBad: r.float(), PExitBad: r.float(),
					DelayCycles: r.u64(), JitterCycles: r.u64(), PeriodCycles: r.u64(),
				})
			}
		case 5:
			cfg.Workload = nil
			if r.byte()&1 == 1 {
				cfg.Workload = &workload.Spec{
					Kind:      workload.Kind(r.str("", "bulk", "rpc", "openloop")),
					Alternate: r.byte()&1 == 1,
					ReqBytes:  r.int(), RspBytes: r.int(),
					Mix:   r.str("", "fixed", "web", "short", "mixed"),
					Conns: r.int(), Arrival: r.str("", "poisson", "pareto"),
					IntervalCycles: r.u64(), Alpha: r.float(), MaxIntervalCycles: r.u64(),
					Servers: r.int(), Backlog: r.int(), TimeoutCycles: r.u64(),
				}
			}
		case 6:
			cfg.Trace = nil
			if r.byte()&1 == 1 {
				cfg.Trace = &trace.Config{Capacity: r.int()}
			}
			cfg.GaugeCycles = r.u64()
		case 7, 8:
			r.fill(t, reflect.ValueOf(&cfg.CPU).Elem())
		case 9:
			r.fill(t, reflect.ValueOf(&cfg.Tune).Elem())
		case 10, 11:
			r.fill(t, reflect.ValueOf(&cfg.TCP).Elem())
		}
	}
	return cfg
}

// FuzzFingerprintText requires the append encoder to write exactly the
// text the fmt reference writes — the text itself, not only its hash —
// for configs decoded from the golden product's corners plus arbitrary
// topology, mode, policy, coalescing, fault, workload, artifact and
// model-parameter mutations.
func FuzzFingerprintText(f *testing.F) {
	for c := 0; c < 1<<len(goldenAxes); c++ {
		f.Add(byte(c), []byte{})
	}
	// A loss event whose rates are 123456789, 5e-324, -0 and NaN: %g's
	// shortest spelling, subnormals, the sign of zero and non-finite.
	f.Add(byte(0), []byte{4, 2, 0, 0, 0, 0, 0, 8, 12, 1, 9, 1, 2, 3})
	f.Add(byte(3), []byte{0, 4, 3, 1, 130, 1, 2, 2, 9, 1, 3, 1, 4, 5, 6, 7})
	f.Add(byte(255), []byte{5, 1, 3, 0, 1, 2, 3, 4, 2, 5, 2, 9, 200, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 1, 7})
	f.Add(byte(9), []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 9, 255, 255, 1, 10, 3, 4, 0, 1})
	f.Fuzz(func(t *testing.T, corner byte, data []byte) {
		cfg := fuzzConfig(t, corner, data)
		var want bytes.Buffer
		writeFingerprint(&want, cfg)
		if got := appendFingerprint(nil, cfg); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("key text differs from the reference encoder:\n--- append ---\n%s--- fmt ---\n%s", got, want.Bytes())
		}
	})
}

var (
	sinkKey string
	sinkNIC netdev.NICConfig
)

// TestFingerprintAllocs pins the key's own allocations: beyond what
// resolving the plan and each NIC's device config costs, a Fingerprint
// may allocate at most twice. fmt or reflection back on the key path
// costs dozens per key, so this fails without depending on timing.
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
