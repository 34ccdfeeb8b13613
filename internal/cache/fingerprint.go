// Package cache memoizes simulation results. Every cell is a pure,
// deterministic function of its core.Config, so a canonical fingerprint
// of the result-affecting configuration fields is a complete cache key:
// equal fingerprints imply bit-identical Results. The package provides
// that fingerprint, a byte-bounded in-memory LRU over it, an optional
// content-addressed on-disk store (AFFINITY_CACHE_DIR), and singleflight
// deduplication so N concurrent identical requests cost one simulation.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/core"
)

// fingerprintVersion namespaces every key. Bump it when the fingerprint
// scheme itself changes (not when the simulator changes — simulator
// changes that alter results must be handled by operators discarding the
// disk store, see the server's /healthz build version).
const fingerprintVersion = "affinity-fp-v4"

// coveredFields records, per configuration struct the fingerprint walks,
// the exact field set the implementation handles. TestFingerprintCoversConfig
// reflects over the real types and fails when a field exists that is not
// listed here — adding a Config field without deciding its fingerprint
// treatment is a build-breaking omission, not a silent cache-corruption
// bug. Every listed field is either hashed below or consciously excluded
// (see uncacheable: Trace and GaugeCycles attach live per-run artifacts,
// so configs carrying them bypass the cache entirely yet are still
// hashed for completeness).
var coveredFields = map[string][]string{
	"core.Config": {
		"Mode", "Dir", "Size", "Topology", "Policy",
		"Seed", "WarmupCycles", "MeasureCycles", "Trace", "GaugeCycles",
		"CPU", "Tune", "TCP", "Faults", "Coalesce", "Workload",
	},
	"workload.Spec": {
		"Kind", "Alternate", "ReqBytes", "RspBytes", "Mix",
		"Conns", "Arrival", "IntervalCycles", "Alpha", "MaxIntervalCycles",
		"Servers", "Backlog", "TimeoutCycles",
	},
	"cpu.Config":    {"ClockHz", "BaseCPI", "Penalty", "TLBEntries"},
	"cpu.Penalties": {"MachineClear", "TCMiss", "L2Hit", "L2Miss", "LLCMiss", "ITLBWalk", "DTLBWalk", "BrMispredict", "RemoteClearPeriod"},
	"kern.Tuning": {
		"ClearsPerDeviceIRQ", "ClearsPerIPI", "ClearsPerTimer", "ClearsPerSwitch",
		"QuantumCycles", "TickCycles", "IPILatencyCycles", "BalanceTicks",
		"CacheDecayCycles", "WakeAffinity", "WakeIPI", "PreemptIPI", "DMAReadInvalidates",
	},
	"tcp.Config":    {"MSS", "SndBuf", "RcvBuf", "PoolSKBs", "PoolHeaders", "DelAckSegs", "ClientDelayCycles", "RxIntCopy", "RTOInitCycles", "RTOMaxCycles"},
	"topo.Topology": {"NumCPUs", "Domains", "NICs", "Conns"},
	"topo.NICShape": {"Queues", "LinkBps"},
	"trace.Config":  {"Capacity"},
	"topo.Plan":     {"Topo", "Policy", "QueueVectors", "IRQMasks", "ProcMasks", "StartCPUs", "FlowQueues", "RotateIRQs", "FlowDirector"},
	"netdev.NICConfig": {
		"Vector", "LinkBps", "TxRing", "RxRing", "CoalesceCycles",
		"WireLatencyCycles", "NAPI", "QueueVectors", "Coalesce",
	},
	"netdev.CoalesceConfig": {"Mode", "Usecs", "Frames", "MinUsecs", "MaxUsecs"},
	"fault.Schedule":        {"Events"},
	"fault.Event": {
		"Kind", "NIC", "CPU", "From", "Until", "Rate", "BadRate",
		"PEnterBad", "PExitBad", "DelayCycles", "JitterCycles", "PeriodCycles",
	},
}

// Cacheable reports whether cfg's Result can be served from a cache.
// Traced runs carry a live Recorder and gauge-sampled runs carry a
// Series on the Result — per-run artifacts a shared cache entry cannot
// represent — so those configurations always simulate.
func Cacheable(cfg core.Config) bool {
	return cfg.Trace == nil && cfg.GaugeCycles == 0
}

// Fingerprint canonically hashes every result-affecting field of cfg.
// Two configs with equal fingerprints produce bit-identical Results; two
// configs that could render differently anywhere (figures, CSV, verify
// scorecard) hash differently. Placement is hashed through the computed
// topo.Plan, so a Mode and the equivalent explicit Policy that place
// work identically share the simulation — while Mode itself is also
// hashed, because it appears verbatim in rendered output.
func Fingerprint(cfg core.Config) string {
	h := sha256.New()
	writeFingerprint(h, cfg)
	return hex.EncodeToString(h.Sum(nil))
}

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
