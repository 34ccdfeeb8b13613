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
	"strconv"
	"sync"

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
	bp := textPool.Get().(*[]byte)
	text := appendFingerprint((*bp)[:0], cfg)
	sum := sha256.Sum256(text)
	*bp = text
	textPool.Put(bp)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// textPool recycles the canonical-text buffers Fingerprint hashes, so a
// warm key costs no allocation beyond the plan it resolves.
var textPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// appendFingerprint appends cfg's canonical key text to b. The text is
// line-oriented "name=value" fields in a fixed order, spelled exactly as
// the fmt verbs of the encoder it replaced rendered them (%d, %t, %q, %g,
// and %v of an int slice); FuzzFingerprintText holds it byte for byte to
// that encoder, kept in fingerprint_ref_test.go.
func appendFingerprint(b []byte, cfg core.Config) []byte {
	b = append(b, fingerprintVersion+"\n"...)

	// Identity fields that surface verbatim in rendered artifacts.
	b = appendInt(b, "mode=", int64(cfg.Mode))
	b = appendInt(b, " dir=", int64(cfg.Dir))
	b = appendInt(b, " size=", int64(cfg.Size))
	b = appendUint(b, " seed=", cfg.Seed)

	// Windows. The think, rotate, skipwl and reclat knobs were deleted;
	// the line keeps their only remaining values so existing keys hold.
	b = appendUint(b, "\nwarmup=", cfg.WarmupCycles)
	b = appendUint(b, " measure=", cfg.MeasureCycles)
	b = append(b, " think=0 rotate=false skipwl=false reclat=false\n"...)

	// Per-run artifact attachments: uncacheable (Cacheable is false when
	// set), hashed anyway so the key function is total.
	b = appendBool(b, "trace=", cfg.Trace != nil)
	b = appendUint(b, " gauge=", cfg.GaugeCycles)
	b = append(b, '\n')
	if cfg.Trace != nil {
		b = appendInt(b, "trace.cap=", int64(cfg.Trace.Capacity))
		b = append(b, '\n')
	}

	// Coalescing model. Nil and an explicit legacy config simulate
	// identically (the spec normalizes both to "legacy"), so both hash as
	// the absence of this section; the resolved per-device line below
	// covers it again through NICConfigFor, but this line also covers
	// the PlanFor-error path so the key stays total.
	if cfg.Coalesce != nil && !cfg.Coalesce.Legacy() {
		b = append(b, "coalesce="...)
		b = cfg.Coalesce.AppendSpec(b)
		b = append(b, '\n')
	}

	// Machine shape.
	t := cfg.Topology
	b = appendInt(b, "topo cpus=", int64(t.NumCPUs))
	b = appendInt(b, " conns=", int64(t.Conns))
	b = appendInt(b, " domains=", int64(len(t.Domains)))
	b = append(b, '\n')
	for _, d := range t.Domains {
		b = appendInts(append(b, "domain="...), d)
		b = append(b, '\n')
	}
	for _, n := range t.NICs {
		b = appendInt(b, "nic queues=", int64(n.Queues))
		b = appendUint(b, " link=", n.LinkBps)
		b = append(b, '\n')
	}

	// Placement, resolved through the plan: covers Mode/Policy
	// interaction and any custom PlacementPolicy's actual output. A shape
	// the policy rejects hashes its error — the run will fail identically.
	if plan, err := core.PlanFor(cfg); err != nil {
		b = append(b, "plan.err="...)
		b = append(b, err.Error()...)
		b = append(b, '\n')
	} else {
		b = strconv.AppendQuote(append(b, "plan policy="...), plan.Policy)
		b = appendBool(b, " rotate=", plan.RotateIRQs)
		b = appendBool(b, " fd=", plan.FlowDirector)
		b = append(b, '\n')
		for n := range plan.QueueVectors {
			b = appendInt(b, "plan.nic", int64(n))
			b = appendInts(append(b, " vecs="...), plan.QueueVectors[n])
			b = appendInts(append(b, " masks="...), plan.IRQMasks[n])
			b = append(b, '\n')
		}
		b = appendInts(append(b, "plan.procs masks="...), plan.ProcMasks)
		b = appendInts(append(b, " starts="...), plan.StartCPUs)
		b = appendInts(append(b, " flows="...), plan.FlowQueues)
		b = append(b, '\n')
		// Resolved per-device configuration — exactly what NewMachine
		// hands each NIC (ring sizes, coalescing, wire latency), so
		// device-model knobs can never slip past the key. The device's
		// loss rate was deleted; loss=0 keeps existing keys.
		for n := range plan.QueueVectors {
			nc := core.NICConfigFor(plan, cfg.Coalesce, n)
			b = appendInt(b, "nicdev", int64(n))
			b = appendInt(b, " vec=", int64(nc.Vector))
			b = appendUint(b, " link=", nc.LinkBps)
			b = appendInt(b, " tx=", int64(nc.TxRing))
			b = appendInt(b, " rx=", int64(nc.RxRing))
			b = appendUint(b, " coalesce=", nc.CoalesceCycles)
			b = nc.Coalesce.AppendSpec(append(b, " co="...))
			b = appendUint(b, " wirelat=", nc.WireLatencyCycles)
			b = appendBool(b, " loss=0 napi=", nc.NAPI)
			b = appendInts(append(b, " qvecs="...), nc.QueueVectors)
			b = append(b, '\n')
		}
	}

	// Model parameter blocks, field by field.
	c := cfg.CPU
	b = appendUint(b, "cpu clock=", c.ClockHz)
	b = appendFloat(b, " basecpi=", c.BaseCPI)
	b = appendInt(b, " tlb=", int64(c.TLBEntries))
	pe := c.Penalty
	b = appendUint(b, "\npen clear=", pe.MachineClear)
	b = appendUint(b, " tc=", pe.TCMiss)
	b = appendUint(b, " l2h=", pe.L2Hit)
	b = appendUint(b, " l2m=", pe.L2Miss)
	b = appendUint(b, " llc=", pe.LLCMiss)
	b = appendUint(b, " itlb=", pe.ITLBWalk)
	b = appendUint(b, " dtlb=", pe.DTLBWalk)
	b = appendUint(b, " br=", pe.BrMispredict)
	b = appendInt(b, " rcp=", int64(pe.RemoteClearPeriod))
	tu := cfg.Tune
	b = appendUint(b, "\ntune cdirq=", tu.ClearsPerDeviceIRQ)
	b = appendUint(b, " cipi=", tu.ClearsPerIPI)
	b = appendUint(b, " ctimer=", tu.ClearsPerTimer)
	b = appendUint(b, " cswitch=", tu.ClearsPerSwitch)
	b = appendUint(b, " quantum=", tu.QuantumCycles)
	b = appendUint(b, " tick=", tu.TickCycles)
	b = appendUint(b, " ipilat=", tu.IPILatencyCycles)
	b = appendInt(b, " bal=", int64(tu.BalanceTicks))
	b = appendUint(b, " decay=", tu.CacheDecayCycles)
	b = appendBool(b, " wakeaff=", tu.WakeAffinity)
	b = appendBool(b, " wakeipi=", tu.WakeIPI)
	b = appendBool(b, " preempt=", tu.PreemptIPI)
	b = appendBool(b, " dmainv=", tu.DMAReadInvalidates)
	tc := cfg.TCP
	b = appendInt(b, "\ntcp mss=", int64(tc.MSS))
	b = appendInt(b, " snd=", int64(tc.SndBuf))
	b = appendInt(b, " rcv=", int64(tc.RcvBuf))
	b = appendInt(b, " skbs=", int64(tc.PoolSKBs))
	b = appendInt(b, " hdrs=", int64(tc.PoolHeaders))
	b = appendInt(b, " delack=", int64(tc.DelAckSegs))
	b = appendUint(b, " clidelay=", tc.ClientDelayCycles)
	b = appendBool(b, " intcopy=", tc.RxIntCopy)
	b = appendUint(b, " rtoinit=", tc.RTOInitCycles)
	b = appendUint(b, " rtomax=", tc.RTOMaxCycles)
	b = append(b, '\n')

	// Fault schedule, event by event. A nil and an empty schedule inject
	// nothing and simulate identically (the injector draws no random
	// numbers), so both hash as the absence of this section.
	if !cfg.Faults.Empty() {
		for _, e := range cfg.Faults.Events {
			b = append(append(b, "fault kind="...), e.Kind...)
			b = appendInt(b, " nic=", int64(e.NIC))
			b = appendInt(b, " cpu=", int64(e.CPU))
			b = appendUint(b, " from=", e.From)
			b = appendUint(b, " until=", e.Until)
			b = appendFloat(b, " rate=", e.Rate)
			b = appendFloat(b, " bad=", e.BadRate)
			b = appendFloat(b, " penter=", e.PEnterBad)
			b = appendFloat(b, " pexit=", e.PExitBad)
			b = appendUint(b, " delay=", e.DelayCycles)
			b = appendUint(b, " jitter=", e.JitterCycles)
			b = appendUint(b, " period=", e.PeriodCycles)
			b = append(b, '\n')
		}
	}

	// Workload spec, field by field. A nil spec and any spec that
	// simulates as the plain bulk workload (IsDefaultBulk) are
	// byte-identical runs, so both hash as the absence of this section.
	if wl := cfg.Workload; !wl.IsDefaultBulk() {
		b = append(append(b, "workload kind="...), wl.Kind...)
		b = appendBool(b, " alt=", wl.Alternate)
		b = appendInt(b, " req=", int64(wl.ReqBytes))
		b = appendInt(b, " rsp=", int64(wl.RspBytes))
		b = append(append(b, " mix="...), wl.Mix...)
		b = appendInt(b, " conns=", int64(wl.Conns))
		b = append(append(b, " arrival="...), wl.Arrival...)
		b = appendUint(b, " interval=", wl.IntervalCycles)
		b = appendFloat(b, " alpha=", wl.Alpha)
		b = appendUint(b, " maxinterval=", wl.MaxIntervalCycles)
		b = appendInt(b, " servers=", int64(wl.Servers))
		b = appendInt(b, " backlog=", int64(wl.Backlog))
		b = appendUint(b, " timeout=", wl.TimeoutCycles)
		b = append(b, '\n')
	}
	return b
}

// appendInt, appendUint, appendBool and appendFloat append a field's
// literal prefix and its value as %d, %d, %t and %g render it.
func appendInt(b []byte, prefix string, v int64) []byte {
	return strconv.AppendInt(append(b, prefix...), v, 10)
}

func appendUint(b []byte, prefix string, v uint64) []byte {
	return strconv.AppendUint(append(b, prefix...), v, 10)
}

func appendBool(b []byte, prefix string, v bool) []byte {
	return strconv.AppendBool(append(b, prefix...), v)
}

func appendFloat(b []byte, prefix string, v float64) []byte {
	return strconv.AppendFloat(append(b, prefix...), v, 'g', -1, 64)
}

// appendInts appends s as %v renders an integer slice: "[1 2 3]", and
// "[]" for an empty or nil one.
func appendInts[T ~int | ~uint32](b []byte, s []T) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}
