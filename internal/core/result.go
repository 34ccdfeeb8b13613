package core

import (
	"context"
	"fmt"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Result is one measured steady-state window.
type Result struct {
	Cfg Config

	// ElapsedCycles is the measured window length.
	ElapsedCycles uint64
	// Bytes is application-level goodput over the window.
	Bytes uint64
	// Transactions counts completed ttcp read/write calls.
	Transactions uint64
	// Mbps is goodput in megabits per second of virtual time.
	Mbps float64
	// Util is per-CPU utilization in [0,1]; AvgUtil the mean.
	Util    []float64
	AvgUtil float64
	// CostGHzPerGbps is busy cycles per bit transferred — the paper's
	// Figure 4 metric ("GHz/Gbps").
	CostGHzPerGbps float64
	// Drops counts receive-ring overflow drops (should be zero).
	Drops uint64

	// Degradation metrics — all zero on a clean run.
	//
	// Retransmits counts SUT-side TCP segments retransmitted in the
	// window; WireDrops the frames lost on the wire (random loss, burst
	// loss, downed links). WireBytes is the raw volume the SUT's MACs
	// moved in the workload direction (TX: serialized including
	// retransmissions; RX: received including duplicates), and
	// GoodputRatio is Bytes/WireBytes — how much of the wire's work was
	// useful. FlapRecoveryCycles lists, per completed link flap, the
	// gap between link-up and the first frame moving again.
	Retransmits        uint64
	WireDrops          uint64
	WireBytes          uint64
	GoodputRatio       float64
	FlapRecoveryCycles []uint64

	// Reordering metrics — all zero on a clean, statically-steered run.
	//
	// OutOfOrder counts segments the go-back-N receivers (SUT sockets
	// and far-end clients alike) dropped for arriving out of order:
	// nonzero when frames of one flow were serviced from two queues
	// concurrently (the flow-director re-steering pathology) or after
	// wire loss. DupAcks counts the duplicate acknowledgments those
	// drops drew, FastRetransmits the dup-ACK-triggered go-back
	// episodes (timeout recoveries are counted in Retransmits only).
	// FlowResteers counts queue re-programs the flow director issued on
	// task migrations — zero under every static steering policy.
	OutOfOrder      uint64
	DupAcks         uint64
	FastRetransmits uint64
	FlowResteers    uint64

	// Workload-layer metrics — zero/nil for the bulk ttcp workload,
	// which records no per-request latency.
	//
	// Requests counts the per-request latency samples recorded in the
	// window; LatencyP50/P99/P999Cycles are the windowed latency
	// quantiles in cycles (divide by Cfg.CPU.ClockHz for seconds) and
	// Latency the full windowed sketch they come from. For the openloop
	// workload, ConnsGenerated/ConnsAbandoned count the cell's arrival
	// accounting (completed connections are Transactions) and SynDrops
	// the connection attempts the overloaded SUT refused at the listener
	// or receive ring.
	Requests          uint64
	LatencyP50Cycles  uint64
	LatencyP99Cycles  uint64
	LatencyP999Cycles uint64
	Latency           *stats.Sketch
	ConnsGenerated    uint64
	ConnsAbandoned    uint64
	SynDrops          uint64

	// InvariantsChecked is set when the post-run invariant pass ran
	// (faulted runs via Run); InvariantViolation holds its failure, if
	// any.
	InvariantsChecked  bool
	InvariantViolation string

	// Aborted marks a run cut short by cooperative cancellation or a
	// budget watchdog (RunControlled); AbortReason says which. An aborted
	// Result is a failure signal, not data: its window metrics are
	// partial, it never enters the cache, and it is never exported — so
	// the fields stay out of ResultExport and the disk store, keeping
	// every served byte identical to an uninterrupted run's.
	Aborted     bool
	AbortReason string

	// Engine is the simulation engine's cumulative scheduling counters
	// at the end of the window (not a windowed delta): how many events
	// the run cost, the queue's high-water mark, and the ladder-band
	// occupancy. Deterministic for a given Config, like everything else
	// here.
	Engine sim.Stats

	// Ctr is the PMU counter delta over the window.
	Ctr *perf.Counters
	// IdleCycles is the per-CPU idle time inside the window.
	IdleCycles []uint64

	// Trace is the machine's timeline recorder (nil unless Config.Trace
	// was set); it holds the whole run's records, not just this window.
	Trace *trace.Recorder
	// Series is the gauge time series sampled over this window (nil
	// unless Config.GaugeCycles was set).
	Series *Series
}

// openLoopHorizon bounds a run-to-completion cell: far beyond any real
// cell's makespan, it only matters if the workload's termination
// accounting is broken (the give-up timers make that a bug, not a
// tuning question).
const openLoopHorizon = uint64(1) << 61

// Run builds a machine, warms it up, measures one window and shuts the
// machine down. This is the primary entry point for experiments. A
// faulted run additionally drains the machine afterwards and checks
// the resource invariants (CheckInvariants), reporting any violation
// on the result.
//
// An open-loop workload (workload.OpenLoop) inverts the protocol: the
// cell runs to completion — the workload halts the engine once every
// generated connection is terminal — so WarmupCycles and MeasureCycles
// are ignored and ElapsedCycles is the cell's makespan.
func Run(cfg Config) *Result { return RunControlled(context.Background(), cfg, 0) }

// Measure runs the machine for the given window and returns the delta
// metrics. It may be called repeatedly for multiple windows.
func (m *Machine) Measure(window uint64) *Result {
	startCycles := uint64(m.Eng.Now())
	startBytes := m.appBytes()
	startTxns := m.transactions()
	startDrops := m.drops()
	startRexmits := m.retransmits()
	startWireDrops := m.wireDrops()
	startWireBytes := m.wireBytes()
	startOOO := m.outOfOrder()
	startDupAcks := m.dupAcks()
	startFastRexmits := m.fastRetransmits()
	startResteers := m.flowResteers()
	snap := m.Ctr.Snapshot()
	var lat0 *stats.Sketch
	if l := m.WL.Latency(); l != nil {
		lat0 = l.Clone()
	}
	idle0 := make([]uint64, len(m.K.CPUs))
	for i, c := range m.K.CPUs {
		idle0[i] = c.IdleCycles()
	}

	var series *Series
	if m.Cfg.GaugeCycles > 0 {
		series = m.startGauges(m.Cfg.GaugeCycles, m.Eng.Now()+sim.Time(window))
	}

	m.Eng.Run(m.Eng.Now() + sim.Time(window))

	elapsed := uint64(m.Eng.Now()) - startCycles
	r := &Result{
		Cfg:             m.Cfg,
		ElapsedCycles:   elapsed,
		Bytes:           m.appBytes() - startBytes,
		Transactions:    m.transactions() - startTxns,
		Drops:           m.drops() - startDrops,
		Retransmits:     m.retransmits() - startRexmits,
		WireDrops:       m.wireDrops() - startWireDrops,
		WireBytes:       m.wireBytes() - startWireBytes,
		OutOfOrder:      m.outOfOrder() - startOOO,
		DupAcks:         m.dupAcks() - startDupAcks,
		FastRetransmits: m.fastRetransmits() - startFastRexmits,
		FlowResteers:    m.flowResteers() - startResteers,
		Ctr:             m.Ctr.Diff(snap),
		Trace:           m.Rec,
		Series:          series,
	}
	if r.WireBytes > 0 {
		r.GoodputRatio = float64(r.Bytes) / float64(r.WireBytes)
	}
	if l := m.WL.Latency(); l != nil {
		d := l.Diff(lat0)
		if d.Count() > 0 {
			r.Latency = d
			r.Requests = d.Count()
			r.LatencyP50Cycles = d.Quantile(0.50)
			r.LatencyP99Cycles = d.Quantile(0.99)
			r.LatencyP999Cycles = d.Quantile(0.999)
		}
	}
	if c, ok := m.WL.(interface {
		Generated() uint64
		Abandoned() uint64
		SynDrops() uint64
	}); ok {
		r.ConnsGenerated = c.Generated()
		r.ConnsAbandoned = c.Abandoned()
		r.SynDrops = c.SynDrops()
	}
	// Flap recoveries are one-shot episodes, not a windowed rate: the
	// result carries every recovery completed by the end of this window.
	r.FlapRecoveryCycles = append([]uint64(nil), m.Faults.Recoveries()...)
	var busyTotal uint64
	for i, c := range m.K.CPUs {
		idle := c.IdleCycles() - idle0[i]
		r.IdleCycles = append(r.IdleCycles, idle)
		if idle > elapsed {
			idle = elapsed
		}
		busy := elapsed - idle
		busyTotal += busy
		u := float64(busy) / float64(elapsed)
		r.Util = append(r.Util, u)
		r.AvgUtil += u
	}
	r.AvgUtil /= float64(len(m.K.CPUs))

	clock := float64(m.Cfg.CPU.ClockHz)
	seconds := float64(elapsed) / clock
	bits := float64(r.Bytes) * 8
	if seconds > 0 {
		r.Mbps = bits / seconds / 1e6
	}
	if bits > 0 {
		r.CostGHzPerGbps = float64(busyTotal) / bits
	}
	r.Engine = m.Eng.Stats()
	return r
}

// String summarizes a result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s %6dB: %7.1f Mb/s  util=%s  cost=%.2f GHz/Gbps  txns=%d",
		r.Cfg.Mode, r.Cfg.Dir, r.Cfg.Size, r.Mbps, utilString(r.Util), r.CostGHzPerGbps, r.Transactions)
}

func utilString(us []float64) string {
	s := "["
	for i, u := range us {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.0f%%", u*100)
	}
	return s + "]"
}
