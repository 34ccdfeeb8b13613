// Package core assembles the paper's experiment: the 2-processor SUT
// with eight gigabit NICs, eight connections and eight ttcp processes,
// run under one of the four affinity modes, measured over a steady-state
// window, and analyzed into the paper's tables and figures. The machine
// shape and the placement of work onto it come from internal/topo: the
// paper's 2P × 8NIC box is just the default Topology, and each affinity
// mode is a PlacementPolicy over it, so arbitrary CPUs × NICs × queues
// shapes run through the same assembly.
package core

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// Mode is one of the paper's four affinity modes (§4).
type Mode int

const (
	// ModeNone: interrupts default to CPU0, OS-based scheduling.
	ModeNone Mode = iota
	// ModeProc: processes pinned 4/4 across CPUs, interrupts on CPU0.
	ModeProc
	// ModeIRQ: interrupts pinned 4/4 across CPUs, processes free.
	ModeIRQ
	// ModeFull: each process pinned to the CPU serving its NIC's
	// interrupts.
	ModeFull
	// ModePartition is the §7 related-work approach (AsyMOS [17],
	// ETA [19]): interrupt and softirq processing confined to CPU0,
	// application processes confined to the remaining processors —
	// a hard partition rather than per-flow alignment. Not one of the
	// paper's four measured modes; provided as an extension.
	ModePartition

	// NumModes counts the affinity modes.
	NumModes
)

var modeNames = [NumModes]string{"No Aff", "Proc Aff", "IRQ Aff", "Full Aff", "Partition"}

// String names the mode as the paper's figures do.
func (m Mode) String() string {
	if m < 0 || m >= NumModes {
		return fmt.Sprintf("mode(%d)", int(m))
	}
	return modeNames[m]
}

// Modes lists the paper's four modes in its order. ModePartition is an
// extension and is not included; see AllModes.
func Modes() []Mode { return []Mode{ModeNone, ModeProc, ModeIRQ, ModeFull} }

// AllModes lists every supported mode, including the partition extension.
func AllModes() []Mode {
	return []Mode{ModeNone, ModeProc, ModeIRQ, ModeFull, ModePartition}
}

// PolicyForMode maps an affinity mode to its placement policy. Modes are
// the paper's vocabulary; policies are the general mechanism (and include
// shapes the modes cannot express, e.g. topo.RSS).
func PolicyForMode(m Mode) topo.PlacementPolicy {
	switch m {
	case ModeProc:
		return topo.Process{}
	case ModeIRQ:
		return topo.IRQ{}
	case ModeFull:
		return topo.Full{}
	case ModePartition:
		return topo.Partition{}
	default:
		return topo.None{}
	}
}

// Vectors are the eight NIC interrupt lines of the paper's Table 4.
// Larger shapes allocate further vectors dynamically (topo.VectorAllocator);
// this list is kept for the paper's numbering and for tests.
var Vectors = topo.PaperVectors

// Sizes is the paper's transaction-size sweep (Figures 3 and 4).
var Sizes = []int{128, 256, 1024, 4096, 8192, 16384, 65536}

// Config describes one experimental run.
type Config struct {
	Mode Mode
	Dir  ttcp.Direction
	// Size is the ttcp transaction size in bytes.
	Size int
	// Topology is the machine shape: CPU count, NUMA-ish domains,
	// multi-queue NICs and connection count. DefaultConfig sets the
	// paper's 2 CPUs × 8 single-queue NICs (topo.Paper).
	Topology topo.Topology
	// Policy, when non-nil, overrides the placement policy implied by
	// Mode (e.g. topo.RSS, topo.Rotate for the §7 rotating interrupt
	// delivery, or a custom implementation).
	Policy topo.PlacementPolicy
	// Seed drives all simulation randomness.
	Seed uint64
	// WarmupCycles run before measurement (cache/TLB warmup, window
	// ramp); MeasureCycles is the measured steady-state interval.
	WarmupCycles, MeasureCycles uint64
	// Trace, when non-nil, attaches a timeline recorder to the machine;
	// the recorder surfaces on Machine.Rec and Result.Trace. Recording is
	// passive: a traced run follows the exact trajectory of an untraced
	// one.
	Trace *trace.Config
	// GaugeCycles, when non-zero, samples periodic gauges (per-CPU
	// runqueue depth and utilization, achieved Mbps, device-interrupt
	// rate) every GaugeCycles during Measure into Result.Series.
	GaugeCycles uint64
	// Faults is the deterministic fault schedule injected into the run
	// (link flaps, burst loss, wire delay, DMA stalls, interrupt
	// storms). Nil or empty means the clean baseline: nothing is
	// installed and the run is byte-identical to one before the fault
	// subsystem existed. Loss and fault behaviour flows ONLY through
	// this field, so the result cache's fingerprint always sees it.
	Faults *fault.Schedule

	// Coalesce selects the NICs' interrupt-coalescing model (parse one
	// with netdev.ParseCoalesce, or ApplySpecs). Nil is the legacy fixed
	// per-IRQ throttle the devices always had, byte-identical to a run
	// before the model was configurable. Coalescing behaviour flows ONLY through this field,
	// so the result cache's fingerprint always sees it.
	Coalesce *netdev.CoalesceConfig

	// Workload selects what runs on the machine (parse one with
	// workload.Parse, or ApplySpecs). Nil is the paper's bulk ttcp workload and is
	// byte-identical to a run before the workload layer existed. The
	// rpc kind replaces the bulk processes with closed-loop
	// request/response servers; the openloop kind turns the run into a
	// connection-churn cell that opens, serves and closes Spec.Conns
	// connections and runs to completion (Warmup/MeasureCycles are
	// ignored), reporting tail latency. Workload behaviour flows ONLY
	// through this field, so the result cache's fingerprint always
	// sees it.
	Workload *workload.Spec

	CPU  cpu.Config
	Tune kern.Tuning
	TCP  tcp.Config
}

// DefaultConfig returns the paper's machine at one operating point.
func DefaultConfig(mode Mode, dir ttcp.Direction, size int) Config {
	return Config{
		Mode:          mode,
		Dir:           dir,
		Size:          size,
		Topology:      topo.Paper(),
		Seed:          1,
		WarmupCycles:  60_000_000,  // 30 ms
		MeasureCycles: 240_000_000, // 120 ms (many scheduler quanta)
		CPU:           cpu.DefaultConfig(),
		Tune:          kern.DefaultTuning(),
		TCP:           tcp.DefaultConfig(),
	}
}

// SetQuickWindows shrinks the warm-up and measurement windows to the
// figure generator's -quick setting: 15 ms + 50 ms instead of the
// default 30 ms + 120 ms.
func (c *Config) SetQuickWindows() {
	c.WarmupCycles = 30_000_000
	c.MeasureCycles = 100_000_000
}

// PlanFor computes the placement plan a config implies without building
// the machine — for validating or inspecting placement up front. It is
// the only shape gate: impossible topologies (no CPUs, more queues than
// allocatable interrupt vectors, malformed domains) surface here as
// errors rather than mid-assembly.
func PlanFor(cfg Config) (*topo.Plan, error) {
	pol := cfg.Policy
	if pol == nil {
		pol = PolicyForMode(cfg.Mode)
	}
	return pol.Place(cfg.Topology)
}

// Machine is an assembled SUT plus its clients and workload.
type Machine struct {
	Cfg Config
	// Topo is the resolved machine shape; Plan the placement applied to
	// it (what the seed computed inline from mode switches).
	Topo topo.Topology
	Plan *topo.Plan
	Eng  *sim.Engine
	Tab  *perf.SymbolTable
	Ctr  *perf.Counters
	K    *kern.Kernel
	St   *tcp.Stack
	// Rec is the timeline recorder (nil unless Config.Trace was set).
	Rec     *trace.Recorder
	NICs    []*netdev.NIC
	Sockets []*tcp.Socket
	Clients []*tcp.Client
	Procs   []*ttcp.Proc
	// Faults is the installed fault injector (nil for a clean run).
	Faults *fault.Injector
	// WL is the workload running on the machine (resolved from
	// Config.Workload; the bulk ttcp workload by default), and view the
	// machine handles it was launched with.
	WL   workload.Workload
	view *workload.Machine
	// fd is the flow director (nil unless Plan.FlowDirector).
	fd *flowDirector
}

// NewMachine builds the SUT: kernel, stack, NICs, connections and ttcp
// processes, with the placement plan applied (IRQ smp_affinity masks,
// process affinity masks, RSS flow steering).
func NewMachine(cfg Config) *Machine {
	plan, err := PlanFor(cfg)
	if err != nil {
		panic("core: " + err.Error())
	}
	wl, err := workload.Build(cfg.Workload)
	if err != nil {
		panic("core: " + err.Error())
	}
	t := plan.Topo
	eng := sim.NewEngine(cfg.Seed)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, t.NumCPUs)
	var rec *trace.Recorder
	if cfg.Trace != nil {
		rec = trace.NewRecorder(*cfg.Trace)
	}
	k := kern.New(kern.Config{
		Engine:  eng,
		Space:   mem.NewSpace(),
		Table:   tab,
		Ctr:     ctr,
		NumCPUs: t.NumCPUs,
		CPU:     cfg.CPU,
		Tune:    cfg.Tune,
		Trace:   rec,
	})
	st := tcp.New(k, cfg.TCP)
	m := &Machine{Cfg: cfg, Topo: t, Plan: plan, Eng: eng, Tab: tab, Ctr: ctr, K: k, St: st, Rec: rec, WL: wl}

	conns := t.NumConns()
	if wl.PreEstablish() {
		m.Sockets = make([]*tcp.Socket, conns)
		m.Clients = make([]*tcp.Client, conns)
	}
	for n := range t.NICs {
		nic := st.AddNICWithConfig(NICConfigFor(plan, cfg.Coalesce, n))
		m.NICs = append(m.NICs, nic)

		// This NIC's connections, in ascending connection order (the
		// paper's shape pairs connection i with NIC i). Churn workloads
		// open their own connections instead.
		if wl.PreEstablish() {
			for i := n; i < conns; i += len(t.NICs) {
				s, c := st.NewConn(i, nic)
				m.Sockets[i] = s
				m.Clients[i] = c
				if q := plan.FlowQueues[i]; q >= 0 && nic.Queues() > 1 {
					nic.SteerFlow(i, q)
				}
			}
		}

		// Interrupt affinity from the plan (the paper's Figure 2 split
		// under the irq/full policies; per-queue masks under RSS).
		// Mask 0 keeps the default all-CPUs mask, which delivers to CPU0.
		for q, mask := range plan.IRQMasks[n] {
			if mask != 0 {
				if err := k.APIC.SetAffinity(plan.QueueVectors[n][q], mask); err != nil {
					panic(err)
				}
			}
		}
	}
	if plan.RotateIRQs {
		k.APIC.SetPolicy(apic.PolicyRotate)
	}

	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(len(t.NICs), t.NumCPUs, cfg.WarmupCycles+cfg.MeasureCycles); err != nil {
			panic("core: " + err.Error())
		}
		m.Faults = fault.Attach(cfg.Faults, eng, rec, m.NICs, k.APIC)
	}

	m.view = &workload.Machine{
		Eng:     eng,
		K:       k,
		St:      st,
		Plan:    plan,
		NICs:    m.NICs,
		Sockets: m.Sockets,
		Clients: m.Clients,
		Dir:     cfg.Dir,
		Size:    cfg.Size,
	}
	if plan.FlowDirector {
		m.fd = newFlowDirector(plan, m.NICs, t.NumCPUs)
		k.OnMigrate = m.fd.taskMigrated
		m.view.Steer = m.fd
	}
	wl.Launch(m.view)
	m.Procs = m.view.Procs
	k.StartTicks()
	return m
}

// NICConfigFor returns the device configuration NewMachine builds for
// NIC n of the plan under the given coalescing model (nil = legacy).
// Exported so the cache fingerprint can hash exactly the per-device
// config (ring sizes, vectors, coalescing) a run will use,
// rather than re-deriving it.
func NICConfigFor(plan *topo.Plan, coalesce *netdev.CoalesceConfig, n int) netdev.NICConfig {
	t := plan.Topo
	ncfg := netdev.DefaultNICConfig(plan.QueueVectors[n][0])
	if t.NICs[n].LinkBps != 0 {
		ncfg.LinkBps = t.NICs[n].LinkBps
	}
	if t.QueuesOf(n) > 1 {
		ncfg.QueueVectors = plan.QueueVectors[n]
	}
	if coalesce != nil {
		ncfg.Coalesce = *coalesce
	}
	return ncfg
}

// AffinityMaskFor returns the process affinity mask the machine's plan
// assigns to the process serving connection i (0 = unrestricted).
// Custom workloads use it to honour the configured placement.
func (m *Machine) AffinityMaskFor(i int) uint32 { return m.Plan.ProcMasks[i] }

// Shutdown reaps every coroutine; call when done with the machine.
func (m *Machine) Shutdown() { m.K.Shutdown() }

// appBytes reports application-level goodput so far, as the workload
// defines it: for bulk ttcp, bytes the clients received (TX) or bytes
// the SUT's readers consumed (RX).
func (m *Machine) appBytes() uint64 { return m.WL.Bytes(m.view) }

// transactions reports completed application operations so far, as the
// workload defines them.
func (m *Machine) transactions() uint64 { return m.WL.Transactions(m.view) }

func (m *Machine) drops() uint64 {
	var total uint64
	for _, n := range m.NICs {
		total += n.RxDropped
	}
	return total
}

// retransmits sums TCP retransmissions on both ends: SUT sockets (TX
// recovery) and the far-end clients (RX recovery), over live and
// released (churned) connections alike.
func (m *Machine) retransmits() uint64 {
	return m.St.SocketRetransmits() + m.St.ClientRetransmits()
}

// outOfOrder sums out-of-order receive drops on both ends of every
// connection, live or churned: the go-back-N receivers drop any segment
// that is not the next expected one, so a nonzero count means frames of
// one flow were serviced out of order (the flow-director re-steering
// pathology) or lost on the wire.
func (m *Machine) outOfOrder() uint64 {
	return m.St.SocketOutOfOrderDrops() + m.St.ClientOutOfOrder()
}

// dupAcks sums duplicate acknowledgments sent by both ends.
func (m *Machine) dupAcks() uint64 {
	return m.St.SocketDupAcks() + m.St.ClientDupAcks()
}

// fastRetransmits sums dup-ACK-triggered (as opposed to timeout-driven)
// retransmission episodes on both ends.
func (m *Machine) fastRetransmits() uint64 {
	return m.St.SocketFastRetransmits() + m.St.ClientFastRetransmits()
}

// flowResteers reports queue re-programs the flow director issued on
// task migrations (0 without one).
func (m *Machine) flowResteers() uint64 {
	if m.fd == nil {
		return 0
	}
	return m.fd.resteers
}

// wireDrops sums frames lost on the wire: random/burst loss plus
// frames that hit a downed link.
func (m *Machine) wireDrops() uint64 {
	var total uint64
	for _, n := range m.NICs {
		total += n.WireDrops + n.LinkDownDrops
	}
	return total
}

// wireBytes is the raw byte volume the SUT serialized in the workload
// direction — retransmissions included — against which goodput is
// compared.
func (m *Machine) wireBytes() uint64 {
	var total uint64
	for _, n := range m.NICs {
		if m.Cfg.Dir == ttcp.TX {
			total += n.TxBytes
		} else {
			total += n.RxBytes
		}
	}
	return total
}
