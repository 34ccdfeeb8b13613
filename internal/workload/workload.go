// Package workload is the pluggable workload layer: what runs ON the
// assembled machine, separated from the machine itself. The paper's
// eight-process bulk ttcp experiment (§4) is one Workload among several;
// the open-loop connection-churn generator extends the characterization
// from "8 long-lived flows" to "100k short flows with tail latency" —
// the regime the paper's §8 projection (web/storage servers) actually
// lives in.
//
// Every implementation draws randomness only from the engine's seeded
// RNG and schedules only engine events, so a cell remains a pure
// function of its core.Config: bit-identical across the serial runner,
// the parallel runner and the result cache.
package workload

import (
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// Machine is the workload's view of an assembled SUT: the handles a
// workload needs to spawn processes, open or accept connections and
// account bytes, without importing the assembler (core imports this
// package, not the reverse). The assembler fills every field before
// calling Launch.
type Machine struct {
	Eng  *sim.Engine
	K    *kern.Kernel
	St   *tcp.Stack
	Plan *topo.Plan
	NICs []*netdev.NIC

	// Sockets and Clients are the pre-established connections (one per
	// planned connection) when the workload asked for PreEstablish;
	// empty for connection-churn workloads that open their own.
	Sockets []*tcp.Socket
	Clients []*tcp.Client

	// Workload knobs threaded from core.Config (the bulk workload's
	// vocabulary; other workloads read what applies to them).
	Dir  ttcp.Direction
	Size int

	// Procs is filled by workloads that spawn ttcp processes (bulk);
	// the assembler copies it back so Machine.Procs and the invariant
	// checker's quiesce protocol keep working.
	Procs []*ttcp.Proc

	// Steer, when non-nil, is the machine's flow director: workloads
	// report which task serves which connection (BindFlow/UnbindFlow)
	// so the device's receive queue can follow the process across
	// migrations. Nil under every static steering policy — the hooks
	// are free no-ops then, and launch trajectories are unchanged.
	Steer FlowSteerer
}

// FlowSteerer re-programs flow steering as serving tasks come, go and
// migrate. core's flow director implements it; workload only calls it.
type FlowSteerer interface {
	// Bind declares that task t now serves connection conn (accept, or
	// process launch for pre-established connections).
	Bind(conn int, t *kern.Task)
	// Unbind declares that t no longer serves conn (release/teardown).
	Unbind(conn int, t *kern.Task)
}

// BindFlow reports a task taking ownership of a connection to the flow
// director, if the machine has one.
func (m *Machine) BindFlow(conn int, t *kern.Task) {
	if m.Steer != nil && t != nil {
		m.Steer.Bind(conn, t)
	}
}

// UnbindFlow reports a task dropping a connection.
func (m *Machine) UnbindFlow(conn int, t *kern.Task) {
	if m.Steer != nil && t != nil {
		m.Steer.Unbind(conn, t)
	}
}

// NumCPUs reports the machine's processor count.
func (m *Machine) NumCPUs() int { return len(m.K.CPUs) }

// Workload is one runnable experiment workload.
type Workload interface {
	// Name labels the workload (diagnostics, Result rendering).
	Name() string
	// PreEstablish reports whether the assembler should pre-create one
	// established connection per planned connection (the paper's
	// long-lived-flow shape). Churn workloads return false and open
	// connections themselves.
	PreEstablish() bool
	// Launch starts the workload on the assembled machine: spawn
	// processes, register event chains. Called once, before the engine
	// first runs.
	Launch(m *Machine)
	// Bytes reports application-level goodput so far (the measurement
	// window deltas it).
	Bytes(m *Machine) uint64
	// Transactions reports completed application operations so far.
	Transactions(m *Machine) uint64
	// Latency returns the request-latency sketch, or nil if this
	// workload does not record per-request latency.
	Latency() *stats.Sketch
	// OpenLoop reports whether the workload is a run-to-completion cell
	// (a bounded population of open-loop arrivals) rather than a
	// steady-state loop measured over a window.
	OpenLoop() bool
	// Quiescible reports whether the workload supports the invariant
	// checker's stop-and-drain quiesce protocol (ttcp-style loops do).
	Quiescible() bool
}

// Build resolves a Spec into a Workload. A nil spec is the paper's
// default bulk workload.
func Build(spec *Spec) (Workload, error) {
	if spec == nil {
		return &Bulk{}, nil
	}
	s := *spec
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case KindBulk:
		return &Bulk{Alternate: s.Alternate}, nil
	case KindRPC:
		return newRPC(s), nil
	case KindOpenLoop:
		return newOpenLoop(s), nil
	}
	return nil, errUnknownKind(s.Kind)
}

// pageRound rounds a buffer size up to whole pages, like a real malloc
// of that size.
func pageRound(n int) int {
	return (n + mem.PageSize - 1) / mem.PageSize * mem.PageSize
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
