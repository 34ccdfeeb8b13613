package core

import (
	"errors"
	"fmt"
)

// errDrainInterrupted reports an invariant drain stopped by the engine's
// interrupt before the machine quiesced: the run was aborted, not found
// wrong.
var errDrainInterrupted = errors.New("core: invariant drain interrupted")

// Drain parameters for CheckInvariants: the machine gets up to
// drainBudgetCycles of extra virtual time (in drainSliceCycles steps)
// to deliver every in-flight byte — enough for several maximally
// backed-off retransmission timeouts — before a lingering queue is
// declared a violation.
const (
	drainSliceCycles  = 200_000_000    // 100 ms
	drainBudgetCycles = 40_000_000_000 // 20 s
)

// CheckInvariants stops the workload, drains the machine, and then
// proves that a (possibly heavily faulted) run left no wreckage:
//
//   - every connection quiesced — nothing in flight in either
//     direction, retransmission queues empty, socket backlogs empty,
//     NIC rings drained;
//   - every retransmission timer disarmed;
//   - byte conservation — each side's receive sequence position equals
//     the other side's send position, so every byte the application
//     believed it sent was received exactly once, in order, despite
//     drops, flaps and reordering;
//   - buffer conservation — every pool skb is back on a free list or
//     sitting in an accounted location (socket queues, receive rings),
//     and every clone is free: no leaks down any loss path.
//
// It consumes virtual time and mutates the workload (processes are
// stopped), so call it after the last measurement window. Run does so
// automatically for faulted configurations.
//
// A workload that cannot quiesce (Workload.Quiescible false) is refused
// at once rather than after the whole drain budget. A drain cut short by
// the engine's interrupt (SetInterrupt: cancel flag or cycle budget)
// returns errDrainInterrupted; the engine then refuses to advance, so
// draining on would never end.
func (m *Machine) CheckInvariants() error {
	if !m.WL.Quiescible() {
		return fmt.Errorf("core: workload %q cannot quiesce; invariants are undefined", m.WL.Name())
	}
	for _, p := range m.Procs {
		p.Stop()
	}
	for _, c := range m.Clients {
		c.StopSource()
	}
	deadline := m.Eng.Now() + drainBudgetCycles
	for m.Eng.Now() < deadline && m.stuck() != "" {
		m.Eng.Run(m.Eng.Now() + drainSliceCycles)
		if m.Eng.Interrupted() {
			return errDrainInterrupted
		}
	}
	if s := m.stuck(); s != "" {
		return fmt.Errorf("core: machine did not quiesce within %d cycles: %s", uint64(drainBudgetCycles), s)
	}

	for i, s := range m.Sockets {
		if s.RetransTimerActive() {
			return fmt.Errorf("core: conn %d retransmission timer still armed after drain", i)
		}
		c := m.Clients[i]
		if got, want := c.RcvNxt(), s.SndNxt(); got != want {
			return fmt.Errorf("core: conn %d client received through seq %d but SUT sent through %d", i, got, want)
		}
		if got, want := s.RcvNxt(), c.SndNxt(); got != want {
			return fmt.Errorf("core: conn %d SUT received through seq %d but client sent through %d", i, got, want)
		}
	}

	pool := m.St.Pool
	if err := pool.Check(); err != nil {
		return err
	}
	resident := 0
	for _, s := range m.Sockets {
		resident += s.SKBResident()
	}
	rings := 0
	for _, n := range m.NICs {
		rings += n.RxResident()
	}
	if got, want := pool.FreeSKBCount()+resident+rings, pool.NumSKBs(); got != want {
		return fmt.Errorf("core: skb leak: %d free + %d in sockets + %d in rings = %d, pool holds %d",
			pool.FreeSKBCount(), resident, rings, got, want)
	}
	if got, want := pool.FreeCloneCount(), pool.NumClones(); got != want {
		return fmt.Errorf("core: clone leak: %d of %d free after drain", got, want)
	}
	return nil
}

// stuck reports what is keeping the machine from quiescing ("" when
// quiesced): any in-flight or queued data on either side of any
// connection, frames still traversing the simulated wire or awaiting
// softirq service, armed delayed-ACK timers, NIC rings holding transmit
// work or stalled receive frames, or a processor still mid-execution.
//
// The wire and CPU checks are load-bearing, not paranoia: a go-back
// sender rewinds snd_nxt to snd_una, so both endpoints can report zero
// in-flight bytes while thousands of duplicate frames are still queued
// against the link — and a drain-slice boundary can land while a
// softirq is parked mid-free, with a buffer off every list but on no
// queue. Both states would corrupt the conservation accounting if the
// checker read it at that instant.
func (m *Machine) stuck() string {
	for i, s := range m.Sockets {
		switch {
		case s.InFlight() != 0:
			return fmt.Sprintf("conn %d: %d bytes in flight", i, s.InFlight())
		case s.RetransQLen() != 0:
			return fmt.Sprintf("conn %d: %d segments on retransmit queue", i, s.RetransQLen())
		case s.BacklogLen() != 0:
			return fmt.Sprintf("conn %d: %d packets on socket backlog", i, s.BacklogLen())
		case s.HasTail():
			return fmt.Sprintf("conn %d: Nagle tail held", i)
		case s.DelackArmed():
			return fmt.Sprintf("conn %d: delayed-ACK timer armed", i)
		}
	}
	for i, c := range m.Clients {
		switch {
		case c.InFlight() != 0:
			return fmt.Sprintf("client %d: %d bytes in flight", i, c.InFlight())
		case c.Pending() != 0:
			return fmt.Sprintf("client %d: %d frames awaiting processing", i, c.Pending())
		case c.UnsentTail() != 0:
			return fmt.Sprintf("client %d: %d bytes owed after a go-back", i, c.UnsentTail())
		case c.DelackPending():
			return fmt.Sprintf("client %d: delayed-ACK timer armed", i)
		}
	}
	for i, n := range m.NICs {
		switch {
		case n.TxResident() != 0:
			return fmt.Sprintf("nic %d: %d tx descriptors outstanding", i, n.TxResident())
		case n.StallQueued() != 0:
			return fmt.Sprintf("nic %d: %d frames held by a DMA stall", i, n.StallQueued())
		case n.WireInFlight() != 0:
			return fmt.Sprintf("nic %d: %d frames on the wire", i, n.WireInFlight())
		case n.RxPendingClean() != 0:
			return fmt.Sprintf("nic %d: %d rx descriptors awaiting softirq", i, n.RxPendingClean())
		}
	}
	for _, c := range m.K.CPUs {
		if !c.IsIdle() {
			return fmt.Sprintf("cpu %d: still executing", c.ID())
		}
	}
	return ""
}
