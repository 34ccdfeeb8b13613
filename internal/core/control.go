package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/sim"
)

// Cancel is a cooperative stop signal threaded from a serving layer down
// into the event engine. The engine polls it at ladder-bucket boundaries
// (see sim.Engine.SetInterrupt), so cancelling a run costs its owner one
// atomic store and stops the simulation within a handful of events — no
// goroutine is ever killed, the machine unwinds through its normal
// teardown. A Cancel is single-shot and must not be reused across runs:
// once set it stays set. All methods are nil-safe so plumbing that has
// no cancellation to offer can pass nil straight through.
type Cancel struct {
	flag atomic.Bool
}

// NewCancel returns a fresh, unset cancel signal.
func NewCancel() *Cancel { return &Cancel{} }

// Cancel requests the run stop at the next engine poll point. It is safe
// to call from any goroutine, repeatedly.
func (c *Cancel) Cancel() {
	if c != nil {
		c.flag.Store(true)
	}
}

// Cancelled reports whether Cancel has been called.
func (c *Cancel) Cancelled() bool { return c != nil && c.flag.Load() }

// abort reasons recorded on Result.AbortReason.
const (
	AbortCancelled   = "cancelled"
	AbortCycleBudget = "cycle budget exceeded"
)

// RunControlled is Run with a cooperative cancel signal and an optional
// simulated-cycle budget: the run aborts once cancel is set or the
// virtual clock would pass maxCycles (0 = uncapped). An aborted run
// returns immediately with Result.Aborted set and its metrics only
// partially filled — callers must treat such a Result as a failure
// signal, never as data, and the cache refuses to store it. With a nil
// cancel and no budget this is exactly Run: same machine, same schedule,
// byte-identical Result.
func RunControlled(cfg Config, cancel *Cancel, maxCycles uint64) *Result {
	if cancel == nil && maxCycles == 0 {
		return Run(cfg)
	}
	m := NewMachine(cfg)
	defer m.Shutdown()
	deadline := sim.Forever
	if maxCycles > 0 {
		deadline = sim.Time(maxCycles)
	}
	var flag *atomic.Bool
	if cancel != nil {
		flag = &cancel.flag
	}
	m.Eng.SetInterrupt(flag, deadline)

	var r *Result
	if m.WL.OpenLoop() && !cfg.SkipWorkload {
		r = m.Measure(openLoopHorizon)
	} else {
		m.Eng.Run(sim.Time(cfg.WarmupCycles))
		r = m.Measure(cfg.MeasureCycles)
	}
	if m.Eng.Interrupted() {
		return aborted(r, cancel)
	}
	// Only a run that completed its windows is worth invariant-checking;
	// this mirrors Run's faulted-run epilogue. The drain is part of the
	// run, so the cancel flag and the cycle budget bind it too.
	if !cfg.Faults.Empty() && m.WL.Quiescible() {
		err := m.CheckInvariants()
		if errors.Is(err, errDrainInterrupted) {
			return aborted(r, cancel)
		}
		r.InvariantsChecked = true
		if err != nil {
			r.InvariantViolation = err.Error()
		}
	}
	return r
}

// aborted marks r as cut short by cancel or, failing that, by the cycle
// budget.
func aborted(r *Result, cancel *Cancel) *Result {
	r.Aborted = true
	if cancel.Cancelled() {
		r.AbortReason = AbortCancelled
	} else {
		r.AbortReason = AbortCycleBudget
	}
	return r
}
