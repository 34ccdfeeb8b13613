package core

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/sim"
)

// abort reasons recorded on Result.AbortReason.
const (
	AbortCancelled   = "cancelled"
	AbortCycleBudget = "cycle budget exceeded"
)

// RunControlled is Run under the caller's context and an optional
// simulated-cycle budget: the run aborts once ctx is done or the virtual
// clock would pass maxCycles (0 = uncapped). Cancellation is
// cooperative — ctx flips a flag the engine polls (sim.Engine.
// SetInterrupt), so no goroutine is killed and the machine unwinds
// through its normal teardown within a handful of events. An aborted
// run returns with Result.Aborted set and its metrics only partially
// filled — callers must treat such a Result as a failure signal, never
// as data, and the cache refuses to store it. A context that can never
// be cancelled and no budget arm nothing: that is exactly Run.
func RunControlled(ctx context.Context, cfg Config, maxCycles uint64) *Result {
	m := NewMachine(cfg)
	defer m.Shutdown()
	var stop *atomic.Bool
	if ctx.Done() != nil {
		stop = new(atomic.Bool)
		stop.Store(ctx.Err() != nil)
		unregister := context.AfterFunc(ctx, func() { stop.Store(true) })
		defer unregister()
	}
	if stop != nil || maxCycles > 0 {
		m.Eng.SetInterrupt(stop, sim.Time(maxCycles))
	}

	var r *Result
	if m.WL.OpenLoop() {
		r = m.Measure(openLoopHorizon)
	} else {
		m.Eng.Run(sim.Time(cfg.WarmupCycles))
		r = m.Measure(cfg.MeasureCycles)
	}
	if m.Eng.Interrupted() {
		return aborted(ctx, r)
	}
	// Only a run that completed its windows is worth invariant-checking.
	// The drain is part of the run, so the context and the cycle budget
	// bind it too.
	if !cfg.Faults.Empty() && m.WL.Quiescible() {
		err := m.CheckInvariants()
		if errors.Is(err, errDrainInterrupted) {
			return aborted(ctx, r)
		}
		r.InvariantsChecked = true
		if err != nil {
			r.InvariantViolation = err.Error()
		}
	}
	return r
}

// aborted marks r as cut short by ctx or, failing that, by the cycle
// budget.
func aborted(ctx context.Context, r *Result) *Result {
	r.Aborted = true
	r.AbortReason = AbortCycleBudget
	if ctx.Err() != nil {
		r.AbortReason = AbortCancelled
	}
	return r
}
