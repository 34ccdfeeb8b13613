package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ttcp"
)

// An rpc machine never quiesces (its servers ignore the stop), so
// CheckInvariants must refuse it at once instead of spending its whole
// drain budget before reporting bytes in flight.
func TestCheckInvariantsRefusesNonQuiescibleAtOnce(t *testing.T) {
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.WarmupCycles = 1_000_000
	cfg.MeasureCycles = 4_000_000
	cfg.Workload = mustWorkload(t, "rpc")
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Eng.Run(simTime(cfg.WarmupCycles))
	m.Measure(cfg.MeasureCycles)
	before, fired := m.Eng.Now(), m.Eng.Fired()
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "cannot quiesce") {
		t.Fatalf("CheckInvariants on an rpc machine = %v, want a cannot-quiesce error", err)
	}
	if m.Eng.Now() != before || m.Eng.Fired() != fired {
		t.Fatalf("refusal drained the machine: clock %d→%d, fired %d→%d", before, m.Eng.Now(), fired, m.Eng.Fired())
	}
}

// A faulted cell whose windows fit a cycle budget but whose invariant
// drain does not is an aborted run. The interrupted engine refuses to
// advance, so a drain that ignored the interrupt would never end.
func TestRunControlledBudgetBindsInvariantDrain(t *testing.T) {
	cfg := DefaultConfig(ModeNone, ttcp.TX, 65536)
	cfg.WarmupCycles = 1_000_000
	cfg.MeasureCycles = 4_000_000
	var err error
	if cfg.Faults, err = fault.Parse("loss,rate=0.01"); err != nil {
		t.Fatal(err)
	}
	if r := Run(cfg); !r.InvariantsChecked || r.InvariantViolation != "" {
		t.Fatalf("unbudgeted cell: checked=%v violation=%q", r.InvariantsChecked, r.InvariantViolation)
	}

	done := make(chan *Result, 1)
	go func() { done <- RunControlled(cfg, nil, 10_000_000) }()
	select {
	case r := <-done:
		if !r.Aborted || r.AbortReason != AbortCycleBudget {
			t.Fatalf("aborted=%v reason=%q, want a cycle-budget abort", r.Aborted, r.AbortReason)
		}
		if r.InvariantsChecked || r.InvariantViolation != "" {
			t.Fatalf("aborted drain reported an invariant verdict: checked=%v violation=%q",
				r.InvariantsChecked, r.InvariantViolation)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("invariant drain ignored the cycle budget and never ended")
	}
}
