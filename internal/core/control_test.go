package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/ttcp"
)

// controlConfig is the smallest window that still completes both phases,
// so cancellation tests spend their time in the code path, not the sim.
func controlConfig() Config {
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.WarmupCycles = 2_000_000
	cfg.MeasureCycles = 5_000_000
	return cfg
}

// cancelled returns a context that is already done.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestRunControlledIdentityWithRun: an armed-but-idle control surface
// must be invisible — same exported bytes as plain Run.
func TestRunControlledIdentityWithRun(t *testing.T) {
	cfg := controlConfig()
	want, err := json.Marshal(Run(cfg).Export())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := json.Marshal(RunControlled(ctx, cfg, 0).Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("controlled run diverged from Run:\n%s\nvs\n%s", got, want)
	}
	// A context that can never be cancelled arms nothing: Run's path.
	got3, err := json.Marshal(RunControlled(context.Background(), cfg, 0).Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(got3) != string(want) {
		t.Fatal("uncancellable-context run diverged from Run")
	}
}

// TestRunControlledCancel: a context done before the run aborts it at
// its first poll point — the result is a failure signal, not data.
func TestRunControlledCancel(t *testing.T) {
	res := RunControlled(cancelled(), controlConfig(), 0)
	if !res.Aborted {
		t.Fatal("cancelled run did not set Aborted")
	}
	if res.AbortReason != AbortCancelled {
		t.Fatalf("AbortReason = %q, want %q", res.AbortReason, AbortCancelled)
	}
}

// TestRunControlledCycleBudget: a budget smaller than the warmup window
// aborts the run with the budget reason.
func TestRunControlledCycleBudget(t *testing.T) {
	res := RunControlled(context.Background(), controlConfig(), 1_000_000)
	if !res.Aborted {
		t.Fatal("over-budget run did not set Aborted")
	}
	if res.AbortReason != AbortCycleBudget {
		t.Fatalf("AbortReason = %q, want %q", res.AbortReason, AbortCycleBudget)
	}
}

// TestRunControlledBudgetAboveRunIsIdentity: a generous budget must not
// perturb the trajectory.
func TestRunControlledBudgetAboveRunIsIdentity(t *testing.T) {
	cfg := controlConfig()
	want, _ := json.Marshal(Run(cfg).Export())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, _ := json.Marshal(RunControlled(ctx, cfg, cfg.WarmupCycles+cfg.MeasureCycles+1_000_000_000).Export())
	if string(got) != string(want) {
		t.Fatal("budget-armed run diverged from Run")
	}
}

// TestAbortedResultNotExported: Aborted/AbortReason are internal failure
// markers and must never leak into the export schema (they would break
// byte-identity between controlled and plain runs). The schema is checked
// on a completed run — an aborted result's export is not even
// serializable (its half-filled metrics divide to NaN), which is its own
// guarantee that no caller can mistake one for data.
func TestAbortedResultNotExported(t *testing.T) {
	b, err := json.Marshal(Run(controlConfig()).Export())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k == "aborted" || k == "abort_reason" {
			t.Fatalf("abort marker %q leaked into ResultExport", k)
		}
	}
	if _, err := json.Marshal(RunControlled(cancelled(), controlConfig(), 0).Export()); err == nil {
		t.Fatal("an aborted result marshalled cleanly; expected its partial metrics to refuse serialization")
	}
}
