package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// settleGoroutines fails the test unless the goroutine count falls back
// to base: every coroutine of a shut-down machine must be reaped.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a machine leaked coroutines", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMachineShutdownLeavesNoGoroutines runs a short cell on a machine
// and shuts it down.
func TestMachineShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := controlConfig()
	m := NewMachine(cfg)
	m.Eng.Run(sim.Time(cfg.WarmupCycles))
	m.Measure(cfg.MeasureCycles)
	if runtime.NumGoroutine() <= base {
		t.Fatal("no coroutine goroutines alive during the cell")
	}
	m.Shutdown()
	settleGoroutines(t, base)
}

// TestRunControlledCancelMidCellLeavesNoGoroutines cancels a cell that
// cannot finish on its own while it runs.
func TestRunControlledCancelMidCellLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := controlConfig()
	cfg.MeasureCycles = 1 << 50
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res := RunControlled(ctx, cfg, 0)
	if !res.Aborted || res.AbortReason != AbortCancelled {
		t.Fatalf("aborted=%v reason=%q, want a cancelled run", res.Aborted, res.AbortReason)
	}
	settleGoroutines(t, base)
}
