package core

import (
	"runtime"
	"testing"

	"repro/internal/ttcp"
	"repro/internal/workload"
)

// maxBuildBytes bounds the host memory one default-shape machine build
// allocates. Most of a short cell's fixed cost is this build, so storage
// sized for a ring or arena's capacity rather than its use shows here
// first.
const maxBuildBytes = 1.25 * (1 << 20)

// TestBuildAllocationBound builds and shuts down the paper's default
// TX 64 KB full-affinity machine and holds the bytes it allocates to
// maxBuildBytes.
func TestBuildAllocationBound(t *testing.T) {
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	NewMachine(cfg).Shutdown() // first build: one-time package state
	const builds = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < builds; i++ {
		NewMachine(cfg).Shutdown()
	}
	runtime.ReadMemStats(&after)
	perBuild := float64(after.TotalAlloc-before.TotalAlloc) / builds
	t.Logf("one build allocates %.0f KiB in %d objects", perBuild/1024, (after.Mallocs-before.Mallocs)/builds)
	if perBuild > maxBuildBytes {
		t.Fatalf("one build allocates %.2f MiB, want at most %.2f MiB", perBuild/(1<<20), maxBuildBytes/(1<<20))
	}
}

// maxOpenLoopCellBytes bounds the host memory one run of the measured
// open-loop cell allocates: 10⁴ connections under full affinity, seed 1,
// run to completion, build included. Its packets, interrupts and softirq
// passes are engine events whose continuations are bound once, so what
// remains scales with connections (sockets, clients, per-connection
// workload closures), not with events.
const maxOpenLoopCellBytes = 12 << 20

// TestOpenLoopCellAllocationBound runs the open-loop cell perfbench
// measures and holds the bytes it allocates to maxOpenLoopCellBytes.
func TestOpenLoopCellAllocationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10⁴-connection cell")
	}
	spec, err := workload.Parse("openloop")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.Seed = 1
	cfg.Workload = spec
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := Run(cfg)
	runtime.ReadMemStats(&after)
	if r.Aborted || r.Transactions != uint64(spec.Conns) {
		t.Fatalf("cell completed %d of %d connections (aborted %v: %s)", r.Transactions, spec.Conns, r.Aborted, r.AbortReason)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("the cell allocates %.1f MiB in %d objects over %d events",
		float64(bytes)/(1<<20), after.Mallocs-before.Mallocs, r.Engine.Fired)
	if bytes > maxOpenLoopCellBytes {
		t.Fatalf("the cell allocates %.1f MiB, want at most %.1f MiB", float64(bytes)/(1<<20), float64(maxOpenLoopCellBytes)/(1<<20))
	}
}
