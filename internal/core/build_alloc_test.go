package core

import (
	"fmt"
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
// workload columns), not with events.
const maxOpenLoopCellBytes = 7 << 20

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

// Per-connection bounds on the open-loop cell's host memory, measured
// as the difference between a 2×10⁴- and a 10⁴-connection cell divided
// by 10⁴. A released connection's client is reused, so what an extra
// connection keeps is its pending give-up event and that event's
// closure, its workload record and its demux entries.
const (
	maxLivePerConn   = 160 // bytes live after the cell halts
	maxAllocPerConn  = 384 // bytes allocated
	maxMallocPerConn = 3   // objects allocated
)

// cellFootprint is what one open-loop cell cost the host heap.
type cellFootprint struct {
	alloc, mallocs, live uint64
}

// openLoopFootprint runs an open-loop cell of conns connections at
// seed 1 to completion and measures the bytes and objects it allocated
// and the heap still live after it halts, with the machine reachable.
func openLoopFootprint(t *testing.T, conns int) cellFootprint {
	t.Helper()
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.Seed = 1
	cfg.Workload = mustWorkload(t, fmt.Sprintf("openloop,conns=%d", conns))
	var before, ran, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMachine(cfg)
	r := m.Measure(openLoopHorizon)
	runtime.ReadMemStats(&ran)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	m.Shutdown()
	if r.Transactions != uint64(conns) {
		t.Fatalf("%d-connection cell completed %d connections", conns, r.Transactions)
	}
	return cellFootprint{
		alloc:   ran.TotalAlloc - before.TotalAlloc,
		mallocs: ran.Mallocs - before.Mallocs,
		live:    after.HeapAlloc - before.HeapAlloc,
	}
}

// TestOpenLoopPerConnectionFootprint holds what each extra connection
// costs the host to maxLivePerConn, maxAllocPerConn and
// maxMallocPerConn: host memory must follow the connections in flight,
// not every connection the cell has opened.
func TestOpenLoopPerConnectionFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10⁴- and a 2×10⁴-connection cell")
	}
	const base = 10_000
	small := openLoopFootprint(t, base)
	large := openLoopFootprint(t, 2*base)
	per := func(a, b uint64) float64 { return (float64(b) - float64(a)) / base }
	live, alloc, mallocs := per(small.live, large.live), per(small.alloc, large.alloc), per(small.mallocs, large.mallocs)
	t.Logf("per extra connection: %.0f B live, %.0f B allocated in %.2f objects", live, alloc, mallocs)
	if live > maxLivePerConn {
		t.Errorf("an extra connection keeps %.0f B live after the cell halts, want at most %d", live, maxLivePerConn)
	}
	if alloc > maxAllocPerConn {
		t.Errorf("an extra connection allocates %.0f B, want at most %d", alloc, maxAllocPerConn)
	}
	if mallocs > maxMallocPerConn {
		t.Errorf("an extra connection allocates %.2f objects, want at most %d", mallocs, maxMallocPerConn)
	}
}
