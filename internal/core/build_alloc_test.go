package core

import (
	"runtime"
	"testing"

	"repro/internal/ttcp"
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
