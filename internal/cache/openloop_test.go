package cache

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// TestOpenLoopCellBitIdentity100k pins the ISSUE acceptance criterion
// for the hundred-thousand-connection churn cell: the same cell config
// must report bit-identical tail quantiles (p50/p99/p999) and export
// identical JSON across three execution paths —
//
//  1. serial:   a single-worker runner simulating in-process,
//  2. parallel: a four-worker runner (different goroutine, same bits),
//  3. cached:   a second cache instance reading the gob disk store
//     written by the serial leader (no re-simulation allowed).
//
// Beyond determinism, the cell itself must complete: all 100k generated
// connections terminal, none abandoned, no SYN drops at the default
// offered load.
//
// Under the race detector the cell has 10k connections: the three paths
// and their concurrency (runner workers, singleflight, disk store) are
// the same, and 100k would take ten minutes there.
func TestOpenLoopCellBitIdentity100k(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-connection cell takes ~half a minute per simulation")
	}
	conns := 100_000
	if raceEnabled {
		conns = 10_000
	}

	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	ws, err := workload.Parse(fmt.Sprintf("openloop,conns=%d", conns))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = ws
	if !Cacheable(cfg) {
		t.Fatal("open-loop cell config is not cacheable")
	}

	dir := t.TempDir()

	// Serial path; as singleflight leader it also populates the disk
	// store for the cached path below.
	cacheA := New(DefaultMaxBytes, dir)
	serial := cacheA.GetOrRun(cfg, func(c core.Config) *core.Result {
		return core.NewRunner(1).RunConfigs([]core.Config{c})[0]
	})

	// Parallel path: an independent simulation on a multi-worker runner.
	parallel := core.NewRunner(4).RunConfigs([]core.Config{cfg})[0]

	// Cached path: a fresh cache instance over the same store directory
	// must satisfy the request from disk without simulating.
	cacheB := New(DefaultMaxBytes, dir)
	resimulated := false
	cached := cacheB.GetOrRun(cfg, func(c core.Config) *core.Result {
		resimulated = true
		return core.Run(c)
	})
	if resimulated {
		t.Fatal("cached path re-simulated: disk store missed")
	}
	if cacheB.Stats().DiskHits != 1 {
		t.Fatalf("cached path took an unexpected route: %+v", cacheB.Stats())
	}

	// The cell must run to completion at the default offered load.
	if serial.ConnsGenerated != uint64(conns) || serial.Transactions != uint64(conns) {
		t.Fatalf("cell incomplete: generated=%d completed=%d abandoned=%d syndrops=%d",
			serial.ConnsGenerated, serial.Transactions, serial.ConnsAbandoned, serial.SynDrops)
	}
	if serial.ConnsAbandoned != 0 || serial.SynDrops != 0 {
		t.Fatalf("cell dropped work at default load: abandoned=%d syndrops=%d",
			serial.ConnsAbandoned, serial.SynDrops)
	}
	if serial.LatencyP50Cycles == 0 ||
		serial.LatencyP50Cycles > serial.LatencyP99Cycles ||
		serial.LatencyP99Cycles > serial.LatencyP999Cycles {
		t.Fatalf("latency quantiles disordered: p50=%d p99=%d p999=%d",
			serial.LatencyP50Cycles, serial.LatencyP99Cycles, serial.LatencyP999Cycles)
	}

	for name, r := range map[string]*core.Result{"parallel": parallel, "cached": cached} {
		if r.LatencyP50Cycles != serial.LatencyP50Cycles ||
			r.LatencyP99Cycles != serial.LatencyP99Cycles ||
			r.LatencyP999Cycles != serial.LatencyP999Cycles {
			t.Errorf("%s quantiles diverged from serial: p50 %d vs %d, p99 %d vs %d, p999 %d vs %d",
				name,
				r.LatencyP50Cycles, serial.LatencyP50Cycles,
				r.LatencyP99Cycles, serial.LatencyP99Cycles,
				r.LatencyP999Cycles, serial.LatencyP999Cycles)
		}
		js, err := serial.JSON()
		if err != nil {
			t.Fatal(err)
		}
		jr, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if js != jr {
			t.Errorf("%s path JSON diverged from serial:\nserial: %s\n%s: %s", name, js, name, jr)
		}
	}
}
