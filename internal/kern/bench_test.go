package kern

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// BenchmarkEnvRun measures one simulated work item end to end: exec cost
// computation, event scheduling, boundary processing and coroutine
// handoff — the simulator's inner loop.
func BenchmarkEnvRun(b *testing.B) {
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 1)
	k := New(Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 1, CPU: cpu.DefaultConfig(), Tune: DefaultTuning(),
	})
	defer k.Shutdown()
	p := k.NewProc("bench_fn", perf.BinOther, 512)
	buf := k.Space.AllocPage(4096, "buf")
	n := 0
	k.Spawn("bench", 0, 0, func(e *Env) {
		for n < b.N {
			e.Run(p, func(x *cpu.Exec) { x.Instr(200, 0.15, 0.01).Load(buf, 256) })
			n++
		}
	})
	b.ResetTimer()
	eng.Run(sim.Forever - 1)
}

// BenchmarkSpinLockUncontended measures the lock fast path.
func BenchmarkSpinLockUncontended(b *testing.B) {
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 1)
	k := New(Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 1, CPU: cpu.DefaultConfig(), Tune: DefaultTuning(),
	})
	defer k.Shutdown()
	l := k.NewSpinLock("bench")
	n := 0
	k.Spawn("bench", 0, 0, func(e *Env) {
		for n < b.N {
			l.Lock(e)
			l.Unlock(e)
			n++
		}
	})
	b.ResetTimer()
	eng.Run(sim.Forever - 1)
}

// BenchmarkEnvRunActivation measures the activation machinery alone: an
// empty work item with no interrupt pending on a machine with nothing
// else to do, so each op is Begin and Finish and an inline completion
// (Engine.Elapse) — no event is queued and no coroutine switches. It
// allocates nothing.
func BenchmarkEnvRunActivation(b *testing.B) {
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 1)
	k := New(Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 1, CPU: cpu.DefaultConfig(), Tune: DefaultTuning(),
	})
	defer k.Shutdown()
	p := k.NewProc("bench_fn", perf.BinOther, 512)
	n := 0
	k.Spawn("bench", 0, 0, func(e *Env) {
		for n < b.N {
			e.Run(p, nil)
			n++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(sim.Forever - 1)
}

// BenchmarkEnvRunActivationParked measures the parked activation: two
// processors' tasks run equal work items in lockstep, so each one's
// completion is never the engine's next event and every activation
// takes the full path — Begin and Finish, the completion event, the
// boundary and two coroutine switches. An op is one activation. It
// allocates nothing.
func BenchmarkEnvRunActivationParked(b *testing.B) {
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 2)
	k := New(Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: DefaultTuning(),
	})
	defer k.Shutdown()
	p := k.NewProc("bench_fn", perf.BinOther, 512)
	n := 0
	for c := 0; c < 2; c++ {
		k.Spawn("bench", c, 1<<c, func(e *Env) {
			for n < b.N {
				e.Run(p, func(x *cpu.Exec) { x.Instr(100, 0, 0) })
				n++
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(sim.Forever - 1)
	b.StopTimer()
	if eng.Elapsed() != 0 {
		b.Fatalf("%d of %d activations completed inline, want all parked", eng.Elapsed(), n)
	}
}
