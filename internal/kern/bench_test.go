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
// empty work item with no interrupt pending, so each op is Begin and
// Finish, the completion event, the boundary and two coroutine switches.
// It allocates nothing.
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
