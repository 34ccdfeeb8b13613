package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/ttcp"
)

// countResumes runs cfg and returns how many Resumes switched into a
// coroutine, with every Drive refused when park is set.
func countResumes(cfg core.Config, park bool) uint64 {
	var n uint64
	defer sim.SetResumeHook(func() { n++ })()
	defer sim.SetAlwaysPark(park)()
	core.Run(cfg)
	return n
}

// TestDriveCutsCoroutineSwitches pins the mechanism of driven completion
// on two quick-window 128 B cells, the per-packet points where coroutine
// handoff costs most: with contexts driving the engine, at most 80% of
// the coroutine switches remain. The parked counts are the ones the
// engine made before Drive existed; SetAlwaysPark reproduces them.
func TestDriveCutsCoroutineSwitches(t *testing.T) {
	for _, c := range []struct {
		name   string
		mode   core.Mode
		dir    ttcp.Direction
		parked uint64
	}{
		{"tx128_none", core.ModeNone, ttcp.TX, 304_395},
		{"rx128_full", core.ModeFull, ttcp.RX, 308_704},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := core.DefaultConfig(c.mode, c.dir, 128)
			cfg.SetQuickWindows()
			parked, driven := countResumes(cfg, true), countResumes(cfg, false)
			t.Logf("%d coroutine switches parked, %d driven (%.1f%%)", parked, driven, 100*float64(driven)/float64(parked))
			if parked != c.parked {
				t.Errorf("parked: %d switches, want %d as before driving", parked, c.parked)
			}
			if driven*5 > c.parked*4 {
				t.Errorf("driven: %d switches, more than 80%% of %d", driven, c.parked)
			}
		})
	}
}

// BenchmarkEnvRunActivationParked measures the activation that cannot
// complete inline: two processors' tasks run equal work items in
// lockstep, so neither one's completion is ever the engine's next event
// and every activation takes the full path — Begin and Finish, the
// completion event, the boundary, and the wait for it. The waiting task
// drives the engine (Engine.Drive) instead of parking, so the task it
// wakes is the only coroutine switched into; resumes/op counts those
// switches (one per activation when every wait parks). An op is one
// activation. It allocates nothing. It lives here, not in kern, because
// only this package's tests can count switches (SetResumeHook).
func BenchmarkEnvRunActivationParked(b *testing.B) {
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 2)
	k := kern.New(kern.Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
	})
	defer k.Shutdown()
	p := k.NewProc("bench_fn", perf.BinOther, 512)
	n := 0
	for c := 0; c < 2; c++ {
		k.Spawn("bench", c, 1<<c, func(e *kern.Env) {
			for n < b.N {
				e.Run(p, func(x *cpu.Exec) { x.Instr(100, 0, 0) })
				n++
			}
		})
	}
	var resumes uint64
	defer sim.SetResumeHook(func() { resumes++ })()
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(sim.Forever - 1)
	b.StopTimer()
	b.ReportMetric(float64(resumes)/float64(b.N), "resumes/op")
	if eng.Elapsed() != 0 {
		b.Fatalf("%d of %d activations completed inline, want all parked", eng.Elapsed(), n)
	}
}
