package kern

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

func benchKernel(b *testing.B, cpus int) (*sim.Engine, *Kernel) {
	b.Helper()
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	k := New(Config{
		Engine:  eng,
		Space:   mem.NewSpace(),
		Table:   tab,
		Ctr:     perf.NewCounters(tab, cpus),
		NumCPUs: cpus,
		CPU:     cpu.DefaultConfig(),
		Tune:    DefaultTuning(),
	})
	b.Cleanup(k.Shutdown)
	return eng, k
}

// BenchmarkTimerArmDisarm is TCP's dominant timer pattern: arm a
// retransmit deadline, then disarm it when the ACK lands before it
// fires. Near-horizon deadlines.
func BenchmarkTimerArmDisarm(b *testing.B) {
	_, k := benchKernel(b, 1)
	tm := k.NewTimer(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ModTimer(tm, sim.Time(2_000_000+i%1000))
		k.DelTimer(tm)
	}
}

// BenchmarkTimerModChurn re-arms a live timer to a sliding deadline —
// the delayed-ACK pattern — without ever disarming it.
func BenchmarkTimerModChurn(b *testing.B) {
	_, k := benchKernel(b, 1)
	tm := k.NewTimer(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ModTimer(tm, sim.Time(400_000+i%977))
	}
}

// BenchmarkTimerSpread measures churn across a large armed population —
// many flows each holding a retransmit timer — so each re-arm sifts
// through a deep heap.
func BenchmarkTimerSpread(b *testing.B) {
	_, k := benchKernel(b, 1)
	const flows = 512
	timers := make([]*Timer, flows)
	for i := range timers {
		timers[i] = k.NewTimer(nil)
		// Half near-horizon, half far beyond the tick period.
		at := sim.Time(2_000_000 + i*1000)
		if i%2 == 1 {
			at = sim.Time(1<<26 + uint64(i)*100_000)
		}
		k.ModTimer(timers[i], at)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := timers[i%flows]
		k.ModTimer(tm, sim.Time(2_000_000+i%8191))
	}
}
