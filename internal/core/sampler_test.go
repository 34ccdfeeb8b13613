package core

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/ttcp"
)

// The paper's methodological premise: over a long run, statistical
// sampling converges on the true distribution of where time is spent.
// The sampler's bin shares must approach the exact counters' shares.
func TestSamplerConvergesToExactDistribution(t *testing.T) {
	cfg := testConfig(ModeNone, ttcp.TX, 65536)
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Eng.Run(sim.Time(cfg.WarmupCycles))

	snap := m.Ctr.Snapshot()
	s := m.NewSampler(20_000) // 10 µs, Oprofile-ish
	m.Eng.Run(m.Eng.Now() + sim.Time(cfg.MeasureCycles))
	s.Stop()
	diff := m.Ctr.Diff(snap)

	var busy uint64
	for b := perf.Bin(0); b < perf.NumBins; b++ {
		if b == perf.BinIdle {
			continue
		}
		busy += diff.BinTotal(b, perf.Cycles)
	}
	sampled := s.BinShares()
	for _, b := range perf.StackBins() {
		exact := float64(diff.BinTotal(b, perf.Cycles)) / float64(busy)
		got := sampled[b]
		if exact < 0.02 {
			continue // tiny bins are sampling-noise dominated
		}
		if got < exact*0.6 || got > exact*1.5 {
			t.Errorf("bin %s: sampled %.1f%% vs exact %.1f%%", b, 100*got, 100*exact)
		}
	}
	if s.Total == 0 || len(s.TopSymbols(0, 3)) == 0 {
		t.Fatal("sampler collected nothing")
	}
	if s.Format() == "" {
		t.Fatal("empty format")
	}
}

// On an idle machine, nearly all samples must be idle.
func TestSamplerIdleMachine(t *testing.T) {
	m := NewMachine(testConfig(ModeNone, ttcp.TX, 65536))
	defer m.Shutdown()
	for _, p := range m.Procs {
		p.Stop()
	}
	s := m.NewSampler(20_000)
	m.Eng.Run(50_000_000)
	s.Stop()
	if s.Total == 0 {
		t.Fatal("no ticks")
	}
	if float64(s.Idle)/float64(s.Total) < 0.95 {
		t.Fatalf("idle fraction %.2f on an idle machine", float64(s.Idle)/float64(s.Total))
	}
}
