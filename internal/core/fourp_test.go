package core

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// The paper's §5 4P observation: "Without affinity, the bottleneck that
// CPU0 imposes on a 4P system becomes even more pronounced. CPU0 is fully
// saturated with interrupt processing, even though there are idle cycles
// available on the other processors." Affinity gains are accordingly
// larger on 4P than on 2P — though the paper attributes that to load
// imbalance rather than affinity itself, which is why its deep analysis
// sticks to 2P.
func fourPConfig(mode Mode, size int) Config {
	cfg := DefaultConfig(mode, ttcp.TX, size)
	cfg.Topology = topo.Uniform(4, 8, 1)
	cfg.WarmupCycles = 30_000_000
	cfg.MeasureCycles = 120_000_000
	return cfg
}

func TestFourPNoAffinityCPU0Bottleneck(t *testing.T) {
	r := Run(fourPConfig(ModeNone, 65536))
	// CPU0 saturated...
	if r.Util[0] < 0.95 {
		t.Errorf("CPU0 utilization %.2f, want ~1 (interrupt saturation)", r.Util[0])
	}
	// ...while other processors have idle cycles.
	var othersIdle float64
	for _, u := range r.Util[1:] {
		othersIdle += 1 - u
	}
	if othersIdle < 0.10 {
		t.Errorf("other CPUs idle total %.2f, want visible idle headroom", othersIdle)
	}
}

func TestFourPAffinityGainExceeds2P(t *testing.T) {
	gain := func(cpus int) float64 {
		base := DefaultConfig(ModeNone, ttcp.TX, 65536)
		base.Topology = topo.Uniform(cpus, 8, 1)
		base.WarmupCycles = 30_000_000
		base.MeasureCycles = 120_000_000
		full := base
		full.Mode = ModeFull
		rb := Run(base)
		rf := Run(full)
		return rf.Mbps/rb.Mbps - 1
	}
	g2 := gain(2)
	g4 := gain(4)
	if g4 <= g2 {
		t.Errorf("4P gain %.1f%% not above 2P gain %.1f%% (paper §5)", 100*g4, 100*g2)
	}
}

func TestFourPFullAffinitySpreadsInterrupts(t *testing.T) {
	r := Run(fourPConfig(ModeFull, 65536))
	// With 8 NICs over 4 CPUs, each CPU serves 2 NICs' interrupts.
	for cpuID := 0; cpuID < 4; cpuID++ {
		var irqs uint64
		for _, v := range Vectors {
			sym := r.Ctr.Table().Lookup(handlerName(v))
			irqs += r.Ctr.Get(cpuID, sym, perf.IRQsReceived)
		}
		if irqs == 0 {
			t.Errorf("CPU%d received no device interrupts under full affinity", cpuID)
		}
	}
}
