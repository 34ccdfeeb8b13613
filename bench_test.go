// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's experiment index). Each
// benchmark runs the simulation at the relevant operating point and
// reports the paper's metrics through testing.B custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports. Absolute values are the
// simulator's; EXPERIMENTS.md records the paper-vs-measured comparison.
package repro

import (
	"fmt"
	"testing"

	"repro/affinity"
	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/topo"
)

type simTime = sim.Time

// benchConfig uses a reduced steady-state window so the whole harness
// completes in minutes; the reported metrics match the full windows to
// within a few percent.
func benchConfig(mode affinity.Mode, dir affinity.Direction, size int) affinity.Config {
	cfg := affinity.DefaultConfig(mode, dir, size)
	cfg.WarmupCycles = 30_000_000
	cfg.MeasureCycles = 100_000_000
	return cfg
}

func runOnce(b *testing.B, cfg affinity.Config) *affinity.Result {
	b.Helper()
	var r *affinity.Result
	for i := 0; i < b.N; i++ {
		r = affinity.Run(cfg)
	}
	return r
}

// --- Figure 3: bandwidth and CPU utilization per mode and size ---

func BenchmarkFig3_TX(b *testing.B) { benchFig3(b, affinity.TX) }
func BenchmarkFig3_RX(b *testing.B) { benchFig3(b, affinity.RX) }

func benchFig3(b *testing.B, dir affinity.Direction) {
	for _, size := range []int{128, 1024, 8192, 65536} {
		for _, mode := range affinity.Modes() {
			name := fmt.Sprintf("%s/%dB", mode, size)
			b.Run(name, func(b *testing.B) {
				r := runOnce(b, benchConfig(mode, dir, size))
				b.ReportMetric(r.Mbps, "Mbps")
				b.ReportMetric(100*r.AvgUtil, "%CPU")
			})
		}
	}
}

// --- Figure 4: processing cost in GHz/Gbps per mode and size ---

func BenchmarkFig4_TX(b *testing.B) { benchFig4(b, affinity.TX) }
func BenchmarkFig4_RX(b *testing.B) { benchFig4(b, affinity.RX) }

func benchFig4(b *testing.B, dir affinity.Direction) {
	for _, size := range []int{128, 1024, 8192, 65536} {
		for _, mode := range affinity.Modes() {
			name := fmt.Sprintf("%s/%dB", mode, size)
			b.Run(name, func(b *testing.B) {
				r := runOnce(b, benchConfig(mode, dir, size))
				b.ReportMetric(r.CostGHzPerGbps, "GHz/Gbps")
			})
		}
	}
}

// --- Host parallelism: serial vs parallel sweep execution ---

// sweepBench runs a reduced Figure 3/4 sweep (2 sizes × 4 modes = 8
// cells) through an explicit runner, so the serial/parallel pair
// isolates the worker pool's wall-clock effect. Results are bit-identical
// across the pair; only the elapsed time differs.
func sweepBench(b *testing.B, workers int) {
	base := benchConfig(affinity.ModeNone, affinity.TX, 128)
	runner := affinity.NewRunner(workers)
	var sw affinity.Sweep
	for i := 0; i < b.N; i++ {
		sw = runner.RunSweep(base, affinity.TX, []int{128, 65536}, affinity.Modes())
	}
	b.ReportMetric(float64(len(sw.Points)), "cells")
}

func BenchmarkSweepSerial(b *testing.B)   { sweepBench(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { sweepBench(b, 0) }

// --- Table 1: baseline bin characterization at the extreme points ---

func BenchmarkTable1(b *testing.B) {
	for _, pt := range core.ExtremePoints() {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			name := fmt.Sprintf("%s_%dB/%s", pt.Dir, pt.Size, mode)
			b.Run(name, func(b *testing.B) {
				r := runOnce(b, benchConfig(mode, pt.Dir, pt.Size))
				tab := affinity.BaselineTable(r)
				b.ReportMetric(tab.Overall.CPI, "CPI")
				b.ReportMetric(1000*tab.Overall.MPI, "MPIx1e-3")
				b.ReportMetric(100*tab.Overall.PctBranches, "%branches")
			})
		}
	}
}

// --- Table 2: spinlock behaviour ---

func BenchmarkTable2(b *testing.B) {
	for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
		b.Run(mode.String(), func(b *testing.B) {
			var lb core.LockBehaviour
			for i := 0; i < b.N; i++ {
				lb = core.LockStats(affinity.Run(benchConfig(mode, affinity.TX, 65536)))
			}
			b.ReportMetric(float64(lb.Branches), "lock-branches")
			b.ReportMetric(100*lb.MispredictRatio, "%mispredict")
			b.ReportMetric(float64(lb.SpinCycles), "spin-cycles")
		})
	}
}

// --- Figure 5: performance impact indicators ---

func BenchmarkFig5(b *testing.B) {
	for _, pt := range core.ExtremePoints() {
		for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
			name := fmt.Sprintf("%s_%dB/%s", pt.Dir, pt.Size, mode)
			b.Run(name, func(b *testing.B) {
				r := runOnce(b, benchConfig(mode, pt.Dir, pt.Size))
				for _, s := range affinity.Indicators(r) {
					switch s.Event {
					case perf.MachineClears:
						b.ReportMetric(100*s.Share, "%clears")
					case perf.LLCMisses:
						b.ReportMetric(100*s.Share, "%llc")
					}
				}
			})
		}
	}
}

// --- Table 3: per-bin improvements no affinity -> full affinity ---

func BenchmarkTable3(b *testing.B) {
	for _, pt := range core.ExtremePoints() {
		name := fmt.Sprintf("%s_%dB", pt.Dir, pt.Size)
		b.Run(name, func(b *testing.B) {
			var cmp *affinity.Comparison
			for i := 0; i < b.N; i++ {
				base := affinity.Run(benchConfig(affinity.ModeNone, pt.Dir, pt.Size))
				full := affinity.Run(benchConfig(affinity.ModeFull, pt.Dir, pt.Size))
				cmp = affinity.Compare(base, full)
			}
			b.ReportMetric(100*cmp.OverallCycles, "%cycles-imp")
			b.ReportMetric(100*cmp.OverallLLC, "%llc-imp")
			b.ReportMetric(100*cmp.OverallClears, "%clears-imp")
		})
	}
}

// --- Table 4: machine-clear symbol distribution across CPUs ---

func BenchmarkTable4(b *testing.B) {
	for _, mode := range []affinity.Mode{affinity.ModeNone, affinity.ModeFull} {
		b.Run(mode.String(), func(b *testing.B) {
			var r *affinity.Result
			for i := 0; i < b.N; i++ {
				r = affinity.Run(benchConfig(mode, affinity.TX, 128))
			}
			rows := affinity.TopClearSymbols(r, 8)
			for cpu, list := range rows {
				var total uint64
				for _, s := range list {
					total += s.Count
				}
				b.ReportMetric(float64(total), fmt.Sprintf("cpu%d-top-clears", cpu))
			}
		})
	}
}

// --- Table 5: rank correlation of improvements ---

func BenchmarkTable5(b *testing.B) {
	for _, pt := range core.ExtremePoints() {
		name := fmt.Sprintf("%s_%dB", pt.Dir, pt.Size)
		b.Run(name, func(b *testing.B) {
			var cmp *affinity.Comparison
			for i := 0; i < b.N; i++ {
				base := affinity.Run(benchConfig(affinity.ModeNone, pt.Dir, pt.Size))
				full := affinity.Run(benchConfig(affinity.ModeFull, pt.Dir, pt.Size))
				cmp = affinity.Compare(base, full)
			}
			b.ReportMetric(cmp.CorrLLC, "rho-llc")
			b.ReportMetric(cmp.CorrClears, "rho-clears")
			b.ReportMetric(cmp.CorrCritical, "critical")
		})
	}
}

// --- Ablations (DESIGN.md §5) ---

// Ablation 1: the affinity ordering is invariant under the machine-clear
// penalty (the first-order cost model's most uncertain constant).
func BenchmarkAblation_PenaltyTable(b *testing.B) {
	for _, pen := range []uint64{60, 120, 250} {
		b.Run(fmt.Sprintf("clear=%d", pen), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				base := benchConfig(affinity.ModeNone, affinity.TX, 65536)
				base.CPU.Penalty.MachineClear = pen
				full := base
				full.Mode = affinity.ModeFull
				rb := affinity.Run(base)
				rf := affinity.Run(full)
				gain = rf.Mbps/rb.Mbps - 1
			}
			b.ReportMetric(100*gain, "%fullaff-gain")
		})
	}
}

// Ablation 2: disable interrupt-induced machine clears entirely; the
// throughput ordering survives (cache effects alone), the clear-based
// attribution disappears.
func BenchmarkAblation_NoIPIClears(b *testing.B) {
	for _, off := range []bool{false, true} {
		name := "clears-on"
		if off {
			name = "clears-off"
		}
		b.Run(name, func(b *testing.B) {
			var gain, clears float64
			for i := 0; i < b.N; i++ {
				base := benchConfig(affinity.ModeNone, affinity.TX, 65536)
				if off {
					base.Tune.ClearsPerIPI = 0
					base.Tune.ClearsPerDeviceIRQ = 0
					base.Tune.ClearsPerSwitch = 0
					base.CPU.Penalty.RemoteClearPeriod = 0
				}
				full := base
				full.Mode = affinity.ModeFull
				rb := affinity.Run(base)
				rf := affinity.Run(full)
				gain = rf.Mbps/rb.Mbps - 1
				clears = float64(rb.Ctr.Total(perf.MachineClears))
			}
			b.ReportMetric(100*gain, "%fullaff-gain")
			b.ReportMetric(clears, "clears")
		})
	}
}

// Ablation 3: disable the scheduler's wake-to-last-CPU preference; the
// indirect process affinity that interrupt-only affinity relies on (§5)
// weakens.
func BenchmarkAblation_NoWakeAffinity(b *testing.B) {
	for _, wake := range []bool{true, false} {
		name := "wake-affinity-on"
		if !wake {
			name = "wake-affinity-off"
		}
		b.Run(name, func(b *testing.B) {
			var irqGain float64
			for i := 0; i < b.N; i++ {
				base := benchConfig(affinity.ModeNone, affinity.TX, 65536)
				base.Tune.WakeAffinity = wake
				irq := base
				irq.Mode = affinity.ModeIRQ
				rb := affinity.Run(base)
				ri := affinity.Run(irq)
				irqGain = ri.Mbps/rb.Mbps - 1
			}
			b.ReportMetric(100*irqGain, "%irqaff-gain")
		})
	}
}

// Ablation 4: the Linux-2.6 integer receive copy [1] versus 2.4's rep-mov
// copy: RX copy CPI falls.
func BenchmarkAblation_IntCopyRX(b *testing.B) {
	for _, intCopy := range []bool{false, true} {
		name := "repmov-2.4"
		if intCopy {
			name = "intcopy-2.6"
		}
		b.Run(name, func(b *testing.B) {
			var cpi, mbps float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(affinity.ModeFull, affinity.RX, 65536)
				cfg.TCP.RxIntCopy = intCopy
				r := affinity.Run(cfg)
				mbps = r.Mbps
				for _, row := range affinity.BaselineTable(r).Rows {
					if row.Bin == perf.BinCopies {
						cpi = row.CPI
					}
				}
			}
			b.ReportMetric(cpi, "copy-CPI")
			b.ReportMetric(mbps, "Mbps")
		})
	}
}

// Ablation 5: chipset transmit-DMA snoop behaviour: without
// invalidate-on-read, transmit buffers stay warm and the copies bin
// becomes much cheaper than the paper measured.
func BenchmarkAblation_DMAReadInvalidate(b *testing.B) {
	for _, inval := range []bool{true, false} {
		name := "invalidate"
		if !inval {
			name = "keep-copies"
		}
		b.Run(name, func(b *testing.B) {
			var mpi float64
			for i := 0; i < b.N; i++ {
				cfg := benchConfig(affinity.ModeFull, affinity.TX, 65536)
				cfg.Tune.DMAReadInvalidates = inval
				r := affinity.Run(cfg)
				for _, row := range affinity.BaselineTable(r).Rows {
					if row.Bin == perf.BinCopies {
						mpi = 1000 * row.MPI
					}
				}
			}
			b.ReportMetric(mpi, "copy-MPIx1e-3")
		})
	}
}

// Ablation 6: the 2.6-style rotating interrupt distribution of §7: it
// relieves the CPU0 bottleneck without pinning, landing between no
// affinity and static IRQ affinity.
func BenchmarkAblation_RotateIRQ(b *testing.B) {
	for _, rotate := range []bool{false, true} {
		name := "static-cpu0"
		if rotate {
			name = "rotate"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig(affinity.ModeNone, affinity.TX, 65536)
			if rotate {
				cfg.Policy = topo.Rotate{}
			}
			r := runOnce(b, cfg)
			b.ReportMetric(r.Mbps, "Mbps")
			b.ReportMetric(r.CostGHzPerGbps, "GHz/Gbps")
		})
	}
}

// Ablation 7: interrupt coalescing. The paper-era driver interrupted
// per packet; modern throttling (wider windows) cuts interrupt load and
// machine clears, shrinking — but not erasing — the affinity gap.
func BenchmarkAblation_Coalescing(b *testing.B) {
	for _, window := range []uint64{2_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("window=%dus", window/2000), func(b *testing.B) {
			var gain, irqs float64
			for i := 0; i < b.N; i++ {
				mk := func(mode affinity.Mode) *affinity.Result {
					cfg := benchConfig(mode, affinity.TX, 65536)
					m := affinity.NewMachine(cfg)
					defer m.Shutdown()
					// Rebuild is cheaper than plumbing the NIC config:
					// the driver reads CoalesceCycles per NIC.
					for _, n := range m.NICs {
						n.SetCoalesce(window)
					}
					m.Eng.Run(simTime(cfg.WarmupCycles))
					return m.Measure(cfg.MeasureCycles)
				}
				rb := mk(affinity.ModeNone)
				rf := mk(affinity.ModeFull)
				gain = rf.Mbps/rb.Mbps - 1
				irqs = float64(rb.Ctr.Total(perf.IRQsReceived))
			}
			b.ReportMetric(100*gain, "%fullaff-gain")
			b.ReportMetric(irqs, "irqs")
		})
	}
}

// --- Open-loop cell: 10⁵-connection churn at the default offered load ---

// BenchmarkOpenLoopCell100k records the workload layer's scale point:
// one hundred-thousand-connection open-loop cell run to completion
// under full affinity. ns/op is the cell's wall-clock; the custom
// metrics record the simulated tail latency and the per-connection
// byte cost (total wire bytes over generated connections), the
// flyweight refactor's figure of merit.
func BenchmarkOpenLoopCell100k(b *testing.B) {
	ws, err := affinity.ParseWorkload("openloop,conns=100000")
	if err != nil {
		b.Fatal(err)
	}
	cfg := affinity.DefaultConfig(affinity.ModeFull, affinity.TX, 65536)
	cfg.Workload = ws
	var r *affinity.Result
	for i := 0; i < b.N; i++ {
		r = affinity.Run(cfg)
	}
	if r.Transactions != 100_000 {
		b.Fatalf("cell incomplete: completed=%d abandoned=%d syndrops=%d",
			r.Transactions, r.ConnsAbandoned, r.SynDrops)
	}
	b.ReportMetric(float64(r.LatencyP99Cycles)/2000, "p99-us")
	b.ReportMetric(float64(r.LatencyP999Cycles)/2000, "p999-us")
	b.ReportMetric(float64(r.WireBytes)/float64(r.ConnsGenerated), "wireB/conn")
}
