package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apic"
	"repro/internal/perf"
	"repro/internal/topo"
	"repro/internal/ttcp"
)

// testConfig shrinks the measurement window so the suite stays fast; the
// asserted effects are large relative to the added noise.
func testConfig(mode Mode, dir ttcp.Direction, size int) Config {
	cfg := DefaultConfig(mode, dir, size)
	cfg.WarmupCycles = 30_000_000
	cfg.MeasureCycles = 120_000_000
	return cfg
}

// The headline result (Figure 3, §5): at 64 KB transfers, full affinity
// clearly beats no affinity, interrupt affinity lands in between, and
// process-only affinity buys approximately nothing.
func TestModeOrderingTX64K(t *testing.T) {
	res := map[Mode]*Result{}
	for _, m := range Modes() {
		res[m] = Run(testConfig(m, ttcp.TX, 65536))
	}
	none, proc := res[ModeNone].Mbps, res[ModeProc].Mbps
	irq, full := res[ModeIRQ].Mbps, res[ModeFull].Mbps

	if full < none*1.06 {
		t.Errorf("full affinity %.0f Mb/s not clearly above none %.0f", full, none)
	}
	if irq < none*1.03 {
		t.Errorf("irq affinity %.0f Mb/s not above none %.0f", irq, none)
	}
	if full < irq*0.99 {
		t.Errorf("full affinity %.0f below irq affinity %.0f", full, irq)
	}
	// "process affinity alone has little impact on throughput"
	if ratio := proc / none; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("proc affinity %.0f deviates from none %.0f by more than 5%%", proc, none)
	}
	// Cost ordering mirrors bandwidth ordering.
	if res[ModeFull].CostGHzPerGbps >= res[ModeNone].CostGHzPerGbps {
		t.Errorf("full-affinity cost %.2f not below no-affinity cost %.2f",
			res[ModeFull].CostGHzPerGbps, res[ModeNone].CostGHzPerGbps)
	}
}

// Full affinity must reduce GHz/Gbps cost at all four extreme points.
func TestFullAffinityImprovesAllExtremes(t *testing.T) {
	for _, pt := range ExtremePoints() {
		base := Run(testConfig(ModeNone, pt.Dir, pt.Size))
		full := Run(testConfig(ModeFull, pt.Dir, pt.Size))
		imp := 1 - full.CostGHzPerGbps/base.CostGHzPerGbps
		if imp < 0.03 {
			t.Errorf("%s %dB: cost improvement %.1f%%, want >= 3%%", pt.Dir, pt.Size, 100*imp)
		}
		// Affinity has a bigger impact on large transfers (§5).
		_ = imp
	}
}

// "Affinity has a bigger impact on large size transfers" (§5).
func TestAffinityImpactGrowsWithSize(t *testing.T) {
	imp := func(size int) float64 {
		base := Run(testConfig(ModeNone, ttcp.TX, size))
		full := Run(testConfig(ModeFull, ttcp.TX, size))
		return 1 - full.CostGHzPerGbps/base.CostGHzPerGbps
	}
	small := imp(128)
	large := imp(65536)
	if large <= small {
		t.Errorf("64KB improvement %.1f%% not above 128B improvement %.1f%%", 100*large, 100*small)
	}
}

// The SUT is CPU-bound at the measured operating points: "almost fully
// utilized in all cases" (§5).
func TestUtilizationNearFullAndNoDrops(t *testing.T) {
	for _, m := range []Mode{ModeNone, ModeFull} {
		r := Run(testConfig(m, ttcp.TX, 65536))
		if r.AvgUtil < 0.95 {
			t.Errorf("%s: utilization %.2f, want ~1", m, r.AvgUtil)
		}
		if r.Drops != 0 {
			t.Errorf("%s: %d receive drops (flow control broken)", m, r.Drops)
		}
		if r.Transactions == 0 || r.Bytes == 0 {
			t.Errorf("%s: no work measured", m)
		}
	}
}

// Table 3 shape: improvements concentrate in buffer management (and the
// engine), while copies are essentially unaffected; overall cycle, LLC
// and machine-clear improvements are all positive; and the rank
// correlation between cycle improvements and LLC/clear improvements is
// significant (Table 5).
func TestComparisonShape(t *testing.T) {
	base := Run(testConfig(ModeNone, ttcp.TX, 65536))
	full := Run(testConfig(ModeFull, ttcp.TX, 65536))
	cmp := Compare(base, full)

	if cmp.OverallCycles < 0.05 {
		t.Errorf("overall cycles improvement %.1f%%, want >= 5%%", 100*cmp.OverallCycles)
	}
	if cmp.OverallLLC < 0.15 {
		t.Errorf("overall LLC improvement %.1f%%, want >= 15%%", 100*cmp.OverallLLC)
	}
	if cmp.OverallClears < 0.10 {
		t.Errorf("overall clears improvement %.1f%%, want >= 10%%", 100*cmp.OverallClears)
	}

	var bins = map[perf.Bin]BinImprovement{}
	for _, b := range cmp.Bins {
		bins[b.Bin] = b
	}
	// Buffer management carries the largest single-bin improvement.
	buf := bins[perf.BinBufMgmt]
	for _, b := range cmp.Bins {
		if b.Bin != perf.BinBufMgmt && b.CyclesImp > buf.CyclesImp {
			t.Errorf("bin %s improvement %.1f%% exceeds Buf Mgmt's %.1f%%",
				b.Bin, 100*b.CyclesImp, 100*buf.CyclesImp)
		}
	}
	// "affinity did not seem to affect copies" (§6.3).
	if c := bins[perf.BinCopies]; c.CyclesImp > 0.05 || c.CyclesImp < -0.05 {
		t.Errorf("copies improvement %.1f%%, want ~0", 100*c.CyclesImp)
	}
	// Table 5: significant positive correlations.
	if cmp.CorrLLC < cmp.CorrCritical {
		t.Errorf("LLC correlation %.2f below critical %.3f", cmp.CorrLLC, cmp.CorrCritical)
	}
	if cmp.CorrClears < cmp.CorrCritical {
		t.Errorf("clears correlation %.2f below critical %.3f", cmp.CorrClears, cmp.CorrCritical)
	}
}

// Figure 5 shape: machine clears and LLC misses are the two dominant
// performance-impact indicators at the 64 KB operating point.
func TestIndicatorsShape(t *testing.T) {
	r := Run(testConfig(ModeNone, ttcp.TX, 65536))
	shares := map[perf.Event]float64{}
	for _, s := range Indicators(r) {
		shares[s.Event] = s.Share
	}
	clears, llc := shares[perf.MachineClears], shares[perf.LLCMisses]
	for ev, s := range shares {
		if ev == perf.MachineClears || ev == perf.LLCMisses || ev == perf.Instructions {
			continue
		}
		if s >= clears || s >= llc {
			t.Errorf("event %s share %.1f%% rivals clears %.1f%% / LLC %.1f%%",
				ev, 100*s, 100*clears, 100*llc)
		}
	}
	if clears < 0.10 || llc < 0.10 {
		t.Errorf("dominant indicators too small: clears %.1f%%, LLC %.1f%%", 100*clears, 100*llc)
	}
}

// Table 4 shape: with no affinity every interrupt handler's clears are on
// CPU0; with full affinity they split across both processors, and each
// handler's clear count stays in the same ballpark.
func TestClearSymbolDistribution(t *testing.T) {
	base := Run(testConfig(ModeNone, ttcp.TX, 128))
	full := Run(testConfig(ModeFull, ttcp.TX, 128))

	handlerClears := func(r *Result, cpu int) uint64 {
		var total uint64
		for _, v := range Vectors {
			sym := r.Ctr.Table().Lookup(handlerName(v))
			if sym >= 0 {
				total += r.Ctr.Get(cpu, sym, perf.MachineClears)
			}
		}
		return total
	}
	if c1 := handlerClears(base, 1); c1 != 0 {
		t.Errorf("no affinity: CPU1 handler clears = %d, want 0", c1)
	}
	c0, c1 := handlerClears(full, 0), handlerClears(full, 1)
	if c0 == 0 || c1 == 0 {
		t.Errorf("full affinity: handler clears not split (%d/%d)", c0, c1)
	}
	// Per-work handler clears similar across modes ("affinity does not
	// change the arrival behavior of device interrupts").
	baseRate := float64(handlerClears(base, 0)+handlerClears(base, 1)) / float64(base.Bytes)
	fullRate := float64(c0+c1) / float64(full.Bytes)
	if ratio := fullRate / baseRate; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("handler clears per work changed %.2fx across modes", ratio)
	}
}

// Table 2 behaviour: full affinity retires a small fraction of the lock
// branches of no affinity while its mispredict *ratio* inflates.
func TestLockBehaviourTable2(t *testing.T) {
	base := LockStats(Run(testConfig(ModeNone, ttcp.TX, 65536)))
	full := LockStats(Run(testConfig(ModeFull, ttcp.TX, 65536)))
	if full.SpinCycles >= base.SpinCycles {
		t.Errorf("full-affinity spin %d not below no-affinity %d", full.SpinCycles, base.SpinCycles)
	}
	if full.Branches >= base.Branches/2 {
		t.Errorf("full-affinity lock branches %d, want far fewer than %d", full.Branches, base.Branches)
	}
	if full.MispredictRatio <= base.MispredictRatio {
		t.Errorf("mispredict ratio did not inflate: %.4f (full) vs %.4f (none)",
			full.MispredictRatio, base.MispredictRatio)
	}
}

// Same seed, same everything.
func TestRunDeterminism(t *testing.T) {
	a := Run(testConfig(ModeNone, ttcp.RX, 4096))
	b := Run(testConfig(ModeNone, ttcp.RX, 4096))
	if a.Bytes != b.Bytes || a.Transactions != b.Transactions {
		t.Fatalf("identical configs diverged: %d/%d vs %d/%d bytes/txns",
			a.Bytes, a.Transactions, b.Bytes, b.Transactions)
	}
	if a.Ctr.Total(perf.Cycles) != b.Ctr.Total(perf.Cycles) {
		t.Fatal("cycle totals diverged")
	}
	c := testConfig(ModeNone, ttcp.RX, 4096)
	c.Seed = 99
	cc := Run(c)
	if cc.Ctr.Total(perf.Cycles) == a.Ctr.Total(perf.Cycles) {
		t.Fatal("different seeds produced identical cycle totals")
	}
}

// The §7 Linux-2.6-style rotating IRQ policy spreads handlers over both
// CPUs without pinning.
func TestRotateIRQPolicy(t *testing.T) {
	cfg := testConfig(ModeNone, ttcp.TX, 16384)
	cfg.Policy = topo.Rotate{}
	r := Run(cfg)
	var c0, c1 uint64
	for _, v := range Vectors {
		sym := r.Ctr.Table().Lookup(handlerName(v))
		c0 += r.Ctr.Get(0, sym, perf.IRQsReceived)
		c1 += r.Ctr.Get(1, sym, perf.IRQsReceived)
	}
	if c0 == 0 || c1 == 0 {
		t.Fatalf("rotate policy did not spread interrupts: %d/%d", c0, c1)
	}
}

// Baseline tables are internally consistent.
func TestBaselineTableConsistency(t *testing.T) {
	r := Run(testConfig(ModeNone, ttcp.RX, 65536))
	tab := BaselineTable(r)
	var sum float64
	for _, row := range tab.Rows {
		if row.PctCycles < 0 || row.PctCycles > 1 {
			t.Errorf("bin %s share %.3f out of range", row.Bin, row.PctCycles)
		}
		sum += row.PctCycles
	}
	// The seven stack bins account for nearly all busy cycles, like the
	// paper's ~99% Overall rows.
	if sum < 0.90 || sum > 1.001 {
		t.Errorf("stack bins cover %.1f%% of busy cycles, want ~99%%", 100*sum)
	}
	if tab.Overall.CPI < 1 || tab.Overall.CPI > 20 {
		t.Errorf("overall CPI %.2f implausible", tab.Overall.CPI)
	}
	// RX copies must be the characteristic high-CPI bin (rep-mov).
	for _, row := range tab.Rows {
		if row.Bin == perf.BinCopies && row.CPI < 10 {
			t.Errorf("RX copies CPI %.1f, want rep-mov-sized (>10)", row.CPI)
		}
	}
	if !strings.Contains(tab.Format(), "Overall") {
		t.Error("formatted table missing Overall row")
	}
}

// Sweeps carry every (mode, size) point and render all figures.
func TestSweepAndRendering(t *testing.T) {
	base := testConfig(ModeNone, ttcp.TX, 128)
	base.WarmupCycles = 20_000_000
	base.MeasureCycles = 40_000_000
	sw := RunSweep(base, ttcp.TX, []int{1024, 16384}, []Mode{ModeNone, ModeFull})
	if len(sw.Points) != 4 {
		t.Fatalf("sweep has %d points, want 4", len(sw.Points))
	}
	if _, ok := sw.Point(ModeFull, 16384); !ok {
		t.Fatal("missing sweep point")
	}
	for _, out := range []string{sw.FormatFig3(), sw.FormatFig4(), sw.CSV()} {
		if !strings.Contains(out, "16384") {
			t.Errorf("rendering missing size row:\n%s", out)
		}
	}
	if !strings.Contains(sw.CSV(), "Full Aff") {
		t.Error("CSV missing mode name")
	}
}

func handlerName(v apic.Vector) string {
	return fmt.Sprintf("IRQ%#x_interrupt", int(v))
}

// Multi-seed aggregation: small variance, positive means, and the
// full-affinity advantage surviving averaging.
func TestRunSeedsAggregate(t *testing.T) {
	cfg := testConfig(ModeNone, ttcp.TX, 16384)
	agg := RunSeeds(cfg, 3)
	if agg.Seeds != 3 || len(agg.Results) != 3 {
		t.Fatalf("aggregate shape wrong: %+v", agg)
	}
	if agg.MbpsMean <= 0 || agg.CostMean <= 0 {
		t.Fatal("degenerate means")
	}
	// Seed-to-seed variation is noise, not signal: well under 10%.
	if agg.MbpsStd > 0.1*agg.MbpsMean {
		t.Errorf("throughput stdev %.1f too large vs mean %.1f", agg.MbpsStd, agg.MbpsMean)
	}
	full := RunSeeds(testConfig(ModeFull, ttcp.TX, 16384), 3)
	if full.MbpsMean <= agg.MbpsMean {
		t.Errorf("full-affinity mean %.1f not above no-affinity mean %.1f", full.MbpsMean, agg.MbpsMean)
	}
	if agg.String() == "" {
		t.Error("empty aggregate string")
	}
}

// Export round-trips through JSON and CSV with sane values.
func TestResultExport(t *testing.T) {
	r := Run(testConfig(ModeFull, ttcp.RX, 8192))
	e := r.Export()
	if e.Mode != "Full Aff" || e.Dir != "RX" || e.Size != 8192 {
		t.Fatalf("export identity wrong: %+v", e)
	}
	if len(e.Bins) != 7 {
		t.Fatalf("export has %d bins", len(e.Bins))
	}
	js, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, "\"llc_misses\"") || !strings.Contains(js, "Copies") {
		t.Fatalf("json incomplete:\n%s", js)
	}
	row := r.CSVRow()
	if n := strings.Count(row, ","); n != strings.Count(CSVHeader(), ",") {
		t.Fatalf("csv row has %d commas, header %d", n, strings.Count(CSVHeader(), ","))
	}
}

// DumpState renders a complete, parseable diagnostic snapshot.
func TestDumpState(t *testing.T) {
	m := NewMachine(testConfig(ModeFull, ttcp.TX, 16384))
	defer m.Shutdown()
	m.Eng.Run(40_000_000)
	out := m.DumpState()
	for _, want := range []string{"cpu0", "cpu1", "conn0", "conn7", "nic0", "pool:", "sched:", "events:", "ESTABLISHED"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// The executable EXPERIMENTS.md: every encoded claim passes.
func TestVerifyShapeAllPass(t *testing.T) {
	checks := VerifyShape(testConfig)
	if len(checks) < 14 {
		t.Fatalf("only %d checks", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Errorf("[FAIL] %s — %s (measured: %s)", c.ID, c.Claim, c.Measured)
		}
	}
	out := FormatChecks(checks)
	if !strings.Contains(out, "checks passed") {
		t.Error("scorecard rendering broken")
	}
}
