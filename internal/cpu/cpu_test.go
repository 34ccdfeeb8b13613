package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

type rig struct {
	tab  *perf.SymbolTable
	ctr  *perf.Counters
	m0   *Model
	m1   *Model
	dir  *mem.Directory
	sym  perf.Symbol
	code CodeRef
	sp   *mem.Space
}

func newRig(t *testing.T) *rig {
	t.Helper()
	tab := perf.NewSymbolTable()
	sym := tab.Register("test_fn", perf.BinEngine)
	ctr := perf.NewCounters(tab, 2)
	dir := mem.NewDirectory(2)
	l1, l2, llc := mem.P4XeonMP()
	rng := sim.NewRNG(1)
	sp := mem.NewSpace()
	code := CodeRef{Base: sp.AllocPage(1024, "code"), Size: 1024}
	m0 := New(0, DefaultConfig(), mem.NewHierarchy(0, l1, l2, llc, dir), ctr, rng)
	m1 := New(1, DefaultConfig(), mem.NewHierarchy(1, l1, l2, llc, dir), ctr, rng)
	return &rig{tab: tab, ctr: ctr, m0: m0, m1: m1, dir: dir, sym: sym, code: code, sp: sp}
}

func TestExecInstrCostsBaseCPI(t *testing.T) {
	r := newRig(t)
	cycles := r.m0.Begin(r.sym, CodeRef{}).Instr(1000, 0, 0).Finish()
	want := uint64(1000*DefaultConfig().BaseCPI + 0.5)
	if cycles != want {
		t.Fatalf("cycles = %d, want %d", cycles, want)
	}
	if got := r.ctr.Get(0, r.sym, perf.Instructions); got != 1000 {
		t.Fatalf("instructions = %d, want 1000", got)
	}
	if got := r.ctr.Get(0, r.sym, perf.Cycles); got != cycles {
		t.Fatalf("cycle counter = %d, want %d", got, cycles)
	}
}

func TestExecBranchAccounting(t *testing.T) {
	r := newRig(t)
	r.m0.Begin(r.sym, CodeRef{}).Instr(10000, 0.2, 0.5).Finish()
	br := r.ctr.Get(0, r.sym, perf.Branches)
	if br != 2000 {
		t.Fatalf("branches = %d, want 2000", br)
	}
	miss := r.ctr.Get(0, r.sym, perf.BranchMispredicts)
	if miss < 800 || miss > 1200 {
		t.Fatalf("mispredicts = %d, want ≈1000", miss)
	}
}

func TestExecColdLoadChargesLLCMiss(t *testing.T) {
	r := newRig(t)
	buf := r.sp.AllocPage(4096, "buf")
	cold := r.m0.Begin(r.sym, CodeRef{}).Load(buf, 4096).Finish()
	if got := r.ctr.Get(0, r.sym, perf.LLCMisses); got != 64 {
		t.Fatalf("llc misses = %d, want 64", got)
	}
	warm := r.m0.Begin(r.sym, CodeRef{}).Load(buf, 4096).Finish()
	if warm >= cold {
		t.Fatalf("warm access (%d) not cheaper than cold (%d)", warm, cold)
	}
	if got := r.ctr.Get(0, r.sym, perf.DTLBWalks); got != 1 {
		t.Fatalf("dtlb walks = %d, want 1", got)
	}
}

func TestExecRemoteDirtyCountsAsLLCMiss(t *testing.T) {
	r := newRig(t)
	buf := r.sp.Alloc(64, "line")
	r.m0.Begin(r.sym, CodeRef{}).Store(buf, 64).Finish()
	before := r.ctr.Get(1, r.sym, perf.LLCMisses)
	r.m1.Begin(r.sym, CodeRef{}).Load(buf, 64).Finish()
	if got := r.ctr.Get(1, r.sym, perf.LLCMisses) - before; got != 1 {
		t.Fatalf("remote dirty load added %d LLC misses, want 1", got)
	}
}

func TestExecCodeFootprintFrontEndEvents(t *testing.T) {
	r := newRig(t)
	r.m0.Begin(r.sym, r.code).Instr(100, 0, 0).Finish()
	tcm := r.ctr.Get(0, r.sym, perf.TCMisses)
	// The model fetches the hot quarter of the static footprint.
	if want := uint64(mem.LinesIn(r.code.Base, r.code.Size/4)); tcm != want {
		t.Fatalf("tc misses = %d, want %d", tcm, want)
	}
	if got := r.ctr.Get(0, r.sym, perf.ITLBWalks); got != 1 {
		t.Fatalf("itlb walks = %d, want 1", got)
	}
	// Second activation: front end warm.
	r.m0.Begin(r.sym, r.code).Instr(100, 0, 0).Finish()
	if got := r.ctr.Get(0, r.sym, perf.TCMisses); got != tcm {
		t.Fatalf("warm activation added TC misses: %d -> %d", tcm, got)
	}
}

func TestFlushTLBsForcesRewalk(t *testing.T) {
	r := newRig(t)
	buf := r.sp.AllocPage(4096, "buf")
	r.m0.Begin(r.sym, r.code).Load(buf, 64).Finish()
	walks := r.ctr.Get(0, r.sym, perf.DTLBWalks)
	r.m0.FlushTLBs()
	r.m0.Begin(r.sym, r.code).Load(buf, 64).Finish()
	if got := r.ctr.Get(0, r.sym, perf.DTLBWalks); got != walks+1 {
		t.Fatalf("dtlb walks after flush = %d, want %d", got, walks+1)
	}
	if got := r.ctr.Get(0, r.sym, perf.ITLBWalks); got != 2 {
		t.Fatalf("itlb walks after flush = %d, want 2", got)
	}
}

func TestMachineClearPenaltyAndSkidAttribution(t *testing.T) {
	r := newRig(t)
	pen := r.m0.MachineClear(r.sym, 3)
	if pen != 3*DefaultPenalties().MachineClear {
		t.Fatalf("penalty = %d, want %d", pen, 3*DefaultPenalties().MachineClear)
	}
	if got := r.ctr.Get(0, r.sym, perf.MachineClears); got != 3 {
		t.Fatalf("clears = %d, want 3", got)
	}
	if got := r.ctr.Get(0, r.sym, perf.Cycles); got != pen {
		t.Fatalf("cycles = %d, want %d", got, pen)
	}
	if r.m0.MachineClear(r.sym, 0) != 0 {
		t.Fatal("zero clears should be free")
	}
}

func TestSpinAccounting(t *testing.T) {
	r := newRig(t)
	r.m0.Spin(r.sym, 4000)
	if got := r.ctr.Get(0, r.sym, perf.SpinCycles); got != 4000 {
		t.Fatalf("spin cycles = %d, want 4000", got)
	}
	if got := r.ctr.Get(0, r.sym, perf.Branches); got != 160 {
		t.Fatalf("spin branches = %d, want 160 (4000/25)", got)
	}
	if got := r.ctr.Get(0, r.sym, perf.Instructions); got != 480 {
		t.Fatalf("spin instructions = %d, want 480", got)
	}
	if got := r.ctr.Get(0, r.sym, perf.BranchMispredicts); got != 1 {
		t.Fatalf("spin mispredicts = %d, want 1", got)
	}
	r.m0.Spin(r.sym, 0) // no-op
	if got := r.ctr.Get(0, r.sym, perf.SpinCycles); got != 4000 {
		t.Fatal("Spin(0) changed counters")
	}
}

func TestStringOpSingleInstruction(t *testing.T) {
	r := newRig(t)
	buf := r.sp.AllocPage(4096, "buf")
	r.m0.Begin(r.sym, CodeRef{}).StringOp().Load(buf, 4096).Finish()
	if got := r.ctr.Get(0, r.sym, perf.Instructions); got != 1 {
		t.Fatalf("instructions = %d, want 1", got)
	}
	// CPI of this activation is huge: 64 cold lines behind one instruction.
	cyc := r.ctr.Get(0, r.sym, perf.Cycles)
	if cyc < 64*DefaultPenalties().LLCMiss {
		t.Fatalf("cycles = %d, want >= %d", cyc, 64*DefaultPenalties().LLCMiss)
	}
}

func TestExecFinishTwicePanics(t *testing.T) {
	r := newRig(t)
	x := r.m0.Begin(r.sym, CodeRef{})
	x.Finish()
	defer func() {
		if recover() == nil {
			t.Error("double Finish did not panic")
		}
	}()
	x.Finish()
}

// TestExecReusedFinishTwicePanics finishes the model's reused Exec twice
// in its second activation: the first activation's Finish must not have
// left it able to absorb a second one.
func TestExecReusedFinishTwicePanics(t *testing.T) {
	r := newRig(t)
	first := r.m0.Begin(r.sym, CodeRef{})
	first.Finish()
	x := r.m0.Begin(r.sym, CodeRef{})
	if x != first {
		t.Fatal("Begin did not reuse the model's Exec")
	}
	x.Finish()
	defer func() {
		if recover() == nil {
			t.Error("double Finish of a reused Exec did not panic")
		}
	}()
	x.Finish()
}

func TestBeginWithActivationOpenPanics(t *testing.T) {
	r := newRig(t)
	r.m0.Begin(r.sym, CodeRef{}).Instr(10, 0, 0)
	// Another processor's model is independent.
	r.m1.Begin(r.sym, CodeRef{}).Finish()
	defer func() {
		if v := recover(); v != "cpu: Begin with an activation still open" {
			t.Errorf("nested Begin recovered %v", v)
		}
	}()
	r.m0.Begin(r.sym, CodeRef{})
}

func TestExecMinimumOneCycle(t *testing.T) {
	r := newRig(t)
	if c := r.m0.Begin(r.sym, CodeRef{}).Finish(); c != 1 {
		t.Fatalf("empty exec = %d cycles, want 1", c)
	}
}

func TestUncachedCost(t *testing.T) {
	r := newRig(t)
	c := r.m0.Begin(r.sym, CodeRef{}).Uncached(2).Finish()
	if c != 400 {
		t.Fatalf("uncached cost = %d, want 400", c)
	}
}

// TestActivationAllocs pins one activation (Begin, Instr, Load, Store,
// Finish) to zero allocations. The two processors take turns, so every
// run moves the stored lines between them and walks the trace cache,
// the TLBs and the coherence paths as well as the resident ones.
func TestActivationAllocs(t *testing.T) {
	r := newRig(t)
	const size = 16 << 10
	src := r.sp.AllocPage(size, "src")
	dst := r.sp.AllocPage(size, "dst")
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		m := r.m0
		if i&1 != 0 {
			m = r.m1
		}
		i++
		m.Begin(r.sym, r.code).Instr(500, 0.2, 0.05).Load(src, size).Store(dst, size).Finish()
	}); allocs != 0 {
		t.Fatalf("%v allocations per activation, want 0", allocs)
	}
	if r.ctr.Get(0, r.sym, perf.LLCMisses) == 0 || r.ctr.Get(1, r.sym, perf.LLCMisses) == 0 {
		t.Fatal("no LLC misses: the stored lines never moved between the processors")
	}
}
