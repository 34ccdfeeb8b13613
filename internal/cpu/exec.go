package cpu

import (
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Exec accumulates the cost of one simulated procedure activation. The
// procedure declares what it does — instructions retired, branch profile,
// memory ranges touched — and Finish converts that into cycles while
// posting every event to the PMU counters under the procedure's symbol.
//
// An Exec must be finished; the kernel charges the returned cycles to
// the processor's timeline. Each Model owns a single Exec that Begin
// reopens for every activation, so an activation allocates nothing and
// the pointer Begin returns is dead once Finish returns.
type Exec struct {
	m      *Model
	sym    perf.Symbol
	cycles float64
	done   bool
}

// Begin opens an activation of sym whose code lives at code. The model
// charges front-end costs (trace-cache and ITLB behaviour) for the code
// footprint immediately. It panics if the previous activation has not
// finished.
func (m *Model) Begin(sym perf.Symbol, code CodeRef) *Exec {
	x := &m.x
	if !x.done {
		panic("cpu: Begin with an activation still open")
	}
	*x = Exec{m: m, sym: sym}
	if code.Size > 0 {
		x.touchCode(code)
	}
	return x
}

func (x *Exec) touchCode(code CodeRef) {
	m := x.m
	// Trace cache: decoded µops of the activation's hot path. A steady
	// fast-path activation executes a fraction of the function's static
	// footprint (no error paths, no cold branches), so only the leading
	// quarter of the code extent is fetched per call.
	hot := code.Size / 4
	if hot < mem.LineSize {
		hot = mem.LineSize
	}
	first := mem.LineOf(code.Base)
	last := mem.LineOf(code.Base + mem.Addr(hot) - 1)
	for line := first; ; line += mem.LineSize {
		if hit, _, _ := m.tc.Touch(line); !hit {
			m.ctr.Add(m.id, x.sym, perf.TCMisses, 1)
			x.cycles += float64(m.cfg.Penalty.TCMiss)
		}
		if line == last {
			break
		}
	}
	// ITLB: the code's pages.
	if walks := m.itlb.AccessRange(code.Base, code.Size); walks > 0 {
		m.ctr.Add(m.id, x.sym, perf.ITLBWalks, uint64(walks))
		x.cycles += float64(uint64(walks) * m.cfg.Penalty.ITLBWalk)
	}
}

// Instr retires n straight-line instructions of which branchFrac are
// branches, mispredicted at rate mispredict. Cost: n×BaseCPI plus a
// penalty per mispredict (count drawn deterministically from the
// engine's random stream).
func (x *Exec) Instr(n uint64, branchFrac, mispredict float64) *Exec {
	if n == 0 {
		return x
	}
	m := x.m
	m.ctr.Add(m.id, x.sym, perf.Instructions, n)
	x.cycles += float64(n) * m.cfg.BaseCPI
	branches := uint64(float64(n) * branchFrac)
	if branches > 0 {
		m.ctr.Add(m.id, x.sym, perf.Branches, branches)
		miss := uint64(m.rng.Binomial(int(branches), mispredict))
		if miss > 0 {
			m.ctr.Add(m.id, x.sym, perf.BranchMispredicts, miss)
			x.cycles += float64(miss * m.cfg.Penalty.BrMispredict)
		}
	}
	return x
}

// StringOp retires a rep-prefixed string instruction that moves size
// bytes: a single instruction regardless of length, the way the 2.4
// receive copy (`rep movl`) executes. All the cost shows up as memory
// behaviour, which is why the paper sees CPI 66 in RX 64 KB copies.
func (x *Exec) StringOp() *Exec {
	m := x.m
	m.ctr.Add(m.id, x.sym, perf.Instructions, 1)
	x.cycles += m.cfg.BaseCPI
	return x
}

// Load touches [addr, addr+size) reading.
func (x *Exec) Load(addr mem.Addr, size int) *Exec { return x.touch(addr, size, false) }

// Store touches [addr, addr+size) writing.
func (x *Exec) Store(addr mem.Addr, size int) *Exec { return x.touch(addr, size, true) }

func (x *Exec) touch(addr mem.Addr, size int, write bool) *Exec {
	if size <= 0 {
		return x
	}
	m := x.m
	r := m.hier.AccessRange(addr, size, write)
	if r.L2Hits > 0 {
		x.cycles += float64(uint64(r.L2Hits) * m.cfg.Penalty.L2Hit)
	}
	if r.LLCHits > 0 {
		m.ctr.Add(m.id, x.sym, perf.L2Misses, uint64(r.LLCHits))
		x.cycles += float64(uint64(r.LLCHits) * m.cfg.Penalty.L2Miss)
	}
	if r.Misses > 0 {
		m.ctr.Add(m.id, x.sym, perf.LLCMisses, uint64(r.Misses))
		x.cycles += float64(uint64(r.Misses) * m.cfg.Penalty.LLCMiss)
	}
	if r.Remote > 0 && m.cfg.Penalty.RemoteClearPeriod > 0 {
		m.remoteAccum += r.Remote
		if clears := m.remoteAccum / m.cfg.Penalty.RemoteClearPeriod; clears > 0 {
			m.remoteAccum %= m.cfg.Penalty.RemoteClearPeriod
			x.cycles += float64(m.MachineClear(x.sym, uint64(clears)))
		}
	}
	if walks := m.dtlb.AccessRange(addr, size); walks > 0 {
		m.ctr.Add(m.id, x.sym, perf.DTLBWalks, uint64(walks))
		x.cycles += float64(uint64(walks) * m.cfg.Penalty.DTLBWalk)
	}
	return x
}

// Overhead charges raw stall cycles that retire no instructions —
// pipeline serialization at privilege transitions (sysenter/iret), fence
// behaviour, and similar. This is what makes interface-bin routines run
// at the CPI ≈ 9–17 the paper measures.
func (x *Exec) Overhead(cycles uint64) *Exec {
	x.cycles += float64(cycles)
	return x
}

// Uncached charges n uncacheable accesses (device register reads/writes,
// APIC task-priority updates). They bypass the hierarchy entirely and
// cost a fixed bus round-trip each.
func (x *Exec) Uncached(n int) *Exec {
	const busCost = 200
	x.cycles += float64(n * busCost)
	return x
}

// Finish closes the activation, posts the cycle total, and returns it
// (always at least 1 so activations are visible on the timeline).
func (x *Exec) Finish() sim.Cycles {
	if x.done {
		panic("cpu: Exec finished twice")
	}
	x.done = true
	c := uint64(x.cycles + 0.5)
	if c == 0 {
		c = 1
	}
	x.m.ctr.Add(x.m.id, x.sym, perf.Cycles, c)
	return c
}
