package mem

// Level identifies which structure served a data access.
type Level int

const (
	// LevelL1 is a first-level hit.
	LevelL1 Level = iota
	// LevelL2 is a second-level hit (L1 miss).
	LevelL2
	// LevelLLC is a last-level hit (the paper's "L2 miss" event, ~10
	// cycle penalty on top of the pipeline).
	LevelLLC
	// LevelMemory is a last-level miss: served from DRAM or from a
	// remote processor's modified copy (~300 cycles).
	LevelMemory
)

// AccessResult describes one line access.
type AccessResult struct {
	Level  Level
	Remote bool // served by cache-to-cache transfer from a dirty remote copy
}

// RangeResult aggregates the line accesses of a byte-range touch.
type RangeResult struct {
	Lines   int // distinct lines touched
	L1Hits  int
	L2Hits  int // served by L2
	LLCHits int // served by LLC ("L2 miss" event count)
	Misses  int // served by memory/remote (LLC miss event count)
	Remote  int // subset of Misses served by a remote dirty copy
}

// Add accumulates other into r.
func (r *RangeResult) Add(other RangeResult) {
	r.Lines += other.Lines
	r.L1Hits += other.L1Hits
	r.L2Hits += other.L2Hits
	r.LLCHits += other.LLCHits
	r.Misses += other.Misses
	r.Remote += other.Remote
}

// Hierarchy is one processor's private cache hierarchy (inclusive
// L1D ⊂ L2 ⊂ LLC) attached to the machine-wide coherence directory.
type Hierarchy struct {
	cpu int
	l1  *Cache
	l2  *Cache
	llc *Cache
	dir *Directory
}

// NewHierarchy builds a hierarchy for processor cpu with the given
// geometries, joined to the shared directory dir.
func NewHierarchy(cpu int, l1, l2, llc CacheCfg, dir *Directory) *Hierarchy {
	return &Hierarchy{
		cpu: cpu,
		l1:  NewCache(l1),
		l2:  NewCache(l2),
		llc: NewCache(llc),
		dir: dir,
	}
}

// CPU reports the owning processor.
func (h *Hierarchy) CPU() int { return h.cpu }

// L1 exposes the first-level cache (tests and diagnostics).
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the second-level cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// LLC exposes the last-level cache.
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Access performs one access to the line containing addr and returns
// where it was served from, after updating cache and coherence state.
// The line's directory entry is fetched once: every access leaves the
// line tracked (a hit implies it already is), and a fill's LLC eviction
// only updates other, existing lines.
func (h *Hierarchy) Access(addr Addr, write bool) AccessResult {
	line := LineOf(addr)
	l := h.dir.entry(line)
	valid := l.hasCopy(h.cpu)

	var res AccessResult
	switch {
	case valid && h.l1.Lookup(line):
		res.Level = LevelL1
	case valid && h.l2.Lookup(line):
		res.Level = LevelL2
		h.fillL1(line)
	case valid && h.llc.Lookup(line):
		res.Level = LevelLLC
		h.fillL2(line)
		h.fillL1(line)
	default:
		res.Level = LevelMemory
		res.Remote = l.dirtyElsewhere(h.cpu)
		h.fillLLC(line)
		h.fillL2(line)
		h.fillL1(line)
	}

	if write {
		l.onWrite(h.cpu)
	} else if res.Level == LevelMemory {
		l.onRead(h.cpu)
	}
	return res
}

// AccessRange touches every line in [addr, addr+size) and aggregates the
// results. Bulk payload copies go through this.
func (h *Hierarchy) AccessRange(addr Addr, size int, write bool) RangeResult {
	var r RangeResult
	if size <= 0 {
		return r
	}
	first := LineOf(addr)
	last := LineOf(addr + Addr(size) - 1)
	for line := first; ; line += LineSize {
		a := h.Access(line, write)
		r.Lines++
		switch a.Level {
		case LevelL1:
			r.L1Hits++
		case LevelL2:
			r.L2Hits++
		case LevelLLC:
			r.LLCHits++
		case LevelMemory:
			r.Misses++
			if a.Remote {
				r.Remote++
			}
		}
		if line == last {
			break
		}
	}
	return r
}

func (h *Hierarchy) fillL1(line Addr) {
	h.l1.Fill(line)
}

func (h *Hierarchy) fillL2(line Addr) {
	h.l2.Fill(line)
}

func (h *Hierarchy) fillLLC(line Addr) {
	evicted, wasValid := h.llc.Fill(line)
	if wasValid {
		// Inclusive hierarchy: an LLC eviction back-invalidates the inner
		// levels and surrenders the coherent copy.
		h.l2.Invalidate(evicted)
		h.l1.Invalidate(evicted)
		h.dir.OnEvict(h.cpu, evicted)
	}
}

// WarmRange installs the range as if previously read, without counting
// anything. Experiments use it to pre-warm application buffers (the paper
// serves transmit data "directly from cache", §6.1).
func (h *Hierarchy) WarmRange(addr Addr, size int) {
	h.AccessRange(addr, size, false)
}
