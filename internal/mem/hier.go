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
func (h *Hierarchy) Access(addr Addr, write bool) AccessResult {
	line := LineOf(addr)
	level, remote := h.access(line, h.dir.entry(line), write)
	return AccessResult{Level: level, Remote: remote}
}

// AccessRange touches every line in [addr, addr+size) and aggregates the
// results. Bulk payload copies go through this. It walks the range a
// page at a time, fetching each page's directory chunk once; every line
// sees the same cache and directory operations as an Access of its own.
func (h *Hierarchy) AccessRange(addr Addr, size int, write bool) RangeResult {
	var r RangeResult
	if size <= 0 {
		return r
	}
	line := LineOf(addr)
	last := LineOf(addr + Addr(size) - 1)
	for {
		chunk := h.dir.chunk(line)
		end := min(last, line|(PageSize-LineSize))
		for ; ; line += LineSize {
			level, remote := h.access(line, h.dir.create(&chunk[(line>>LineShift)%linesPerPage]), write)
			switch level {
			case LevelL1:
				r.L1Hits++
			case LevelL2:
				r.L2Hits++
			case LevelLLC:
				r.LLCHits++
			case LevelMemory:
				r.Misses++
				if remote {
					r.Remote++
				}
			}
			if line == end {
				break
			}
		}
		if line == last {
			break
		}
		line += LineSize
	}
	r.Lines = r.L1Hits + r.L2Hits + r.LLCHits + r.Misses
	return r
}

// access performs one line access given the line's directory entry l.
// A hit leaves the line tracked, and an LLC fill's eviction only updates
// other lines, so l stays the line's entry throughout.
func (h *Hierarchy) access(line Addr, l *dirLine, write bool) (level Level, remote bool) {
	level = LevelMemory
	if l.hasCopy(h.cpu) {
		level = h.touch(line)
	}
	if level == LevelMemory {
		remote = l.dirtyElsewhere(h.cpu)
		h.fill(line)
	}
	if write {
		l.onWrite(h.cpu)
	} else if level == LevelMemory {
		l.onRead(h.cpu)
	}
	return level, remote
}

// touch serves a line this CPU holds a valid copy of from the innermost
// level that has it. Each level looks the line up and, on a miss, fills
// it in the same pass before the next level is tried; the levels are
// independent, so this ends in the state of looking every level up first
// and filling the inner ones after the hit.
//
// A valid copy is LLC-resident unless the directory was updated from
// outside the hierarchy (OnRead or OnWrite called directly). Such a line
// is served from memory, where the LLC's victim must leave the inner
// levels before they take the line, so touch reverts all three touches
// and leaves the fill to the memory path.
func (h *Hierarchy) touch(line Addr) Level {
	hit, ev1, was1 := h.l1.Touch(line)
	if hit {
		return LevelL1
	}
	hit, ev2, was2 := h.l2.Touch(line)
	if hit {
		return LevelL2
	}
	hit, ev3, was3 := h.llc.Touch(line)
	if hit {
		return LevelLLC
	}
	h.l1.untouch(line, ev1, was1)
	h.l2.untouch(line, ev2, was2)
	h.llc.untouch(line, ev3, was3)
	return LevelMemory
}

// fill installs a line served from memory at every level. The hierarchy
// is inclusive: a line the LLC evicts leaves the inner levels too, and
// its coherent copy is surrendered.
func (h *Hierarchy) fill(line Addr) {
	if evicted, wasValid := h.llc.Fill(line); wasValid {
		h.l2.Invalidate(evicted)
		h.l1.Invalidate(evicted)
		h.dir.OnEvict(h.cpu, evicted)
	}
	h.l2.Fill(line)
	h.l1.Fill(line)
}

// WarmRange installs the range as if previously read, without counting
// anything. Experiments use it to pre-warm application buffers (the paper
// serves transmit data "directly from cache", §6.1).
func (h *Hierarchy) WarmRange(addr Addr, size int) {
	h.AccessRange(addr, size, false)
}
