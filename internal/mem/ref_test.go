package mem

import "fmt"

// Reference implementations for the differential tests: the map-based
// coherence directory, TLB and hierarchy access path that the dense
// tables replaced, the line-by-line range walk and lookup-then-fill
// levels that the page walk and fused touch replaced, and the tick-LRU
// cache that the recency-ordered tag arrays replaced. They are kept
// verbatim in behaviour and must not be optimised; diff_test.go checks
// the fast paths against them.

type refDirectory struct {
	lines              map[Addr]*refDirLine
	DMAReadInvalidates bool
}

type refDirLine struct {
	presence uint32
	dirty    bool
	owner    int8
}

func newRefDirectory() *refDirectory {
	return &refDirectory{lines: make(map[Addr]*refDirLine)}
}

func (d *refDirectory) line(a Addr) *refDirLine {
	l := d.lines[a]
	if l == nil {
		l = &refDirLine{}
		d.lines[a] = l
	}
	return l
}

func (d *refDirectory) HasCopy(cpu int, line Addr) bool {
	l := d.lines[line]
	return l != nil && l.presence&(1<<uint(cpu)) != 0
}

func (d *refDirectory) DirtyElsewhere(cpu int, line Addr) bool {
	l := d.lines[line]
	return l != nil && l.dirty && int(l.owner) != cpu
}

func (d *refDirectory) OnRead(cpu int, line Addr) (remote bool) {
	l := d.line(line)
	if l.dirty && int(l.owner) != cpu {
		remote = true
		l.dirty = false
	}
	l.presence |= 1 << uint(cpu)
	return remote
}

func (d *refDirectory) OnWrite(cpu int, line Addr) (remote bool) {
	l := d.line(line)
	if l.dirty && int(l.owner) != cpu {
		remote = true
	}
	l.presence = 1 << uint(cpu)
	l.dirty = true
	l.owner = int8(cpu)
	return remote
}

func (d *refDirectory) OnEvict(cpu int, line Addr) {
	l := d.lines[line]
	if l == nil {
		return
	}
	l.presence &^= 1 << uint(cpu)
	if l.dirty && int(l.owner) == cpu {
		l.dirty = false
	}
}

func (d *refDirectory) DMAWrite(line Addr) {
	l := d.line(line)
	l.presence = 0
	l.dirty = false
}

func (d *refDirectory) DMARead(line Addr) (wasDirty bool) {
	l := d.lines[line]
	if l == nil {
		return false
	}
	wasDirty = l.dirty
	l.dirty = false
	if d.DMAReadInvalidates {
		l.presence = 0
	}
	return wasDirty
}

func (d *refDirectory) Lines() int { return len(d.lines) }

type refTLB struct {
	capacity int
	tick     uint64
	entries  map[Addr]uint64
	hits     uint64
	lookups  uint64
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: make(map[Addr]uint64, capacity)}
}

func (t *refTLB) Access(addr Addr) bool {
	page := PageOf(addr)
	t.tick++
	t.lookups++
	if _, ok := t.entries[page]; ok {
		t.entries[page] = t.tick
		t.hits++
		return true
	}
	if len(t.entries) >= t.capacity {
		var victim Addr
		oldest := t.tick + 1
		for p, use := range t.entries {
			if use < oldest {
				oldest = use
				victim = p
			}
		}
		delete(t.entries, victim)
	}
	t.entries[page] = t.tick
	return false
}

func (t *refTLB) AccessRange(addr Addr, size int) int {
	if size <= 0 {
		return 0
	}
	walks := 0
	first := PageOf(addr)
	last := PageOf(addr + Addr(size) - 1)
	for page := first; ; page += PageSize {
		if !t.Access(page) {
			walks++
		}
		if page == last {
			break
		}
	}
	return walks
}

func (t *refTLB) Flush() { clear(t.entries) }

func (t *refTLB) Len() int { return len(t.entries) }

func (t *refTLB) HitRate() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.lookups)
}

// refHierarchy is the hierarchy access path before it fetched the
// directory entry once: three separate directory lookups per access.
type refHierarchy struct {
	cpu         int
	l1, l2, llc *refCache
	dir         *refDirectory
}

func newRefHierarchy(cpu int, l1, l2, llc CacheCfg, dir *refDirectory) *refHierarchy {
	return &refHierarchy{cpu: cpu, l1: newRefCache(l1), l2: newRefCache(l2), llc: newRefCache(llc), dir: dir}
}

func (h *refHierarchy) Access(addr Addr, write bool) AccessResult {
	line := LineOf(addr)
	valid := h.dir.HasCopy(h.cpu, line)

	var res AccessResult
	switch {
	case valid && h.l1.Lookup(line):
		res.Level = LevelL1
	case valid && h.l2.Lookup(line):
		res.Level = LevelL2
		h.l1.Fill(line)
	case valid && h.llc.Lookup(line):
		res.Level = LevelLLC
		h.l2.Fill(line)
		h.l1.Fill(line)
	default:
		res.Level = LevelMemory
		res.Remote = h.dir.DirtyElsewhere(h.cpu, line)
		if evicted, wasValid := h.llc.Fill(line); wasValid {
			h.l2.Invalidate(evicted)
			h.l1.Invalidate(evicted)
			h.dir.OnEvict(h.cpu, evicted)
		}
		h.l2.Fill(line)
		h.l1.Fill(line)
	}

	if write {
		h.dir.OnWrite(h.cpu, line)
	} else if res.Level == LevelMemory {
		h.dir.OnRead(h.cpu, line)
	}
	return res
}

// AccessRange is the range walk before it went a page at a time: one
// Access per line.
func (h *refHierarchy) AccessRange(addr Addr, size int, write bool) RangeResult {
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

type refCacheLine struct {
	tag   Addr // line-aligned address
	valid bool
	lru   uint64
}

// refCache is the set-associative cache as an array of 24-byte lines
// with a per-cache tick stamped on every hit and fill; the victim is an
// invalid way if there is one, else the way with the oldest tick.
type refCache struct {
	cfg     CacheCfg
	sets    [][]refCacheLine
	mask    Addr
	tick    uint64
	hits    uint64
	lookups uint64
}

func newRefCache(cfg CacheCfg) *refCache {
	if cfg.LineSize != LineSize {
		panic(fmt.Sprintf("mem: cache %q line size %d unsupported", cfg.Name, cfg.LineSize))
	}
	nLines := cfg.Size / cfg.LineSize
	if cfg.Ways <= 0 || nLines <= 0 || nLines%cfg.Ways != 0 {
		panic(fmt.Sprintf("mem: cache %q bad geometry size=%d ways=%d", cfg.Name, cfg.Size, cfg.Ways))
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q set count %d not a power of two", cfg.Name, nSets))
	}
	sets := make([][]refCacheLine, nSets)
	backing := make([]refCacheLine, nLines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{cfg: cfg, sets: sets, mask: Addr(nSets - 1)}
}

func (c *refCache) set(line Addr) []refCacheLine {
	return c.sets[(line>>LineShift)&c.mask]
}

func (c *refCache) Lookup(line Addr) bool {
	c.lookups++
	c.tick++
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lru = c.tick
			c.hits++
			return true
		}
	}
	return false
}

func (c *refCache) Fill(line Addr) (evicted Addr, wasValid bool) {
	c.tick++
	set := c.set(line)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == line {
			// Already present (e.g. refill after a lazy invalidation):
			// refresh recency only.
			set[i].lru = c.tick
			return 0, false
		}
		if !set[i].valid {
			victim = i
			wasValid = false
			// Prefer an invalid way, but keep scanning for an existing
			// copy of the line.
			continue
		}
		if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		evicted, wasValid = set[victim].tag, true
	}
	set[victim] = refCacheLine{tag: line, valid: true, lru: c.tick}
	return evicted, wasValid
}

func (c *refCache) Invalidate(line Addr) {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].valid = false
			return
		}
	}
}

func (c *refCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

func (c *refCache) HitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.lookups)
}
