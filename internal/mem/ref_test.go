package mem

// Reference implementations for the differential tests: the map-based
// coherence directory, TLB and hierarchy access path that the dense
// tables replaced. They are kept verbatim in behaviour and must not be
// optimised; diff_test.go checks the fast paths against them.

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
	l1, l2, llc *Cache
	dir         *refDirectory
}

func newRefHierarchy(cpu int, l1, l2, llc CacheCfg, dir *refDirectory) *refHierarchy {
	return &refHierarchy{cpu: cpu, l1: NewCache(l1), l2: NewCache(l2), llc: NewCache(llc), dir: dir}
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
