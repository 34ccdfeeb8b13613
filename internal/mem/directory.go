package mem

// Directory is the machine-wide coherence state: for every cache line
// ever touched, which CPUs hold a valid copy and whether one of them
// holds it modified. It plays the role of the snooping FSB on the real
// Shasta-G platform, reduced to the facts the simulation needs:
//
//   - a CPU's cached copy is usable only while its presence bit is set;
//     a write elsewhere (or DMA from a NIC) clears it, so the next access
//     takes a miss — this is how context/skb bouncing between processors
//     turns into LLC misses, the paper's primary cache effect;
//   - a read that hits a line modified by another CPU is served by a
//     cache-to-cache transfer, which the PMU model counts as a last-level
//     miss (and flags Remote for diagnostics).
//
// Invalidation is lazy: clearing a presence bit does not walk the other
// CPU's cache arrays; the stale tags simply fail the presence check on
// their next use.
//
// The state is a dense table indexed by line number. Space is a bump
// allocator, so the lines in use form one compact range; the table is
// kept as one pointer-free chunk of entries per 4 KB page, allocated
// when a line of that page first needs state. An untouched page costs
// one nil slot in the page index.
type Directory struct {
	cpus   int
	chunks []*dirChunk // by page number; nil until a line in the page is created
	lines  int         // distinct lines ever created
	// DMAReadInvalidates selects the chipset's transmit-DMA snoop
	// behaviour: when true, a device read of a line evicts CPU copies
	// (invalidate-on-snoop-read, as server chipsets of the era did to
	// shed snoop traffic), so transmit buffers are cache-cold when the
	// allocator recycles them — matching the paper's full-affinity
	// transmit-copy MPI of ~0.01. When false, CPU copies survive.
	DMAReadInvalidates bool
}

const linesPerPage = PageSize / LineSize

// dirChunk holds the entries of one page's lines.
type dirChunk [linesPerPage]dirLine

// dirLine is one line's coherence state, one word wide.
type dirLine struct {
	presence uint32 // bit per CPU
	owner    int8   // valid only while dirty
	dirty    bool
	created  bool // counted by Lines
}

// NewDirectory returns an empty directory for a machine with cpus
// processors (at most 32).
func NewDirectory(cpus int) *Directory {
	if cpus <= 0 || cpus > 32 {
		panic("mem: directory supports 1..32 CPUs")
	}
	return &Directory{cpus: cpus}
}

// peek returns the line's state, or nil if its page has none yet. An
// entry of a present page that was never created reads as the zero
// state, which every operation treats exactly like an absent line.
func (d *Directory) peek(line Addr) *dirLine {
	page := uint64(line >> PageShift)
	if page >= uint64(len(d.chunks)) {
		return nil
	}
	c := d.chunks[page]
	if c == nil {
		return nil
	}
	return &c[(line>>LineShift)%linesPerPage]
}

// entry returns the line's state, creating it. Chunks never move, so the
// pointer stays valid across later calls.
func (d *Directory) entry(line Addr) *dirLine {
	return d.create(&d.chunk(line)[(line>>LineShift)%linesPerPage])
}

// chunk returns the entries of the line's page, allocating them if the
// page has none yet.
func (d *Directory) chunk(line Addr) *dirChunk {
	page := int(line >> PageShift)
	if page < len(d.chunks) && d.chunks[page] != nil {
		return d.chunks[page]
	}
	if page >= len(d.chunks) {
		n := max(page+1, 2*len(d.chunks))
		d.chunks = append(d.chunks, make([]*dirChunk, n-len(d.chunks))...)
	}
	c := new(dirChunk)
	d.chunks[page] = c
	return c
}

// create marks an entry of a present chunk as a tracked line.
func (d *Directory) create(l *dirLine) *dirLine {
	if !l.created {
		l.created = true
		d.lines++
	}
	return l
}

// HasCopy reports whether cpu currently holds a coherent copy of the
// line-aligned address.
func (d *Directory) HasCopy(cpu int, line Addr) bool {
	l := d.peek(line)
	return l != nil && l.hasCopy(cpu)
}

// DirtyElsewhere reports whether the line is modified in some CPU other
// than cpu.
func (d *Directory) DirtyElsewhere(cpu int, line Addr) bool {
	l := d.peek(line)
	return l != nil && l.dirtyElsewhere(cpu)
}

// OnRead records that cpu obtained a readable copy. It returns true if the
// fill was served by a cache-to-cache transfer from a modified remote copy
// (which also writes the line back, leaving it shared).
func (d *Directory) OnRead(cpu int, line Addr) (remote bool) {
	return d.entry(line).onRead(cpu)
}

// OnWrite records that cpu obtained exclusive, modified ownership: every
// other copy is invalidated. It returns true if a modified remote copy had
// to be transferred first.
func (d *Directory) OnWrite(cpu int, line Addr) (remote bool) {
	return d.entry(line).onWrite(cpu)
}

// OnEvict records that cpu dropped its copy (last-level eviction). A
// modified line owned by cpu is written back and becomes clean.
func (d *Directory) OnEvict(cpu int, line Addr) {
	l := d.peek(line)
	if l == nil {
		return
	}
	l.presence &^= 1 << uint(cpu)
	if l.dirty && int(l.owner) == cpu {
		l.dirty = false
	}
}

// DMAWrite records a device write to the line (NIC receive DMA): memory
// now holds the only valid copy, so every CPU's copy is invalidated. The
// next CPU touch is necessarily a memory access — receive payload "is
// always uncached" (§6.1).
func (d *Directory) DMAWrite(line Addr) {
	l := d.entry(line)
	l.presence = 0
	l.dirty = false
}

// DMARead records a device read of the line (NIC transmit DMA): a
// modified CPU copy is flushed to memory first. Whether CPU copies
// survive depends on DMAReadInvalidates.
func (d *Directory) DMARead(line Addr) (wasDirty bool) {
	l := d.peek(line)
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

// Lines reports how many distinct lines the directory tracks, for tests
// and capacity diagnostics.
func (d *Directory) Lines() int { return d.lines }

func (l *dirLine) hasCopy(cpu int) bool { return l.presence&(1<<uint(cpu)) != 0 }

func (l *dirLine) dirtyElsewhere(cpu int) bool { return l.dirty && int(l.owner) != cpu }

func (l *dirLine) onRead(cpu int) (remote bool) {
	if l.dirtyElsewhere(cpu) {
		remote = true
		l.dirty = false
	}
	l.presence |= 1 << uint(cpu)
	return remote
}

func (l *dirLine) onWrite(cpu int) (remote bool) {
	remote = l.dirtyElsewhere(cpu)
	l.presence = 1 << uint(cpu)
	l.dirty = true
	l.owner = int8(cpu)
	return remote
}
