package mem

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// diffRegions are the bases op addresses are drawn from: a dense range
// like a machine's Space, plus far-apart ones so the dense tables' growth
// path (a page far beyond every page seen so far) runs too.
var diffRegions = [...]Addr{PageSize, 1 << 20, 1 << 26, 1 << 29}

const diffCPUs = 4

// diffCacheWays are the associativities of the stand-alone caches the
// cache ops drive, each eight sets deep so lines collide within a set.
var diffCacheWays = [...]int{1, 2, 4, 8}

// diffRig drives the dense directory, TLB, hierarchy and recency-ordered
// caches alongside the references in ref_test.go.
type diffRig struct {
	t      *testing.T
	dir    *Directory
	ref    *refDirectory
	tlb    *TLB
	rtlb   *refTLB
	hier   [diffCPUs]*Hierarchy
	rh     [diffCPUs]*refHierarchy
	cache  [len(diffCacheWays)]*Cache
	rcache [len(diffCacheWays)]*refCache
}

func newDiffRig(t *testing.T, tlbCap int, invalidates bool) *diffRig {
	r := &diffRig{t: t, dir: NewDirectory(diffCPUs), ref: newRefDirectory(),
		tlb: NewTLB(tlbCap), rtlb: newRefTLB(tlbCap)}
	r.dir.DMAReadInvalidates = invalidates
	r.ref.DMAReadInvalidates = invalidates
	// Tiny caches, so fills evict and evictions reach the directory.
	l1 := CacheCfg{Name: "L1", Size: 512, Ways: 2, LineSize: LineSize}
	l2 := CacheCfg{Name: "L2", Size: 1 << 10, Ways: 2, LineSize: LineSize}
	llc := CacheCfg{Name: "LLC", Size: 2 << 10, Ways: 4, LineSize: LineSize}
	for cpu := range r.hier {
		r.hier[cpu] = NewHierarchy(cpu, l1, l2, llc, r.dir)
		r.rh[cpu] = newRefHierarchy(cpu, l1, l2, llc, r.ref)
	}
	for i, ways := range diffCacheWays {
		cfg := CacheCfg{Name: "C", Size: 8 * ways * LineSize, Ways: ways, LineSize: LineSize}
		r.cache[i] = NewCache(cfg)
		r.rcache[i] = newRefCache(cfg)
	}
	return r
}

const (
	opHasCopy = iota
	opDirtyElsewhere
	opOnRead
	opOnWrite
	opOnEvict
	opDMAWrite
	opDMARead
	opToggleInvalidates
	opTLBAccess
	opTLBAccessRange
	opTLBFlush
	opHierAccess
	opCacheLookup
	opCacheFill
	opCacheInvalidate
	opCacheFlush
	opHierAccessRange
	opCacheTouch
	numDiffOps
)

const diffOpBytes = 5

// step decodes one op from five bytes and applies it to both sides.
func (r *diffRig) step(i int, b []byte) {
	op := int(b[0]) % numDiffOps
	cpu := int(b[1]) % diffCPUs
	ci := int(b[1]) % len(diffCacheWays) // the stand-alone cache for cache ops
	c, rc := r.cache[ci], r.rcache[ci]
	// Offsets span 4 MB per region; the low bits pick a byte
	// within the line so alignment is exercised too.
	off := Addr(binary.LittleEndian.Uint16(b[3:5]))<<6 | Addr(b[1]>>2)
	addr := diffRegions[int(b[2])%len(diffRegions)] + off
	line := LineOf(addr)
	t := r.t
	switch op {
	case opHasCopy:
		if got, want := r.dir.HasCopy(cpu, line), r.ref.HasCopy(cpu, line); got != want {
			t.Fatalf("op %d: HasCopy(%d, %#x) = %v, reference %v", i, cpu, line, got, want)
		}
	case opDirtyElsewhere:
		if got, want := r.dir.DirtyElsewhere(cpu, line), r.ref.DirtyElsewhere(cpu, line); got != want {
			t.Fatalf("op %d: DirtyElsewhere(%d, %#x) = %v, reference %v", i, cpu, line, got, want)
		}
	case opOnRead:
		if got, want := r.dir.OnRead(cpu, line), r.ref.OnRead(cpu, line); got != want {
			t.Fatalf("op %d: OnRead(%d, %#x) = %v, reference %v", i, cpu, line, got, want)
		}
	case opOnWrite:
		if got, want := r.dir.OnWrite(cpu, line), r.ref.OnWrite(cpu, line); got != want {
			t.Fatalf("op %d: OnWrite(%d, %#x) = %v, reference %v", i, cpu, line, got, want)
		}
	case opOnEvict:
		r.dir.OnEvict(cpu, line)
		r.ref.OnEvict(cpu, line)
	case opDMAWrite:
		r.dir.DMAWrite(line)
		r.ref.DMAWrite(line)
	case opDMARead:
		if got, want := r.dir.DMARead(line), r.ref.DMARead(line); got != want {
			t.Fatalf("op %d: DMARead(%#x) = %v, reference %v", i, line, got, want)
		}
	case opToggleInvalidates:
		r.dir.DMAReadInvalidates = !r.dir.DMAReadInvalidates
		r.ref.DMAReadInvalidates = !r.ref.DMAReadInvalidates
	case opTLBAccess:
		if got, want := r.tlb.Access(addr), r.rtlb.Access(addr); got != want {
			t.Fatalf("op %d: TLB Access(%#x) = %v, reference %v", i, addr, got, want)
		}
	case opTLBAccessRange:
		size := int(b[1]) * 300 // up to ~19 pages, sometimes 0
		if got, want := r.tlb.AccessRange(addr, size), r.rtlb.AccessRange(addr, size); got != want {
			t.Fatalf("op %d: TLB AccessRange(%#x, %d) = %d, reference %d", i, addr, size, got, want)
		}
	case opTLBFlush:
		r.tlb.Flush()
		r.rtlb.Flush()
	case opHierAccess:
		write := b[1]&0x80 != 0
		if got, want := r.hier[cpu].Access(addr, write), r.rh[cpu].Access(addr, write); got != want {
			t.Fatalf("op %d: cpu %d Access(%#x, write=%v) = %+v, reference %+v", i, cpu, addr, write, got, want)
		}
	case opHierAccessRange:
		write := b[1]&0x80 != 0
		size := int(b[1]&0x7f) * 151 // up to ~19 KB, rarely line-aligned, sometimes 0
		if got, want := r.hier[cpu].AccessRange(addr, size, write), r.rh[cpu].AccessRange(addr, size, write); got != want {
			t.Fatalf("op %d: cpu %d AccessRange(%#x, %d, write=%v) = %+v, reference %+v", i, cpu, addr, size, write, got, want)
		}
	case opCacheLookup:
		r.cacheLookup(i, ci, line)
	case opCacheFill:
		r.cacheFill(i, ci, line)
	case opCacheTouch:
		hit, ev, was := c.Touch(line)
		rhit := rc.Lookup(line)
		var rev Addr
		var rwas bool
		if !rhit {
			rev, rwas = rc.Fill(line)
		}
		if hit != rhit || ev != rev || was != rwas {
			t.Fatalf("op %d: %d-way Touch(%#x) = (%v, %#x, %v), reference Lookup then Fill (%v, %#x, %v)",
				i, diffCacheWays[ci], line, hit, ev, was, rhit, rev, rwas)
		}
	case opCacheInvalidate:
		c.Invalidate(line)
		rc.Invalidate(line)
	case opCacheFlush:
		// A flush on every sixteenth op would keep the caches nearly
		// empty, so only one in 32 of these ops flushes; the rest run
		// the hierarchy's step, a lookup and a fill on a miss.
		if b[3]%32 == 0 {
			c.Flush()
			rc.Flush()
		} else if !r.cacheLookup(i, ci, line) {
			r.cacheFill(i, ci, line)
		}
	}
	if got, want := c.HitRate(), rc.HitRate(); got != want {
		t.Fatalf("op %d: %d-way HitRate() = %v, reference %v", i, diffCacheWays[ci], got, want)
	}
	r.sameSets(i, c, rc)
	h, rh := r.hier[cpu], r.rh[cpu]
	r.sameSets(i, h.l1, rh.l1)
	r.sameSets(i, h.l2, rh.l2)
	r.sameSets(i, h.llc, rh.llc)
	if got, want := r.dir.Lines(), r.ref.Lines(); got != want {
		t.Fatalf("op %d: Lines() = %d, reference %d", i, got, want)
	}
	if got, want := r.tlb.Len(), r.rtlb.Len(); got != want {
		t.Fatalf("op %d: TLB Len() = %d, reference %d", i, got, want)
	}
	if got, want := r.tlb.HitRate(), r.rtlb.HitRate(); got != want {
		t.Fatalf("op %d: TLB HitRate() = %v, reference %v", i, got, want)
	}
}

// sameSets checks that every set of c holds the reference's valid lines
// in its recency order, most recent first, so a state that a result
// would reveal only many ops later fails at the op that caused it.
func (r *diffRig) sameSets(i int, c *Cache, rc *refCache) {
	var validBuf [8]refCacheLine // the rig's caches have at most 8 ways
	var wantBuf [8]uint32
	for s, set := range rc.sets {
		valid := validBuf[:0]
		for _, l := range set {
			if l.valid {
				valid = append(valid, l)
			}
		}
		slices.SortFunc(valid, func(a, b refCacheLine) int { return cmp.Compare(b.lru, a.lru) })
		want := wantBuf[:len(set)]
		clear(want)
		for w, l := range valid {
			want[w] = uint32(l.tag>>LineShift) + 1
		}
		if got := c.tags[s*c.ways : (s+1)*c.ways]; !slices.Equal(got, want) {
			r.t.Fatalf("op %d: %s set %d tags %v, reference %v", i, c.cfg.Name, s, got, want)
		}
	}
}

func (r *diffRig) cacheLookup(i, ci int, line Addr) bool {
	got, want := r.cache[ci].Lookup(line), r.rcache[ci].Lookup(line)
	if got != want {
		r.t.Fatalf("op %d: %d-way Lookup(%#x) = %v, reference %v", i, diffCacheWays[ci], line, got, want)
	}
	return got
}

func (r *diffRig) cacheFill(i, ci int, line Addr) {
	ev, was := r.cache[ci].Fill(line)
	rev, rwas := r.rcache[ci].Fill(line)
	if ev != rev || was != rwas {
		r.t.Fatalf("op %d: %d-way Fill(%#x) = (%#x, %v), reference (%#x, %v)", i, diffCacheWays[ci], line, ev, was, rev, rwas)
	}
}

// runDiff interprets data as a TLB capacity, the initial snoop mode and
// a stream of five-byte ops.
func runDiff(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	r := newDiffRig(t, 1+int(data[0])%80, data[1]&1 != 0)
	ops := data[2:]
	for i := 0; i+diffOpBytes <= len(ops); i += diffOpBytes {
		r.step(i/diffOpBytes, ops[i:i+diffOpBytes])
	}
}

// TestDenseTablesMatchReference drives the dense directory, TLB,
// hierarchy and recency-ordered caches and their references with the
// same seeded random op streams, comparing every result after every op.
func TestDenseTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	streams, ops := 40, 20_000
	if testing.Short() {
		streams = 8
	}
	for s := 0; s < streams; s++ {
		data := make([]byte, 2+ops*diffOpBytes)
		rng.Read(data)
		// Half the streams stay in four pages of the dense region, so
		// lines are revisited often and coherence state builds up, with
		// a TLB smaller than the pages their ranges cover, so it evicts.
		if s%2 == 0 {
			data[0] %= 16
			for i := 2; i+diffOpBytes <= len(data); i += diffOpBytes {
				data[i+2] = 0
				data[i+4] = 0
			}
		}
		runDiff(t, data)
	}
}

// FuzzDenseTables is the fuzzing form of TestDenseTablesMatchReference:
// go test -fuzz FuzzDenseTables ./internal/mem
func FuzzDenseTables(f *testing.F) {
	f.Add([]byte{63, 1, opOnWrite, 0, 0, 1, 0, opHierAccess, 0x81, 0, 1, 0, opDMARead, 0, 0, 1, 0})
	f.Add([]byte{3, 0, opTLBAccessRange, 200, 1, 0, 0, opTLBAccessRange, 200, 3, 0, 0, opTLBFlush, 0, 0, 0, 0})
	f.Add([]byte{0, 0, opDMAWrite, 0, 3, 255, 255, opOnEvict, 1, 3, 255, 255, opHasCopy, 2, 2, 7, 7})
	f.Add([]byte{0, 0, opCacheFill, 1, 0, 0, 0, opCacheFill, 1, 0, 8, 0, opCacheLookup, 1, 0, 0, 0,
		opCacheFill, 1, 0, 16, 0, opCacheInvalidate, 1, 0, 0, 0, opCacheFill, 1, 0, 24, 0})
	// CPU 1 gains a copy from the directory alone, so its range read
	// finds valid lines that no cache level holds, among LLC-resident
	// ones that a fill must evict.
	f.Add([]byte{0, 0, opHierAccessRange, 0x05, 0, 0, 0, opOnRead, 1, 0, 2, 0, opHierAccessRange, 0x15, 0, 0, 0,
		opCacheTouch, 2, 0, 0, 0, opCacheTouch, 2, 0, 8, 0, opCacheTouch, 2, 0, 0, 0})
	// Lines A, B, C and D (offsets 0, 8, 16, 24) share a set at every
	// level. CPU 0 reads them in turn, re-reading A from L1 in between,
	// so A is the LLC's least recently used line but L1's most recent.
	// Then CPU 0 gains line 32 from the directory alone and reads it:
	// its LLC fill evicts A, which must leave L1 before line 32 fills
	// it, or L1 loses D instead.
	f.Add([]byte{63, 0, opHierAccess, 0, 0, 0, 0, opHierAccess, 0, 0, 8, 0, opHierAccess, 0, 0, 0, 0,
		opHierAccess, 0, 0, 16, 0, opHierAccess, 0, 0, 0, 0, opHierAccess, 0, 0, 24, 0, opHierAccess, 0, 0, 0, 0,
		opOnRead, 0, 0, 32, 0, opHierAccess, 0, 0, 32, 0, opHierAccess, 0, 0, 24, 0})
	f.Fuzz(runDiff)
}
