package mem

import (
	"testing"
	"testing/quick"
)

// Lookup reports whether the line-aligned address is present, updating
// LRU on hit: Touch without the fill. The differential rig and the
// cache tests read a set through it; the model itself only touches.
func (c *Cache) Lookup(line Addr) bool {
	c.lookups++
	t, set := c.tagOf(line)
	for i, v := range set {
		if v == t {
			// Move the tag to the front, shifting the more recently
			// used ways back by one.
			if i > 0 {
				copy(set[1:i+1], set[:i])
				set[0] = t
			}
			c.hits++
			return true
		}
		if v == 0 {
			break
		}
	}
	return false
}

func TestSpaceAllocAlignmentAndNonOverlap(t *testing.T) {
	s := NewSpace()
	a := s.Alloc(100, "a")
	b := s.Alloc(10, "b")
	p := s.AllocPage(8192, "p")
	if a%LineSize != 0 || b%LineSize != 0 {
		t.Fatal("allocations not line-aligned")
	}
	if p%PageSize != 0 {
		t.Fatal("AllocPage not page-aligned")
	}
	if b < a+100 {
		t.Fatal("allocations overlap")
	}
	if r, ok := s.FindRegion(a + 50); !ok || r.Name != "a" {
		t.Fatal("FindRegion failed")
	}
	if _, ok := s.FindRegion(Addr(1)); ok {
		t.Fatal("FindRegion matched unallocated address")
	}
	if len(s.Regions()) != 3 {
		t.Fatalf("regions = %d, want 3", len(s.Regions()))
	}
}

func TestLinesAndPagesIn(t *testing.T) {
	cases := []struct {
		addr  Addr
		size  int
		lines int
		pages int
	}{
		{0, 1, 1, 1},
		{0, 64, 1, 1},
		{0, 65, 2, 1},
		{63, 2, 2, 1},
		{0, 4096, 64, 1},
		{4095, 2, 2, 2},
		{100, 0, 0, 0},
		{128, 256, 4, 1},
	}
	for _, c := range cases {
		if got := LinesIn(c.addr, c.size); got != c.lines {
			t.Errorf("LinesIn(%d,%d) = %d, want %d", c.addr, c.size, got, c.lines)
		}
		if got := PagesIn(c.addr, c.size); got != c.pages {
			t.Errorf("PagesIn(%d,%d) = %d, want %d", c.addr, c.size, got, c.pages)
		}
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache(CacheCfg{Name: "t", Size: 4096, Ways: 4, LineSize: LineSize})
	line := Addr(0x1000)
	if c.Lookup(line) {
		t.Fatal("hit in empty cache")
	}
	c.Fill(line)
	if !c.Lookup(line) {
		t.Fatal("miss after fill")
	}
	c.Invalidate(line)
	if c.Lookup(line) {
		t.Fatal("hit after invalidate")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 4-way, line 64 => set count = 4096/64/4 = 16. Addresses with equal
	// (line>>6)&15 collide.
	c := NewCache(CacheCfg{Name: "t", Size: 4096, Ways: 4, LineSize: LineSize})
	setStride := Addr(16 * LineSize)
	lines := []Addr{0, setStride, 2 * setStride, 3 * setStride, 4 * setStride}
	for _, l := range lines[:4] {
		c.Fill(l)
	}
	// Touch line 0 so it is MRU; then fill a fifth line -> evicts lines[1].
	c.Lookup(lines[0])
	evicted, was := c.Fill(lines[4])
	if !was || evicted != lines[1] {
		t.Fatalf("evicted %#x (valid=%v), want %#x", evicted, was, lines[1])
	}
	if !c.Lookup(lines[0]) || c.Lookup(lines[1]) || !c.Lookup(lines[4]) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestCacheFlushAndHitRate(t *testing.T) {
	c := NewCache(CacheCfg{Name: "t", Size: 4096, Ways: 4, LineSize: LineSize})
	c.Fill(0)
	c.Lookup(0)
	c.Lookup(64)
	if hr := c.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", hr)
	}
	c.Flush()
	if c.Lookup(0) {
		t.Fatal("hit after flush")
	}
}

func TestCacheRefillExistingLineDoesNotEvict(t *testing.T) {
	c := NewCache(CacheCfg{Name: "t", Size: 4096, Ways: 4, LineSize: LineSize})
	c.Fill(0)
	evicted, was := c.Fill(0)
	if was || evicted != 0 {
		t.Fatal("refilling resident line evicted something")
	}
}

// TestCacheTagRange checks the edge of the 32-bit tag: the highest line
// number a tag holds round-trips through a fill and an eviction, and the
// next line panics in every operation instead of aliasing a low line.
func TestCacheTagRange(t *testing.T) {
	c := NewCache(CacheCfg{Name: "t", Size: LineSize, Ways: 1, LineSize: LineSize})
	top := Addr(maxTagLine) << LineShift
	c.Fill(top)
	if !c.Lookup(top) {
		t.Fatal("miss on the highest taggable line after fill")
	}
	if evicted, was := c.Fill(0); !was || evicted != top {
		t.Fatalf("Fill(0) evicted (%#x, %v), want (%#x, true)", evicted, was, top)
	}
	beyond := top + LineSize
	for name, op := range map[string]func(){
		"Lookup":     func() { c.Lookup(beyond) },
		"Fill":       func() { c.Fill(beyond) },
		"Touch":      func() { c.Touch(beyond) },
		"Invalidate": func() { c.Invalidate(beyond) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%#x) did not panic", name, beyond)
				}
			}()
			op()
		}()
	}
	if !c.Lookup(0) {
		t.Fatal("line 0 lost after out-of-range operations")
	}
}

func TestDirectoryReadWriteInvalidation(t *testing.T) {
	d := NewDirectory(2)
	line := Addr(0x40)

	if d.HasCopy(0, line) {
		t.Fatal("copy present in fresh directory")
	}
	if remote := d.OnRead(0, line); remote {
		t.Fatal("first read flagged remote")
	}
	if !d.HasCopy(0, line) {
		t.Fatal("no copy after read")
	}
	// CPU1 writes: CPU0's copy must die.
	d.OnWrite(1, line)
	if d.HasCopy(0, line) {
		t.Fatal("stale copy survived remote write")
	}
	if !d.DirtyElsewhere(0, line) {
		t.Fatal("dirty-elsewhere not reported")
	}
	// CPU0 reads it back: remote transfer, line becomes shared clean.
	if remote := d.OnRead(0, line); !remote {
		t.Fatal("read of remote-dirty line not flagged remote")
	}
	if d.DirtyElsewhere(0, line) || d.DirtyElsewhere(1, line) {
		t.Fatal("line still dirty after sharing read")
	}
	if !d.HasCopy(0, line) || !d.HasCopy(1, line) {
		t.Fatal("sharing read should leave both copies valid")
	}
}

func TestDirectoryEvictWritesBack(t *testing.T) {
	d := NewDirectory(2)
	line := Addr(0x80)
	d.OnWrite(0, line)
	d.OnEvict(0, line)
	if d.HasCopy(0, line) {
		t.Fatal("copy survived eviction")
	}
	if d.DirtyElsewhere(1, line) {
		t.Fatal("evicted dirty line not written back")
	}
}

func TestDirectoryDMA(t *testing.T) {
	d := NewDirectory(2)
	line := Addr(0xc0)
	d.OnWrite(0, line)
	// NIC transmit DMA reads the line: flushes the dirty copy but CPU0
	// keeps a valid shared copy.
	if !d.DMARead(line) {
		t.Fatal("DMA read of dirty line should report a flush")
	}
	if !d.HasCopy(0, line) {
		t.Fatal("DMA read should not invalidate the CPU copy")
	}
	if d.DMARead(line) {
		t.Fatal("second DMA read should find the line clean")
	}
	// NIC receive DMA writes the line: every CPU copy dies.
	d.OnRead(1, line)
	d.DMAWrite(line)
	if d.HasCopy(0, line) || d.HasCopy(1, line) {
		t.Fatal("DMA write left stale CPU copies")
	}
}

func newPair(t *testing.T) (*Hierarchy, *Hierarchy, *Directory) {
	t.Helper()
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	return NewHierarchy(0, l1, l2, llc, d), NewHierarchy(1, l1, l2, llc, d), d
}

func TestHierarchyColdThenWarm(t *testing.T) {
	h0, _, _ := newPair(t)
	addr := Addr(0x10000)
	if r := h0.Access(addr, false); r.Level != LevelMemory {
		t.Fatalf("first touch level %v, want memory", r.Level)
	}
	if r := h0.Access(addr, false); r.Level != LevelL1 {
		t.Fatalf("second touch level %v, want L1", r.Level)
	}
}

func TestHierarchyRemoteDirtyTransfer(t *testing.T) {
	h0, h1, _ := newPair(t)
	addr := Addr(0x20000)
	h0.Access(addr, true) // CPU0 dirties the line
	r := h1.Access(addr, false)
	if r.Level != LevelMemory || !r.Remote {
		t.Fatalf("remote-dirty read = %+v, want memory+remote", r)
	}
	// After the transfer both can read locally.
	if r := h0.Access(addr, false); r.Level != LevelL1 {
		t.Fatalf("original owner lost its copy: %+v", r)
	}
	if r := h1.Access(addr, false); r.Level != LevelL1 {
		t.Fatalf("reader did not keep its copy: %+v", r)
	}
}

func TestHierarchyWriteInvalidatesRemote(t *testing.T) {
	h0, h1, _ := newPair(t)
	addr := Addr(0x30000)
	h0.Access(addr, false)
	h1.Access(addr, true) // CPU1 takes exclusive ownership
	if r := h0.Access(addr, false); r.Level != LevelMemory || !r.Remote {
		t.Fatalf("access to invalidated line = %+v, want remote memory", r)
	}
}

// The ping-pong pattern — two CPUs alternately writing one line — must
// miss on every access after the first. This is exactly the TCP-context
// bouncing the paper blames for no-affinity cache behaviour.
func TestHierarchyPingPongAlwaysMisses(t *testing.T) {
	h0, h1, _ := newPair(t)
	addr := Addr(0x40000)
	h0.Access(addr, true)
	for i := 0; i < 20; i++ {
		var r AccessResult
		if i%2 == 0 {
			r = h1.Access(addr, true)
		} else {
			r = h0.Access(addr, true)
		}
		if r.Level != LevelMemory || !r.Remote {
			t.Fatalf("ping-pong iteration %d served at level %v remote=%v", i, r.Level, r.Remote)
		}
	}
}

func TestHierarchyCapacityEvictionGoesToLLCThenMemory(t *testing.T) {
	h0, _, _ := newPair(t)
	// Stream through 16 KB (double the 8 KB L1): re-touching the start
	// must be served by an outer level, not L1.
	base := Addr(0x100000)
	h0.AccessRange(base, 16<<10, false)
	r := h0.Access(base, false)
	if r.Level == LevelL1 {
		t.Fatal("line survived a 2x-L1 streaming pass")
	}
	if r.Level == LevelMemory {
		t.Fatal("line should still be resident in an outer level")
	}
}

func TestHierarchyLLCEvictionSurrendersCoherence(t *testing.T) {
	d := NewDirectory(2)
	tiny := CacheCfg{Name: "tiny", Size: 1024, Ways: 2, LineSize: LineSize}
	h := NewHierarchy(0, tiny, tiny, tiny, d)
	// Fill far past capacity; early lines must lose their presence bits.
	h.AccessRange(0x1000, 8192, true)
	if d.HasCopy(0, LineOf(0x1000)) {
		t.Fatal("directory still records a copy after certain LLC eviction")
	}
	// And a dirty evicted line must have been written back.
	if d.DirtyElsewhere(1, LineOf(0x1000)) {
		t.Fatal("evicted dirty line still dirty in directory")
	}
}

func TestAccessRangeCounts(t *testing.T) {
	h0, _, _ := newPair(t)
	base := Addr(0x200000)
	r := h0.AccessRange(base, 1500, false)
	if r.Lines != LinesIn(base, 1500) {
		t.Fatalf("lines = %d, want %d", r.Lines, LinesIn(base, 1500))
	}
	if r.Misses != r.Lines {
		t.Fatalf("cold range: misses = %d, want %d", r.Misses, r.Lines)
	}
	r2 := h0.AccessRange(base, 1500, false)
	if r2.L1Hits != r2.Lines {
		t.Fatalf("warm range: l1 hits = %d, want %d", r2.L1Hits, r2.Lines)
	}
	if got := h0.AccessRange(base, 0, false); got.Lines != 0 {
		t.Fatal("zero-size range touched lines")
	}
}

// Property: for any access sequence by one CPU, the sum of per-level hit
// counts equals the number of lines touched.
func TestAccessRangePartitionProperty(t *testing.T) {
	f := func(offsets []uint16, sizes []uint8) bool {
		h, _, _ := newPairQuick()
		n := len(offsets)
		if len(sizes) < n {
			n = len(sizes)
		}
		for i := 0; i < n; i++ {
			addr := Addr(0x1000 + uint64(offsets[i])*8)
			size := int(sizes[i]) + 1
			r := h.AccessRange(addr, size, i%2 == 0)
			if r.L1Hits+r.L2Hits+r.LLCHits+r.Misses != r.Lines {
				return false
			}
			if r.Remote > r.Misses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func newPairQuick() (*Hierarchy, *Hierarchy, *Directory) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	return NewHierarchy(0, l1, l2, llc, d), NewHierarchy(1, l1, l2, llc, d), d
}

func TestTLBHitMissAndCapacity(t *testing.T) {
	tlb := NewTLB(4)
	if tlb.Access(0) {
		t.Fatal("hit in empty TLB")
	}
	if !tlb.Access(100) { // same page
		t.Fatal("miss within cached page")
	}
	for i := 1; i <= 4; i++ {
		tlb.Access(Addr(i * PageSize))
	}
	// Page 0 was LRU and must have been evicted (capacity 4, 5 pages).
	if tlb.Access(0) {
		t.Fatal("LRU page survived over-capacity inserts")
	}
	if tlb.Len() != 4 {
		t.Fatalf("len = %d, want 4", tlb.Len())
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB(64)
	tlb.Access(0)
	tlb.Flush()
	if tlb.Access(0) {
		t.Fatal("hit after flush")
	}
}

func TestTLBAccessRange(t *testing.T) {
	tlb := NewTLB(64)
	walks := tlb.AccessRange(0, 3*PageSize)
	if walks != 3 {
		t.Fatalf("cold walks = %d, want 3", walks)
	}
	if w := tlb.AccessRange(0, 3*PageSize); w != 0 {
		t.Fatalf("warm walks = %d, want 0", w)
	}
	if w := tlb.AccessRange(0, 0); w != 0 {
		t.Fatal("zero-size range walked")
	}
}

func TestP4XeonMPGeometry(t *testing.T) {
	l1, l2, llc := P4XeonMP()
	if l1.Size != 8<<10 || l2.Size != 512<<10 || llc.Size != 2<<20 {
		t.Fatal("paper cache geometry wrong")
	}
	// All three must construct without panicking.
	NewCache(l1)
	NewCache(l2)
	NewCache(llc)
	NewCache(TraceCacheCfg())
}

// Property: the hierarchy is inclusive — any line that hits in L1 or L2
// is also present in the LLC — and the directory never records two dirty
// owners, under a randomized schedule of reads/writes/DMA on two CPUs.
func TestHierarchyInclusionAndDirectoryProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		d := NewDirectory(2)
		l1 := CacheCfg{Name: "l1", Size: 1 << 10, Ways: 2, LineSize: LineSize}
		l2 := CacheCfg{Name: "l2", Size: 4 << 10, Ways: 4, LineSize: LineSize}
		l3 := CacheCfg{Name: "l3", Size: 16 << 10, Ways: 8, LineSize: LineSize}
		hs := []*Hierarchy{
			NewHierarchy(0, l1, l2, l3, d),
			NewHierarchy(1, l1, l2, l3, d),
		}
		lines := make(map[Addr]bool)
		for _, op := range ops {
			cpu := int(op & 1)
			write := op&2 != 0
			dma := op&4 != 0
			line := Addr(0x1000 + uint64(op>>3%512)*LineSize)
			lines[line] = true
			switch {
			case dma && write:
				d.DMAWrite(line)
			case dma:
				d.DMARead(line)
			default:
				hs[cpu].Access(line, write)
			}
		}
		for line := range lines {
			dirtyOwners := 0
			for cpu := 0; cpu < 2; cpu++ {
				if d.DirtyElsewhere(1-cpu, line) {
					dirtyOwners++
				}
				// Inclusion: an inner hit implies LLC presence.
				h := hs[cpu]
				if (h.L1().Lookup(line) || h.L2().Lookup(line)) && !h.LLC().Lookup(line) {
					return false
				}
			}
			if dirtyOwners > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeating the same access twice in a row never downgrades —
// the second access is served at least as close as the first.
func TestAccessLocalityMonotoneProperty(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		h, _, _ := newPairQuick()
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			a := Addr(0x2000 + uint64(addrs[i])*8)
			first := h.Access(a, writes[i])
			second := h.Access(a, writes[i])
			if second.Level > first.Level {
				return false
			}
			if second.Level != LevelL1 {
				return false // an immediate re-touch must be an L1 hit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
