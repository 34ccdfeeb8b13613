package mem

import "testing"

// BenchmarkHierarchyWarmAccess measures the L1-hit fast path.
func BenchmarkHierarchyWarmAccess(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	h.Access(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, false)
	}
}

// BenchmarkHierarchyStreaming measures a cold streaming pass (misses,
// fills, evictions, directory updates) per 4 KB page.
func BenchmarkHierarchyStreaming(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessRange(Addr(0x10000+uint64(i%4096)*PageSize), PageSize, true)
	}
}

// BenchmarkCoherencePingPong measures the remote-dirty transfer path.
func BenchmarkCoherencePingPong(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h0 := NewHierarchy(0, l1, l2, llc, d)
	h1 := NewHierarchy(1, l1, l2, llc, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			h0.Access(0x2000, true)
		} else {
			h1.Access(0x2000, true)
		}
	}
}

// BenchmarkTLB measures the translation fast path.
func BenchmarkTLB(b *testing.B) {
	t := NewTLB(64)
	t.Access(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(0)
	}
}

// BenchmarkTLBMissEviction cycles through more pages than a 64-entry TLB
// holds, so every access misses and evicts the least recently used entry.
func BenchmarkTLBMissEviction(b *testing.B) {
	const pages = 96
	t := NewTLB(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(Addr(0x100000 + uint64(i%pages)*PageSize))
	}
}

// BenchmarkAccessRangePingPong64K alternates a 64 KB write by CPU 0 with a
// 64 KB read by CPU 1 over one directory: every line moves between the
// CPUs, the coherence traffic of a copy-heavy cell without affinity.
func BenchmarkAccessRangePingPong64K(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := [2]*Hierarchy{NewHierarchy(0, l1, l2, llc, d), NewHierarchy(1, l1, l2, llc, d)}
	const buf = Addr(1 << 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h[i&1].AccessRange(buf, 64<<10, i&1 == 0)
	}
}

// BenchmarkCacheLookupFill runs the hierarchy's per-level step, a Touch
// that fills on a miss, on an L2-geometry cache. Even iterations revisit
// a hot half of the cache, which stays resident and hits deep in its
// sets; odd iterations stream through new lines, each a miss that
// evicts.
func BenchmarkCacheLookupFill(b *testing.B) {
	_, l2, _ := P4XeonMP()
	c := NewCache(l2)
	hot := Addr(l2.Size / 2 / LineSize)
	const stream = Addr(1 << 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := Addr(i / 2)
		line := (n % hot) << LineShift
		if i&1 != 0 {
			line = stream + n<<LineShift
		}
		c.Touch(line)
	}
}

// BenchmarkAccessRangeResident64K re-reads a 64 KB buffer on one CPU, the
// shape of a transmit copy's source: the buffer overflows L1 but stays
// in L2 and the LLC, so every line misses L1 and hits L2. Unlike
// BenchmarkAccessRangePingPong64K, whose lines are invalid on every
// pass, it runs the lookup-and-fill path of lines this CPU holds.
func BenchmarkAccessRangeResident64K(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	const buf, size = Addr(1 << 24), 64 << 10
	h.WarmRange(buf, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessRange(buf, size, false)
	}
}
