package mem

import "testing"

// TestAccessRangeResidentAllocs pins a 64 KB range access over resident
// lines, the copy loop of every bulk cell, to zero allocations, for
// reads and for writes.
func TestAccessRangeResidentAllocs(t *testing.T) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	const buf, size = Addr(1 << 24), 64 << 10
	h.WarmRange(buf, size)
	for _, write := range []bool{false, true} {
		var r RangeResult
		if allocs := testing.AllocsPerRun(100, func() {
			r = h.AccessRange(buf, size, write)
		}); allocs != 0 {
			t.Errorf("write=%v: %v allocations per 64 KB range access, want 0", write, allocs)
		}
		if r.Misses != 0 || r.Lines != size/LineSize {
			t.Errorf("write=%v: %+v, want %d resident lines", write, r, size/LineSize)
		}
	}
}

// TestTLBAccessAllocs pins TLB translation to zero allocations, on hits
// and on misses that evict.
func TestTLBAccessAllocs(t *testing.T) {
	tlb := NewTLB(64)
	for i := 0; i < 96; i++ {
		tlb.Access(Addr(0x100000 + uint64(i)*PageSize))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		tlb.Access(0x100000)
		tlb.Access(Addr(0x100000 + uint64(i%96)*PageSize))
		i++
	}); allocs != 0 {
		t.Fatalf("%v allocations per TLB access pair, want 0", allocs)
	}
}
