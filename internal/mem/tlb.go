package mem

// TLB models one translation-lookaside buffer as a fully-associative,
// LRU-replaced set of page entries. The P4-era parts had 64-entry
// instruction and data TLBs and no address-space identifiers, so a
// context switch to a different address space flushes everything — one of
// the costs process migration and interrupt intrusion impose.
//
// The entries live in a fixed array of capacity slots; a page-indexed
// table (dense, because Space is a bump allocator) maps each resident
// page to its slot. A miss on a full TLB evicts the slot with the
// smallest last-use tick. Ticks are unique, so the victim is too.
type TLB struct {
	capacity int
	tick     uint64
	slots    []tlbSlot
	slotOf   []uint32 // by page number: slot index + 1, 0 when not resident
	hits     uint64
	lookups  uint64
}

type tlbSlot struct {
	page Addr
	use  uint64 // last-use tick
}

// NewTLB returns an empty TLB holding capacity entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("mem: TLB capacity must be positive")
	}
	return &TLB{capacity: capacity, slots: make([]tlbSlot, 0, capacity)}
}

// Access translates the page containing addr. It reports false on a miss
// (a page walk), installing the entry.
func (t *TLB) Access(addr Addr) bool {
	page := PageOf(addr)
	n := int(page >> PageShift)
	t.tick++
	t.lookups++
	if n < len(t.slotOf) {
		if s := t.slotOf[n]; s != 0 {
			t.slots[s-1].use = t.tick
			t.hits++
			return true
		}
	} else {
		t.slotOf = append(t.slotOf, make([]uint32, max(n+1, 2*len(t.slotOf))-len(t.slotOf))...)
	}
	if len(t.slots) < t.capacity {
		t.slots = append(t.slots, tlbSlot{page: page, use: t.tick})
		t.slotOf[n] = uint32(len(t.slots))
		return false
	}
	victim := 0
	for i := 1; i < len(t.slots); i++ {
		if t.slots[i].use < t.slots[victim].use {
			victim = i
		}
	}
	t.slotOf[t.slots[victim].page>>PageShift] = 0
	t.slots[victim] = tlbSlot{page: page, use: t.tick}
	t.slotOf[n] = uint32(victim + 1)
	return false
}

// AccessRange translates every page in [addr, addr+size) and returns the
// number of walks (misses).
func (t *TLB) AccessRange(addr Addr, size int) int {
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

// Flush empties the TLB (address-space switch).
func (t *TLB) Flush() {
	for _, s := range t.slots {
		t.slotOf[s.page>>PageShift] = 0
	}
	t.slots = t.slots[:0]
}

// Len reports the number of live entries.
func (t *TLB) Len() int { return len(t.slots) }

// HitRate reports lifetime hits/lookups.
func (t *TLB) HitRate() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.lookups)
}
