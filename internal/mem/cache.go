package mem

import (
	"fmt"
	"math"
)

// CacheCfg sizes one cache level.
type CacheCfg struct {
	Name     string
	Size     int // total bytes
	Ways     int // associativity
	LineSize int // bytes per line; must currently equal LineSize
}

// P4XeonMP returns the cache geometry of the paper's system under test:
// 8 KB L1D, 512 KB L2 and 2 MB L3 per processor (Gallatin-class Xeon MP).
func P4XeonMP() (l1, l2, llc CacheCfg) {
	l1 = CacheCfg{Name: "L1D", Size: 8 << 10, Ways: 4, LineSize: LineSize}
	l2 = CacheCfg{Name: "L2", Size: 512 << 10, Ways: 8, LineSize: LineSize}
	llc = CacheCfg{Name: "L3", Size: 2 << 20, Ways: 8, LineSize: LineSize}
	return l1, l2, llc
}

// TraceCacheCfg returns the geometry used to model the P4 trace cache
// (12K µops ≈ 16 KB of decoded instruction bytes in this model).
func TraceCacheCfg() CacheCfg {
	return CacheCfg{Name: "TC", Size: 16 << 10, Ways: 8, LineSize: LineSize}
}

// Cache is one set-associative, LRU cache level. It tracks only presence
// (tags); dirtiness and cross-CPU validity live in the coherence
// Directory so invalidation can be lazy.
//
// Each set is ways consecutive 32-bit tags in tags, ordered from most to
// least recently used, with every valid tag ahead of the empty ones. A
// tag is the line number plus one, so 0 marks an empty way. Keeping the
// set in recency order is exactly LRU: a hit moves its tag to the front,
// a fill inserts at the front and, only when no way is empty, evicts the
// last one. It makes the same choices as a last-use tick per line would
// (the tick version lives on as the differential tests' reference):
// ticks are unique, so recency is a total order; a miss changes nothing;
// and which empty way a fill takes is never observable.
type Cache struct {
	cfg     CacheCfg
	tags    []uint32
	ways    int
	mask    Addr
	hits    uint64
	lookups uint64
}

// maxTagLine is the highest line number a 32-bit tag can hold.
const maxTagLine = math.MaxUint32 - 1

// NewCache builds an empty cache. It panics on degenerate geometry.
func NewCache(cfg CacheCfg) *Cache {
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
	return &Cache{cfg: cfg, tags: make([]uint32, nLines), ways: cfg.Ways, mask: Addr(nSets - 1)}
}

// Cfg returns the cache's geometry.
func (c *Cache) Cfg() CacheCfg { return c.cfg }

// tagOf converts a line-aligned address to its tag and set. It is small
// enough to inline into every operation; a line number that does not fit
// a tag panics out of line rather than alias another line.
func (c *Cache) tagOf(line Addr) (uint32, []uint32) {
	n := line >> LineShift
	if n > maxTagLine {
		panic(tagRangeError{c.cfg.Name, line})
	}
	base := int(n&c.mask) * c.ways
	return uint32(n) + 1, c.tags[base : base+c.ways : base+c.ways]
}

// tagRangeError is the panic value of a line beyond the 32-bit tag range;
// its message is formatted only when printed.
type tagRangeError struct {
	cache string
	line  Addr
}

func (e tagRangeError) Error() string {
	return fmt.Sprintf("mem: cache %q line %#x beyond the 32-bit tag range", e.cache, e.line)
}

// Fill installs the line, evicting the LRU way if necessary. It returns
// the evicted line address and true if a valid line was displaced.
//
// One pass inserts the tag at the front and shifts each way back by one
// until it reaches the line's own old way (already present, e.g. a
// refill after a lazy invalidation: recency is refreshed only) or the
// first empty way; otherwise the tag shifted out of the last way is the
// victim.
func (c *Cache) Fill(line Addr) (evicted Addr, wasValid bool) {
	t, set := c.tagOf(line)
	prev := t
	for i, v := range set {
		set[i] = prev
		if v == t || v == 0 {
			return 0, false
		}
		prev = v
	}
	return Addr(prev-1) << LineShift, true
}

// Touch looks the line up and fills it on a miss, in the one pass of
// Fill: it reports whether the line was present and, on a miss, what
// the fill evicted. A hit moves the tag to the front, shifting the more
// recently used ways back by one; hit or miss counts as a lookup.
func (c *Cache) Touch(line Addr) (hit bool, evicted Addr, wasValid bool) {
	c.lookups++
	t, set := c.tagOf(line)
	prev := t
	for i, v := range set {
		set[i] = prev
		if v == t {
			c.hits++
			return true, 0, false
		}
		if v == 0 {
			return false, 0, false
		}
		prev = v
	}
	return false, Addr(prev-1) << LineShift, true
}

// untouch reverts a Touch of line that missed and returned evicted and
// wasValid, leaving the set as it was before; the lookup stays counted.
func (c *Cache) untouch(line, evicted Addr, wasValid bool) {
	_, set := c.tagOf(line)
	copy(set, set[1:])
	set[len(set)-1] = 0
	if wasValid {
		set[len(set)-1] = uint32(evicted>>LineShift) + 1
	}
}

// Invalidate drops the line if present, closing the gap so the empty
// way moves to the back of the set.
func (c *Cache) Invalidate(line Addr) {
	t, set := c.tagOf(line)
	for i, v := range set {
		if v == t {
			copy(set[i:], set[i+1:])
			set[len(set)-1] = 0
			return
		}
		if v == 0 {
			return
		}
	}
}

// Flush empties the cache.
func (c *Cache) Flush() { clear(c.tags) }

// HitRate reports lifetime hits/lookups, for diagnostics and tests.
func (c *Cache) HitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.lookups)
}
