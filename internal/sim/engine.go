// Package sim provides the discrete-event simulation core used by every
// other substrate in this repository: a virtual clock measured in CPU
// cycles, a time-ordered event queue, deterministic pseudo-randomness, and
// a strict-handoff coroutine facility that lets simulated processes be
// written in natural blocking style while the engine remains
// single-threaded and fully deterministic.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Time is a point in virtual time, measured in CPU clock cycles of the
// simulated machine's base clock (2 GHz in the paper's configuration).
type Time uint64

// Forever is a Time later than any time an experiment can reach.
const Forever Time = math.MaxUint64

// Cycles is a duration in CPU clock cycles.
type Cycles = uint64

// The event queue is a two-tier ladder: a dense near-horizon band of
// one-cycle buckets covering [bandBase, bandBase+bandBuckets), backed by
// a 4-ary min-heap for the far future. Almost every event a simulation
// schedules — DMA completions, IRQ latencies, instruction-block
// retirements, softirq dispatches — lands within a few thousand cycles
// of now, so the common case is an O(1) append to the bucket chain of
// its exact cycle and an O(1) pop when that cycle is reached; only
// long-horizon events (TCP retransmit timers, link-flap windows) pay
// the heap's log cost.
//
// Correctness rests on two invariants:
//
//  1. band ⊆ [bandBase, bandBase+bandBuckets) and heap ⊆
//     [bandBase+bandBuckets, ∞). The window only ever advances (when the
//     band is empty and the heap's minimum becomes the next event), and
//     every advance migrates newly covered heap events into the band, so
//     no (time, seq) ordering ever spans the two tiers.
//  2. within a bucket, chain order is seq order: every event in a
//     one-cycle bucket has the same time, sequence numbers only grow,
//     and both scheduling and migration append in seq order.
//
// Together these make the drain order exactly the (time, seq) order the
// old single-heap engine produced, so runs are byte-identical.
const (
	bandBucketsLog2 = 14
	// bandBuckets is the near-horizon window: one bucket per cycle.
	bandBuckets = 1 << bandBucketsLog2
	bandMask    = bandBuckets - 1
	bandWords   = bandBuckets / 64
)

// heapArity is the fan-out of the overflow heap. A 4-ary heap trades
// slightly more comparisons per sift-down for half the tree depth of a
// binary heap, which wins on schedule/fire churn.
const heapArity = 4

// compactMinDead is the minimum number of cancelled-but-stored events
// before a compaction sweep of a tier is considered.
const compactMinDead = 64

// handleChunkLog2 sizes the chunks of the handle arena. Chunks are never
// reallocated, so *Event pointers stay valid as the arena grows.
const (
	handleChunkLog2 = 10
	handleChunkSize = 1 << handleChunkLog2
)

// Event is the caller's handle on a scheduled callback: a thin
// generation-checked wrapper over an arena slot. Events fire in
// (time, sequence) order so that simultaneous events run in their
// scheduling order, which keeps runs reproducible.
//
// Handles live in a chunked arena recycled slot-for-slot with the event
// storage, so a handle is only meaningful while its event is pending:
// use it to Cancel before the event fires, then drop it. The generation
// check makes Cancel after firing a safe no-op as long as the handle has
// not been reused by a later schedule.
type Event struct {
	at   Time
	eng  *Engine
	idx  int32
	gen  uint32
	dead bool
}

// At reports the virtual time this event was scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op. The event stays in
// its tier until it is reached or a compaction sweeps it out; Pending
// excludes it immediately.
func (e *Event) Cancel() {
	if e.dead {
		return
	}
	e.dead = true
	eng := e.eng
	if eng == nil || eng.gens[e.idx] != e.gen || eng.deads[e.idx] {
		return // already fired, reaped, or cancelled through another handle
	}
	i := e.idx
	eng.deads[i] = true
	eng.live--
	eng.stats.Cancelled++
	// Compact lazily: once cancelled events outnumber live ones in a
	// tier (and there are enough of them to be worth a sweep), rebuild
	// that tier without them so storage tracks the live population.
	if eng.inHeap[i] {
		eng.heapDead++
		if eng.heapDead >= compactMinDead && eng.heapDead*2 > len(eng.heap) {
			eng.compactHeap()
		}
	} else {
		eng.bandDead++
		if eng.bandDead >= compactMinDead && eng.bandDead*2 > eng.bandCount {
			eng.sweepBand()
		}
	}
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.dead }

// Stats are the engine's scheduling counters, for perf attribution.
// Snapshot them with Engine.Stats; all counters are cumulative over the
// engine's lifetime.
type Stats struct {
	// Scheduled and Fired count events entering and executing;
	// Cancelled counts events killed before firing.
	Scheduled uint64 `json:"scheduled"`
	Fired     uint64 `json:"fired"`
	Cancelled uint64 `json:"cancelled"`
	// PeakPending is the high-water mark of live queued events — the
	// arena never shrinks below it, so it is the engine's memory shape.
	PeakPending int `json:"peak_pending"`
	// BandScheduled and HeapScheduled split Scheduled by tier: the
	// near-horizon ladder band (O(1)) versus the far-future overflow
	// heap (O(log n)). Their ratio is the ladder-band occupancy.
	BandScheduled uint64 `json:"band_scheduled"`
	HeapScheduled uint64 `json:"heap_scheduled"`
	// Migrated counts heap events moved into the band as the window
	// advanced; Compactions counts dead-event sweeps of either tier.
	Migrated    uint64 `json:"migrated"`
	Compactions uint64 `json:"compactions"`
}

// BandShare is the fraction of scheduled events that took the O(1)
// ladder-band path (0 when nothing was scheduled).
func (s Stats) BandShare() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.BandScheduled) / float64(s.Scheduled)
}

// Engine is the discrete-event scheduler. It is not safe for concurrent
// use; the whole simulation runs on a single OS goroutine at a time (the
// coroutine facility hands control around but never runs two goroutines
// concurrently). Distinct engines are fully independent, so whole
// simulations may run concurrently (see internal/core's Runner).
type Engine struct {
	now  Time
	seq  uint64
	live int // pending live events across both tiers

	// Struct-of-arrays event arena, indexed by slot. Slots are recycled
	// through free; gens counts reuses so stale handles detect their
	// slot moved on.
	ats    []Time
	seqs   []uint64
	fns    []func()
	nexts  []int32 // bucket chain link, slot+1 (0 = end)
	gens   []uint32
	deads  []bool
	inHeap []bool
	free   []int32
	chunks []*[handleChunkSize]Event // handle arena, 1:1 with slots

	// Near-horizon band: one-cycle buckets as FIFO chains plus a
	// two-level occupancy bitmap. heads/tails store slot+1 (0 = empty).
	bandBase  Time
	bandCount int // events stored in the band, dead included
	bandDead  int
	heads     [bandBuckets]int32
	tails     [bandBuckets]int32
	bitmap    [bandWords]uint64

	// Far-future overflow tier: 4-ary min-heap of slots by (at, seq).
	heap     []int32
	heapDead int

	rng    *RNG
	fired  uint64
	halted bool
	trace  func(t Time, fired uint64)
	stats  Stats

	// Cooperative interrupt: stop is an externally owned flag polled at
	// bucket boundaries (and every interruptStride fired events within a
	// long same-cycle batch); stopAt is a virtual-time budget past which
	// the run aborts instead of advancing. Both are inert by default —
	// stop nil, stopAt Forever — so an uninterrupted run pays one nil
	// check per drained timestamp and is byte-identical to an engine
	// without the feature.
	stop        *atomic.Bool
	stopAt      Time
	interrupted bool

	// running is set while Run or Drain executes events, and horizon is
	// that call's until (Forever for Drain): Elapse may complete an
	// event in place only inside a run and within its horizon. elapsed
	// counts the events it completed so.
	running bool
	horizon Time
	elapsed uint64
}

// SetTrace installs a hook invoked before every event executes, with the
// event's time and the running fired-event count. Diagnostics only; nil
// disables. The hook must not schedule or cancel events.
func (e *Engine) SetTrace(fn func(t Time, fired uint64)) { e.trace = fn }

// NewEngine returns an engine whose clock starts at zero and whose
// pseudo-random stream is derived from seed. Two engines built with the
// same seed and fed the same schedule produce identical runs.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), stopAt: Forever}
}

// interruptStride spaces the in-bucket interrupt polls: within one
// same-cycle batch the stop flag is checked every 2^12 fired events, so
// even a pathological cell that never advances its clock stays
// cancellable, at a cost far below one atomic load per event.
const interruptStride = 1<<12 - 1

// SetInterrupt installs a cooperative stop signal. Run (and Drain) polls
// flag at every distinct timestamp and aborts the run when it is set;
// deadline aborts the run before any event later than that virtual time
// fires (Forever, or 0, disables the budget). Either abort latches
// Interrupted. A nil flag with a real deadline is a pure cycle budget;
// nil flag and Forever uninstalls. The flag is read with atomic loads, so
// any goroutine may set it while the simulation runs.
func (e *Engine) SetInterrupt(flag *atomic.Bool, deadline Time) {
	e.stop = flag
	if deadline == 0 {
		deadline = Forever
	}
	e.stopAt = deadline
}

// Interrupted reports whether the last Run (or Drain) was cut short by
// the SetInterrupt flag or deadline rather than finishing naturally.
func (e *Engine) Interrupted() bool { return e.interrupted }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG exposes the engine's deterministic random stream.
func (e *Engine) RNG() *RNG { return e.rng }

// Fired reports the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of live events currently queued. Cancelled
// events awaiting removal are not counted.
func (e *Engine) Pending() int { return e.live }

// Stats snapshots the engine's scheduling counters.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Fired = e.fired
	return s
}

// slotLess orders arena slots by (time, sequence) so simultaneous events
// fire in scheduling order.
func (e *Engine) slotLess(a, b int32) bool {
	if e.ats[a] != e.ats[b] {
		return e.ats[a] < e.ats[b]
	}
	return e.seqs[a] < e.seqs[b]
}

// alloc grabs an arena slot, growing the arenas in step when the free
// list is empty. The handle chunk for a new slot is allocated alongside
// it, so handle addresses never move.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		return i
	}
	i := int32(len(e.ats))
	e.ats = append(e.ats, 0)
	e.seqs = append(e.seqs, 0)
	e.fns = append(e.fns, nil)
	e.nexts = append(e.nexts, 0)
	e.gens = append(e.gens, 0)
	e.deads = append(e.deads, false)
	e.inHeap = append(e.inHeap, false)
	if int(i)>>handleChunkLog2 == len(e.chunks) {
		e.chunks = append(e.chunks, new([handleChunkSize]Event))
	}
	return i
}

// freeSlot recycles an arena slot. The callback reference is dropped so
// the closure (and whatever it captures) can be collected, and the
// generation is bumped so stale handles turn inert.
func (e *Engine) freeSlot(i int32) {
	e.fns[i] = nil
	e.gens[i]++
	e.free = append(e.free, i)
}

func (e *Engine) handle(i int32) *Event {
	return &e.chunks[int(i)>>handleChunkLog2][int(i)&(handleChunkSize-1)]
}

// bandPush appends slot i to the bucket chain of its exact cycle.
func (e *Engine) bandPush(i int32, t Time) {
	b := int(t) & bandMask
	e.nexts[i] = 0
	if tail := e.tails[b]; tail != 0 {
		e.nexts[tail-1] = i + 1
	} else {
		e.heads[b] = i + 1
		e.bitmap[b>>6] |= 1 << uint(b&63)
	}
	e.tails[b] = i + 1
	e.inHeap[i] = false
	e.bandCount++
}

func (e *Engine) heapPush(i int32) {
	e.inHeap[i] = true
	h := append(e.heap, i)
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / heapArity
		if !e.slotLess(i, h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = i
	e.heap = h
}

// heapPop removes and returns the heap minimum.
func (e *Engine) heapPop() int32 {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.heapSiftDown(0, last)
	}
	e.inHeap[top] = false
	return top
}

// heapSiftDown places slot x into the heap starting at index j.
func (e *Engine) heapSiftDown(j int, x int32) {
	h := e.heap
	n := len(h)
	for {
		first := heapArity*j + 1
		if first >= n {
			break
		}
		min := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.slotLess(h[c], h[min]) {
				min = c
			}
		}
		if !e.slotLess(h[min], x) {
			break
		}
		h[j] = h[min]
		j = min
	}
	h[j] = x
}

// compactHeap rebuilds the overflow heap without cancelled events,
// recycling their slots.
func (e *Engine) compactHeap() {
	h := e.heap[:0]
	for _, i := range e.heap {
		if e.deads[i] {
			e.inHeap[i] = false
			e.freeSlot(i)
			continue
		}
		h = append(h, i)
	}
	e.heap = h
	if n := len(h); n > 1 {
		for j := (n - 2) / heapArity; j >= 0; j-- {
			e.heapSiftDown(j, h[j])
		}
	}
	e.heapDead = 0
	e.stats.Compactions++
}

// sweepBand filters cancelled events out of every bucket chain,
// preserving chain order, and recycles their slots.
func (e *Engine) sweepBand() {
	for w := range e.bitmap {
		bw := e.bitmap[w]
		for bw != 0 {
			b := w<<6 + bits.TrailingZeros64(bw)
			bw &= bw - 1
			var head, tail int32
			for p := e.heads[b]; p != 0; {
				i := p - 1
				p = e.nexts[i]
				if e.deads[i] {
					e.bandCount--
					e.freeSlot(i)
					continue
				}
				e.nexts[i] = 0
				if tail != 0 {
					e.nexts[tail-1] = i + 1
				} else {
					head = i + 1
				}
				tail = i + 1
			}
			e.heads[b], e.tails[b] = head, tail
			if head == 0 {
				e.bitmap[w] &^= 1 << uint(b&63)
			}
		}
	}
	e.bandDead = 0
	e.stats.Compactions++
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is a programming error and panics: it would silently reorder the
// causality of the simulation.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	i := e.alloc()
	e.ats[i] = t
	e.seqs[i] = e.seq
	e.fns[i] = fn
	e.deads[i] = false
	e.seq++
	e.live++
	e.stats.Scheduled++
	if e.live > e.stats.PeakPending {
		e.stats.PeakPending = e.live
	}
	// t >= now >= bandBase, so the unsigned difference is exact.
	if t-e.bandBase < bandBuckets {
		e.bandPush(i, t)
		e.stats.BandScheduled++
	} else {
		e.heapPush(i)
		e.stats.HeapScheduled++
	}
	h := e.handle(i)
	h.at = t
	h.eng = e
	h.idx = i
	h.gen = e.gens[i]
	h.dead = false
	return h
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, fn func()) *Event {
	return e.At(e.now+Time(d), fn)
}

// Elapse performs, in place, an event that would be scheduled d cycles
// from now and whose callback would only continue the caller: when that
// event is provably the next one to fire, the clock advances to it and
// Elapse returns true, leaving the engine exactly as After(d, fn)
// followed by the drain that fires it would — the same clock, sequence
// number, Stats, Pending and trace-hook calls — minus the round trip.
// The caller then continues as the callback would have.
//
// It refuses (returns false, changing nothing) unless a Run or Drain is
// in progress and not halted, now+d lies within the run's horizon and
// the SetInterrupt budget, the stop flag is clear, d and now+d fall in
// the near-horizon band (so every heap event is later), and no stored band
// bucket, cancelled events included, lies at or before now+d. A
// cancelled event the drain would pass over still counts: draining it
// changes the counts later compaction decisions read. On refusal the
// caller schedules the event as usual.
//
// The equivalence holds only if nothing runs between the call and the
// moment the event would fire except the engine's own drain: the caller
// must be about to hand control straight back to the engine.
func (e *Engine) Elapse(d Cycles) bool {
	t := e.now + Time(d)
	// d < bandBuckets as well as t in the band: scanBand reads bucket
	// times relative to now, so only then would the drain find this
	// event at t. (A Run that stops at its horizon after advancing the
	// window can leave bandBase above now.)
	if !e.running || e.halted || t > e.horizon || t > e.stopAt ||
		d >= bandBuckets || t-e.bandBase >= bandBuckets {
		return false
	}
	if e.stop != nil && e.stop.Load() {
		return false
	}
	if e.bandCount > 0 {
		if first, ok := e.scanBand(); ok && first <= t {
			return false
		}
	}
	e.now = t
	e.seq++
	e.stats.Scheduled++
	e.stats.BandScheduled++
	if e.live >= e.stats.PeakPending {
		e.stats.PeakPending = e.live + 1
	}
	e.fired++
	e.elapsed++
	if e.trace != nil {
		e.trace(t, e.fired)
	}
	return true
}

// Elapsed reports how many events Elapse completed in place. They are
// also counted in Fired and Stats, exactly as queued events are.
func (e *Engine) Elapsed() uint64 { return e.elapsed }

// Halt stops Run before the next event would fire. It is the cooperative
// way for an experiment to end a run at a condition rather than a time.
func (e *Engine) Halt() { e.halted = true }

// scanBand returns the earliest occupied bucket's time. Every set bit
// maps to a unique time in [now, now+bandBuckets) — times below now have
// all fired — so a circular bitmap scan starting at now's bucket finds
// the band minimum.
func (e *Engine) scanBand() (Time, bool) {
	s := int(e.now) & bandMask
	sw := s >> 6
	if w := e.bitmap[sw] &^ (1<<uint(s&63) - 1); w != 0 {
		b := sw<<6 + bits.TrailingZeros64(w)
		return e.now + Time((b-s)&bandMask), true
	}
	for k := 1; k < bandWords; k++ {
		idx := (sw + k) & (bandWords - 1)
		if w := e.bitmap[idx]; w != 0 {
			b := idx<<6 + bits.TrailingZeros64(w)
			return e.now + Time((b-s)&bandMask), true
		}
	}
	if w := e.bitmap[sw] & (1<<uint(s&63) - 1); w != 0 {
		b := sw<<6 + bits.TrailingZeros64(w)
		return e.now + Time((b-s)&bandMask), true
	}
	return 0, false
}

// advance slides the window to start at t0 (the heap minimum, with the
// band empty) and migrates every heap event the window now covers into
// its bucket. Heap pops come out in (at, seq) order, so per-bucket
// chains stay seq-ordered; events scheduled afterwards always carry
// larger sequence numbers, so later appends keep the invariant.
func (e *Engine) advance(t0 Time) {
	e.bandBase = t0
	for len(e.heap) > 0 {
		i := e.heap[0]
		// ats[i] >= t0 (t0 is the heap minimum), so the unsigned
		// difference is exact even when t0+bandBuckets would overflow.
		if e.ats[i]-t0 >= bandBuckets {
			break
		}
		e.heapPop()
		if e.deads[i] {
			e.heapDead--
			e.freeSlot(i)
			continue
		}
		e.bandPush(i, e.ats[i])
		e.stats.Migrated++
	}
}

// next reports the time of the earliest pending event, advancing the
// window when the band has drained and the heap holds the future.
func (e *Engine) next() (Time, bool) {
	if e.bandCount > 0 {
		if t, ok := e.scanBand(); ok {
			return t, true
		}
	}
	for len(e.heap) > 0 {
		i := e.heap[0]
		if e.deads[i] {
			e.heapPop()
			e.heapDead--
			e.freeSlot(i)
			continue
		}
		t0 := e.ats[i]
		e.advance(t0)
		return t0, true
	}
	return 0, false
}

// drainBucket executes every event in now's bucket in one batched pass:
// same-cycle events — including ones scheduled by the events themselves —
// fire back to back without re-probing the queue, in exact seq order.
// The bucket is re-read from now on every pass: when a callback moved
// the clock with Elapse, the drain goes on with the new now's bucket,
// exactly as the drain that fired the elapsed event would have.
func (e *Engine) drainBucket() {
	for {
		b := int(e.now) & bandMask
		p := e.heads[b]
		if p == 0 {
			return
		}
		i := p - 1
		n := e.nexts[i]
		e.heads[b] = n
		if n == 0 {
			e.tails[b] = 0
			e.bitmap[b>>6] &^= 1 << uint(b&63)
		}
		e.bandCount--
		if e.deads[i] {
			e.bandDead--
			e.freeSlot(i)
			continue
		}
		fn := e.fns[i]
		e.freeSlot(i)
		e.live--
		e.fired++
		if e.trace != nil {
			e.trace(e.now, e.fired)
		}
		fn()
		if e.halted {
			return
		}
		if e.stop != nil && e.fired&interruptStride == 0 && e.stop.Load() {
			e.interrupted = true
			return
		}
	}
}

// Run executes events in time order until the queue empties, the clock
// passes until, or Halt is called. It returns the virtual time at which it
// stopped: the horizon when the run exhausted its events (so utilization
// math sees the full interval even if the system went idle), or the time
// of the last fired event when Halt ended the run early.
func (e *Engine) Run(until Time) Time {
	running, horizon := e.running, e.horizon
	e.running, e.horizon = true, until
	defer func() { e.running, e.horizon = running, horizon }()
	e.halted = false
	e.interrupted = false
	for !e.halted {
		if e.stop != nil && e.stop.Load() {
			e.interrupted = true
			break
		}
		t, ok := e.next()
		if !ok || t > until {
			break
		}
		if t > e.stopAt {
			e.interrupted = true
			break
		}
		e.now = t
		e.drainBucket()
		if e.interrupted {
			break
		}
	}
	// Single horizon clamp: unless Halt or an interrupt stopped the run,
	// the whole interval up to `until` has been simulated (every
	// remaining event is later), so the clock advances to the horizon.
	if !e.halted && !e.interrupted && e.now < until {
		e.now = until
	}
	return e.now
}

// Drain runs every remaining event regardless of time. It is intended for
// test teardown, not for experiments. Like Run, it honours Halt and
// reports each fired event to the SetTrace hook, so a consumer observing
// the run sees teardown events too.
func (e *Engine) Drain() {
	running, horizon := e.running, e.horizon
	e.running, e.horizon = true, Forever
	defer func() { e.running, e.horizon = running, horizon }()
	e.halted = false
	e.interrupted = false
	for !e.halted {
		if e.stop != nil && e.stop.Load() {
			// A cancelled run wants a fast unwind, teardown included;
			// undrained events are plain garbage for the collector.
			e.interrupted = true
			return
		}
		t, ok := e.next()
		if !ok {
			return
		}
		e.now = t
		e.drainBucket()
		if e.interrupted {
			return
		}
	}
}
