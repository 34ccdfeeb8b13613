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

// Stats are the engine's scheduling counters, for perf attribution.
// Snapshot them with Engine.Stats; all counters are cumulative over the
// engine's lifetime.
type Stats struct {
	// Scheduled and Fired count events entering and executing. Every
	// scheduled event fires, so they differ by the events still pending.
	Scheduled uint64 `json:"scheduled"`
	Fired     uint64 `json:"fired"`
	// PeakPending is the high-water mark of queued events — the
	// arena never shrinks below it, so it is the engine's memory shape.
	PeakPending int `json:"peak_pending"`
	// BandScheduled and HeapScheduled split Scheduled by tier: the
	// near-horizon ladder band (O(1)) versus the far-future overflow
	// heap (O(log n)). Their ratio is the ladder-band occupancy.
	BandScheduled uint64 `json:"band_scheduled"`
	HeapScheduled uint64 `json:"heap_scheduled"`
	// Migrated counts heap events moved into the band as the window
	// advanced.
	Migrated uint64 `json:"migrated"`
}

// BandShare is the fraction of scheduled events that took the O(1)
// ladder-band path (0 when nothing was scheduled).
func (s Stats) BandShare() float64 {
	if s.Scheduled == 0 {
		return 0
	}
	return float64(s.BandScheduled) / float64(s.Scheduled)
}

// Engine is the discrete-event scheduler. Every scheduled event fires, in
// (time, sequence) order, so simultaneous events run in their scheduling
// order, which keeps runs reproducible. It is not safe for concurrent
// use; the whole simulation runs on a single OS goroutine at a time (the
// coroutine facility hands control around but never runs two goroutines
// concurrently). Distinct engines are fully independent, so whole
// simulations may run concurrently (see internal/core's Runner).
type Engine struct {
	now Time
	seq uint64

	// Struct-of-arrays event arena, indexed by slot. Slots are recycled
	// through free.
	ats   []Time
	seqs  []uint64
	fns   []func()
	nexts []int32 // bucket chain link, slot+1 (0 = end)
	free  []int32

	// Near-horizon band: one-cycle buckets as FIFO chains plus a
	// two-level occupancy bitmap. heads/tails store slot+1 (0 = empty).
	bandBase  Time
	bandCount int // events stored in the band
	heads     [bandBuckets]int32
	tails     [bandBuckets]int32
	bitmap    [bandWords]uint64
	// laAt caches scanBand's answer while laValid holds: the earliest
	// occupied bucket's time as scanBand reads it relative to now.
	// bandPush lowers it; whatever empties a bucket or moves now past
	// the buckets it read clears laValid.
	laValid bool
	laAt    Time

	// Far-future overflow tier: 4-ary min-heap of slots by (at, seq).
	heap []int32

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
	// woken is set once a Resume of a driving coroutine has arrived:
	// every drive stops after the event that made it (Drive).
	woken bool
}

// alwaysPark makes every Drive refuse, so each waiting context parks.
// Tests set it (export_test.go) to compare the two paths.
var alwaysPark bool

// SetTrace installs a hook invoked before every event executes, with the
// event's time and the running fired-event count. Diagnostics only; nil
// disables. The hook must not schedule events.
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

// Pending reports the number of events currently queued.
func (e *Engine) Pending() int { return e.bandCount + len(e.heap) }

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
// list is empty.
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
	return i
}

// freeSlot recycles an arena slot. The callback reference is dropped so
// the closure (and whatever it captures) can be collected.
func (e *Engine) freeSlot(i int32) {
	e.fns[i] = nil
	e.free = append(e.free, i)
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
	e.bandCount++
	if e.laValid {
		if at := e.now + Time((b-int(e.now))&bandMask); at < e.laAt {
			e.laAt = at
		}
	}
}

func (e *Engine) heapPush(i int32) {
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

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is a programming error and panics: it would silently reorder the
// causality of the simulation.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	i := e.alloc()
	e.ats[i] = t
	e.seqs[i] = e.seq
	e.fns[i] = fn
	e.seq++
	e.stats.Scheduled++
	// t >= now >= bandBase, so the unsigned difference is exact.
	if t-e.bandBase < bandBuckets {
		e.bandPush(i, t)
		e.stats.BandScheduled++
	} else {
		e.heapPush(i)
		e.stats.HeapScheduled++
	}
	if n := e.Pending(); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Cycles, fn func()) {
	e.At(e.now+Time(d), fn)
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
// bucket lies at or before now+d. On refusal the caller schedules the
// event as usual.
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
	if e.bandCount > 0 && e.lookahead() <= t {
		return false
	}
	e.now = t
	e.seq++
	e.stats.Scheduled++
	e.stats.BandScheduled++
	if n := e.Pending(); n >= e.stats.PeakPending {
		e.stats.PeakPending = n + 1
	}
	e.fired++
	e.elapsed++
	if e.trace != nil {
		e.trace(t, e.fired)
	}
	return true
}

// Drive lets the coroutine co, which has just scheduled the event it
// waits for and would otherwise park, fire the pending events itself,
// from its own stack, in (time, seq) order, exactly as the drain that co
// would park into: the same trace-hook calls and counters, the same
// clock moves, and the same halt, stop-flag, budget and horizon rules.
// When one of them resumes co — that Resume only marks co woken — Drive
// returns true as soon as that event has returned, and co goes on as the
// resumed coroutine would have: without a coroutine switch.
//
// Drives nest. A coroutine that an event of a drive resumes runs on its
// own stack and may drive in turn while the outer drive waits under it.
// A Resume of any driving coroutine stops every drive after the event
// that made it; the driving coroutines above the woken one park, so it
// goes on next, as it would have inside that event.
//
// Drive returns false when the drain would go no further, or may not be
// known to: no Run or Drain is in progress, the run is halted or
// interrupted, the stop flag is set, the next event lies past the run's
// horizon or the SetInterrupt budget, or another driver was woken. It
// may fire events before it refuses. Either way it leaves the engine
// exactly as the drain would at that point, and co parks: the drain
// below co then goes on from there and makes the same decision itself.
// To keep that true at the horizon, Drive peeks the heap rather than
// advance the window to an event it will not fire (an advanced window
// is read relative to now and would alias a later bucket, bug D′).
//
// The equivalence with parking holds only if the caller parks when
// Drive refuses, and nothing else runs between co's Drive and that park.
func (e *Engine) Drive(co *Coro) bool {
	if alwaysPark || !e.running {
		return false
	}
	co.driver = e
	// Run's loop. Its first stop-flag poll may come mid-batch, where
	// the drain polls only every interruptStride events; refusing
	// there is exact all the same. A stride poll that interrupts a
	// batch is repeated, at the same count, by the drain co parks into.
	for !e.halted && !e.interrupted && (e.stop == nil || !e.stop.Load()) {
		t, ok := e.peek()
		if !ok || t > e.horizon || t > e.stopAt {
			break
		}
		if e.bandCount == 0 {
			e.advance(t)
		}
		e.now = t
		e.drainBucket()
		if e.woken {
			break
		}
	}
	woken := co.woken
	co.driver = nil
	if woken {
		co.woken, e.woken = false, false
	}
	return woken
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

// lookahead is scanBand through the laAt cache, for a band that holds
// an event (so the scan finds one). Elapse and next call it once per
// call; an unchanged band answers in O(1).
func (e *Engine) lookahead() Time {
	if !e.laValid {
		e.laAt, _ = e.scanBand()
		e.laValid = true
	}
	return e.laAt
}

// advance slides the window to start at t0 (the heap minimum, with the
// band empty) and migrates every heap event the window now covers into
// its bucket. Heap pops come out in (at, seq) order, so per-bucket
// chains stay seq-ordered; events scheduled afterwards always carry
// larger sequence numbers, so later appends keep the invariant.
func (e *Engine) advance(t0 Time) {
	e.bandBase = t0
	e.laValid = false
	for len(e.heap) > 0 {
		i := e.heap[0]
		// ats[i] >= t0 (t0 is the heap minimum), so the unsigned
		// difference is exact even when t0+bandBuckets would overflow.
		if e.ats[i]-t0 >= bandBuckets {
			break
		}
		e.heapPop()
		e.bandPush(i, e.ats[i])
		e.stats.Migrated++
	}
}

// peek reports the time of the earliest pending event as next finds it,
// without advancing the window.
func (e *Engine) peek() (Time, bool) {
	if e.bandCount > 0 {
		return e.lookahead(), true
	}
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.ats[e.heap[0]], true
}

// next reports the time of the earliest pending event, advancing the
// window when the band has drained and the heap holds the future.
func (e *Engine) next() (Time, bool) {
	t, ok := e.peek()
	if ok && e.bandCount == 0 {
		e.advance(t)
	}
	return t, ok
}

// drainBucket executes every event in now's bucket in one batched pass:
// same-cycle events — including ones scheduled by the events themselves —
// fire back to back without re-probing the queue, in exact seq order.
// The bucket is re-read from now on every pass: when a callback moved
// the clock with Elapse, or a coroutine it resumed drove the run on
// (Drive), the drain goes on with the new now's bucket, exactly as the
// drain that fired those events would have. In a drive it returns as
// soon as the event that resumed the driving coroutine has returned.
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
			e.laValid = false
		}
		e.bandCount--
		fn := e.fns[i]
		e.freeSlot(i)
		e.fired++
		if e.trace != nil {
			e.trace(e.now, e.fired)
		}
		fn()
		if e.halted || e.woken {
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
		e.laValid = false
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
