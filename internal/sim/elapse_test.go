package sim

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// elapseRec is one observation of a scripted run: an actor step, a leaf
// event firing, or a trace-hook call.
type elapseRec struct {
	kind  byte // 'a' actor step, 'l' leaf fired, 't' trace hook
	id    int
	t     Time
	fired uint64
}

// elapseWorld is one engine driven by the scripted workload of
// runElapseDiff. Actors are chains of continuations: each step does a
// few random operations and then either ends or continues d cycles
// later. With inline set, a continuation first tries Elapse(d) and runs
// the next step in place on success; otherwise it schedules the step
// with After. Every decision comes from the world's own RNG, consumed in
// callback order, so two worlds seeded alike stay in lockstep exactly
// as long as their engines fire the same callbacks in the same order.
type elapseWorld struct {
	tb     testing.TB
	e      *Engine
	rng    *RNG
	stop   atomic.Bool
	inline bool
	log    []elapseRec

	fires  []func() // actor continuations, bound once per actor
	actors int      // live actors
	leaves int      // leaves scheduled, the next leaf's id
}

func newElapseWorld(tb testing.TB, seed uint64, inline bool) *elapseWorld {
	w := &elapseWorld{tb: tb, e: NewEngine(seed), rng: NewRNG(seed), inline: inline}
	w.e.SetTrace(func(t Time, fired uint64) {
		w.log = append(w.log, elapseRec{kind: 't', t: t, fired: fired})
	})
	return w
}

// offset draws a delay: same-cycle, short, anywhere in the band, or
// beyond the band (heap-bound).
func (w *elapseWorld) offset() Cycles {
	switch w.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return Cycles(bandBuckets + w.rng.Intn(2*bandBuckets))
	case 2:
		return Cycles(w.rng.Intn(bandBuckets))
	default:
		return Cycles(w.rng.Intn(200))
	}
}

func (w *elapseWorld) spawn(d Cycles) {
	id := len(w.fires)
	w.actors++
	var fire func()
	fire = func() {
		for {
			w.checkLookahead()
			d, more := w.step(id)
			w.checkLookahead()
			if !more {
				w.actors--
				return
			}
			if w.inline && w.e.Elapse(d) {
				continue
			}
			w.e.After(d, fire)
			return
		}
	}
	w.fires = append(w.fires, fire)
	w.e.After(d, fire)
}

func (w *elapseWorld) leaf(d Cycles) {
	id := w.leaves
	w.leaves++
	w.e.After(d, func() {
		w.checkLookahead()
		w.log = append(w.log, elapseRec{kind: 'l', id: id, t: w.e.Now()})
	})
}

// checkLookahead is the oracle of the engine's look-ahead cache: while
// valid, it must hold exactly what a fresh scanBand finds.
func (w *elapseWorld) checkLookahead() {
	e := w.e
	if !e.laValid {
		return
	}
	if t, ok := e.scanBand(); !ok || t != e.laAt {
		w.tb.Fatalf("now %d: look-ahead cache holds %d, scanBand finds (%d, %v) (bandBase %d, %d stored)",
			e.now, e.laAt, t, ok, e.bandBase, e.bandCount)
	}
}

// step is one actor activation: log it, perform up to three random
// operations, then end or continue.
func (w *elapseWorld) step(id int) (Cycles, bool) {
	w.log = append(w.log, elapseRec{kind: 'a', id: id, t: w.e.Now()})
	for n := w.rng.Intn(4); n > 0; n-- {
		switch x := w.rng.Intn(100); {
		case x < 40:
			w.leaf(w.offset())
		case x < 46:
			if w.actors < 12 {
				w.spawn(w.offset())
			}
		case x < 48:
			w.e.Halt()
		case x < 50:
			w.stop.Store(true)
		}
	}
	if w.actors > 1 && w.rng.Intn(25) == 0 {
		return 0, false
	}
	return w.offset(), true
}

// elapseState is everything a caller can observe of an engine.
func elapseState(e *Engine) string {
	return fmt.Sprintf("now=%d pending=%d fired=%d interrupted=%v stats=%+v",
		e.Now(), e.Pending(), e.Fired(), e.Interrupted(), e.Stats())
}

// runElapseDiff drives an Elapse-using engine and an After-only engine
// through one seeded script — Run horizons, SetInterrupt budgets, the
// stop flag, Halt, same-cycle and beyond-band events, a final Drain — and fails on the first observable difference, or on a
// look-ahead cache that disagrees with scanBand at any actor step or
// leaf in either engine. It returns how many events the first engine
// completed in place.
func runElapseDiff(t testing.TB, seed uint64, rounds int) uint64 {
	a, b := newElapseWorld(t, seed, true), newElapseWorld(t, seed, false)
	for _, w := range []*elapseWorld{a, b} {
		w.spawn(0)
		w.spawn(3)
	}
	script := NewRNG(seed ^ 0x5eed)
	for round := 0; round < rounds; round++ {
		now := a.e.Now()
		until := now + Time(script.Intn(3*bandBuckets))
		var budget Time // 0 uninstalls
		if script.Intn(4) == 0 {
			budget = now + Time(script.Intn(2*bandBuckets))
		}
		final := round == rounds-1
		for _, w := range []*elapseWorld{a, b} {
			w.e.SetInterrupt(&w.stop, budget)
			if final {
				w.e.SetInterrupt(nil, 0)
				w.e.Drain()
			} else {
				w.e.Run(until)
			}
			w.stop.Store(false)
		}
		if sa, sb := elapseState(a.e), elapseState(b.e); sa != sb {
			t.Fatalf("seed %d round %d: engine state diverged\n inline: %s\n queued: %s", seed, round, sa, sb)
		}
		if !slices.Equal(a.log, b.log) {
			i := 0
			for i < len(a.log) && i < len(b.log) && a.log[i] == b.log[i] {
				i++
			}
			t.Fatalf("seed %d round %d: observation %d diverged (inline %d records, queued %d)\n inline: %+v\n queued: %+v",
				seed, round, i, len(a.log), len(b.log), a.log[i:min(i+3, len(a.log))], b.log[i:min(i+3, len(b.log))])
		}
	}
	if b.e.Elapsed() != 0 {
		t.Fatalf("seed %d: the queued engine completed %d events in place", seed, b.e.Elapsed())
	}
	return a.e.Elapsed()
}

// TestElapseMatchesQueuedCompletion is the differential test of Elapse
// against the schedule-and-drain path it short-cuts.
func TestElapseMatchesQueuedCompletion(t *testing.T) {
	seeds, rounds := 40, 200
	if testing.Short() {
		seeds = 8
	}
	var inline uint64
	for s := 1; s <= seeds; s++ {
		inline += runElapseDiff(t, uint64(s), rounds)
	}
	if inline == 0 {
		t.Fatal("no continuation completed in place: the test compares nothing")
	}
}

func FuzzElapse(f *testing.F) {
	for _, s := range []uint64{1, 2, 3, 0xdeadbeef} {
		f.Add(s, uint8(60))
	}
	f.Fuzz(func(t *testing.T, seed uint64, rounds uint8) {
		runElapseDiff(t, seed, int(rounds)%120+1)
	})
}

// refuses calls setup and then Elapse(d) from an event callback at time
// 100 of a Run to until, and checks that Elapse returns false and
// leaves every observable of the engine untouched.
func refuses(t *testing.T, until Time, d Cycles, setup func(e *Engine)) {
	t.Helper()
	e := NewEngine(1)
	traced := 0
	e.SetTrace(func(Time, uint64) { traced++ })
	var got bool
	var before, after string
	var tracedBefore int
	e.At(100, func() {
		if setup != nil {
			setup(e)
		}
		before, tracedBefore = elapseState(e), traced
		got = e.Elapse(d)
		after = elapseState(e)
		if tracedBefore != traced {
			t.Error("a refused Elapse called the trace hook")
		}
	})
	e.Run(until)
	if got {
		t.Fatal("Elapse succeeded, want a refusal")
	}
	if before != after {
		t.Fatalf("refused Elapse changed the engine\n before: %s\n after:  %s", before, after)
	}
}

func TestElapseRefusesOutsideRun(t *testing.T) {
	e := NewEngine(1)
	e.At(50, func() {})
	if e.Elapse(10) {
		t.Fatal("Elapse succeeded before any run")
	}
	e.Run(10)
	if e.Elapse(10) {
		t.Fatal("Elapse succeeded after Run returned")
	}
	if e.Now() != 10 || e.Pending() != 1 || e.Fired() != 0 || e.Stats().Scheduled != 1 {
		t.Fatalf("refusals changed the engine: %s", elapseState(e))
	}
}

func TestElapseRefusesWhenHalted(t *testing.T) {
	refuses(t, 1000, 10, func(e *Engine) { e.Halt() })
}

func TestElapseRefusesPastHorizon(t *testing.T) {
	refuses(t, 109, 10, nil)
}

func TestElapseRefusesPastBudget(t *testing.T) {
	refuses(t, 1000, 10, func(e *Engine) { e.SetInterrupt(nil, 109) })
}

func TestElapseRefusesWithStopFlagSet(t *testing.T) {
	var stop atomic.Bool
	refuses(t, 1000, 10, func(e *Engine) {
		e.SetInterrupt(&stop, 0)
		stop.Store(true)
	})
}

func TestElapseRefusesBeyondBand(t *testing.T) {
	refuses(t, Forever-1, bandBuckets, nil)
}

func TestElapseRefusesBehindStoredEvent(t *testing.T) {
	// An earlier event, a same-time event (lower seq, fires first) and
	// a same-cycle event still in now's bucket all come first.
	refuses(t, 1000, 10, func(e *Engine) { e.At(105, func() {}) })
	refuses(t, 1000, 10, func(e *Engine) { e.At(110, func() {}) })
	refuses(t, 1000, 0, func(e *Engine) { e.At(100, func() {}) })
}

// TestElapseSucceedsAtTheLimits checks the inclusive edges: a
// completion exactly at the horizon, exactly at the budget, in the last
// band bucket, and just before a stored event all go in place, leaving
// the same state as scheduling and draining.
func TestElapseSucceedsAtTheLimits(t *testing.T) {
	cases := []struct {
		name  string
		until Time
		d     Cycles
		setup func(e *Engine)
	}{
		{"horizon", 110, 10, nil},
		{"budget", 1000, 10, func(e *Engine) { e.SetInterrupt(nil, 110) }},
		{"last band bucket", Forever - 1, bandBuckets - 101, nil},
		{"before a stored event", 1000, 10, func(e *Engine) { e.At(111, func() {}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var states [2]string
			for i, inline := range []bool{true, false} {
				e := NewEngine(1)
				var trace []Time
				e.SetTrace(func(at Time, _ uint64) { trace = append(trace, at) })
				var resumedAt Time
				e.At(100, func() {
					if c.setup != nil {
						c.setup(e)
					}
					if inline {
						if !e.Elapse(c.d) {
							t.Fatal("Elapse refused")
						}
						resumedAt = e.Now()
						return
					}
					e.After(c.d, func() { resumedAt = e.Now() })
				})
				e.Run(c.until)
				states[i] = fmt.Sprintf("%s resumed=%d trace=%v", elapseState(e), resumedAt, trace)
			}
			if states[0] != states[1] {
				t.Fatalf("inline and queued completion differ\n inline: %s\n queued: %s", states[0], states[1])
			}
		})
	}
}
