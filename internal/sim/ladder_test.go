package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestEngineArenaReuseUnderBurst pins the memory behavior that replaced
// the old bounded free list: a scheduling burst grows the arena to the
// burst's peak, and every later burst of the same size reuses those
// slots without growing storage again.
func TestEngineArenaReuseUnderBurst(t *testing.T) {
	e := NewEngine(1)
	const burst = 50_000
	fire := func() {
		for i := 0; i < burst; i++ {
			// Spread across both tiers: half near-horizon, half far-future.
			d := Cycles(i % 100)
			if i%2 == 1 {
				d = Cycles(bandBuckets + i)
			}
			e.After(d, func() {})
		}
		e.Drain()
	}
	fire()
	grown := len(e.ats)
	if grown < burst {
		t.Fatalf("arena holds %d slots after a %d-event burst", grown, burst)
	}
	if len(e.free) != grown {
		t.Fatalf("after drain %d of %d slots are free", len(e.free), grown)
	}
	for round := 0; round < 3; round++ {
		fire()
		if len(e.ats) != grown {
			t.Fatalf("round %d: arena grew from %d to %d slots on an identical burst",
				round, grown, len(e.ats))
		}
	}
	if s := e.Stats(); s.PeakPending > grown {
		t.Fatalf("peak pending %d exceeds arena size %d", s.PeakPending, grown)
	}
}

// TestEngineLadderTierOrdering drives events through both tiers and the
// migration between them, checking global (time, seq) order.
func TestEngineLadderTierOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	// Far-future events first (heap tier), then near ones (band tier),
	// interleaved times so migration has to weave them together.
	for i := 0; i < 200; i++ {
		at := Time(bandBuckets*3 + (i*37)%500)
		e.At(at, func() { got = append(got, e.Now()) })
	}
	for i := 0; i < 200; i++ {
		at := Time((i * 13) % 1000)
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Drain()
	if len(got) != 400 {
		t.Fatalf("fired %d of 400 events", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d fired at %d after an event at %d", i, got[i], got[i-1])
		}
	}
	if s := e.Stats(); s.Migrated == 0 {
		t.Fatalf("expected heap→band migrations, stats: %+v", s)
	}
}

// TestEngineSameCycleBatch checks batched same-cycle dispatch: events
// scheduled at now from inside a callback run in the same drain pass, in
// scheduling order, before time moves.
func TestEngineSameCycleBatch(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.At(50, func() {
		order = append(order, "a")
		e.At(50, func() { order = append(order, "c") })
		e.After(0, func() { order = append(order, "d") })
	})
	e.At(50, func() { order = append(order, "b") })
	e.At(51, func() { order = append(order, "e") })
	e.Run(100)
	if got := strings.Join(order, ""); got != "abcde" {
		t.Fatalf("fire order %q, want abcde", got)
	}
}

// TestEngineStatsCounters checks the Stats bookkeeping identity
// Scheduled = Fired + Pending and the tier split.
func TestEngineStatsCounters(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.After(Cycles(i), func() {})
	}
	for i := 0; i < 50; i++ {
		e.After(Cycles(bandBuckets*2+i), func() {})
	}
	e.Run(200)
	s := e.Stats()
	if s.Scheduled != 150 {
		t.Fatalf("Scheduled = %d, want 150", s.Scheduled)
	}
	if s.BandScheduled != 100 || s.HeapScheduled != 50 {
		t.Fatalf("tier split %d/%d, want 100/50", s.BandScheduled, s.HeapScheduled)
	}
	if s.Fired != 100 || e.Pending() != 50 {
		t.Fatalf("Fired %d, Pending %d, want 100 and 50", s.Fired, e.Pending())
	}
	if got := s.Fired + uint64(e.Pending()); got != s.Scheduled {
		t.Fatalf("Fired %d + Pending %d = %d, want Scheduled %d",
			s.Fired, e.Pending(), got, s.Scheduled)
	}
	if s.PeakPending != 150 {
		t.Fatalf("PeakPending = %d, want 150", s.PeakPending)
	}
	if share := s.BandShare(); share <= 0.6 || share >= 0.7 {
		t.Fatalf("BandShare = %v, want 100/150", share)
	}
}

// TestEngineBandWrap schedules across a band-window wrap boundary so the
// circular bitmap scan has to look past the wrap point.
func TestEngineBandWrap(t *testing.T) {
	e := NewEngine(1)
	// Park the clock most of the way through the first band window.
	e.At(bandBuckets-10, func() {})
	e.Run(bandBuckets - 10)
	var got []Time
	for i := 0; i < 40; i++ {
		e.After(Cycles(i), func() { got = append(got, e.Now()) })
	}
	e.Drain()
	if len(got) != 40 {
		t.Fatalf("fired %d of 40 wrap-spanning events", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("wrap broke ordering: %d after %d", got[i], got[i-1])
		}
	}
}

// TestCoroPanicPropagatesToResume checks that a panic inside a coroutine
// body resurfaces on the engine side, at the Resume that ran the body,
// with the coroutine's name attached.
func TestCoroPanicPropagatesToResume(t *testing.T) {
	c := NewCoro("exploder", func(c *Coro) {
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Resume did not re-panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "exploder") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %q lacks coroutine name or cause", msg)
		}
		if !c.Done() {
			t.Fatal("panicked coroutine not marked done")
		}
	}()
	c.Resume()
}

// TestCoroPanicAfterParkPropagates is the panic path that used to crash
// the process from the coroutine's goroutine: a body that has parked
// once and panics on a later leg must surface at that later Resume.
func TestCoroPanicAfterParkPropagates(t *testing.T) {
	c := NewCoro("lateboom", func(c *Coro) {
		c.Park()
		panic("late")
	})
	c.Resume() // first leg parks cleanly
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "late") {
			t.Fatalf("second Resume panic = %v, want the body's panic", r)
		}
	}()
	c.Resume()
}

// TestCoroParkResumeHandoffState walks the Parked/Done flags through a
// multi-leg body under the single-channel handoff.
func TestCoroParkResumeHandoffState(t *testing.T) {
	legs := 0
	c := NewCoro("walker", func(c *Coro) {
		for i := 0; i < 3; i++ {
			legs++
			c.Park()
		}
		legs++
	})
	for i := 1; i <= 3; i++ {
		c.Resume()
		if legs != i {
			t.Fatalf("after Resume %d body ran %d legs", i, legs)
		}
		if !c.Parked() || c.Done() {
			t.Fatalf("after Resume %d: parked=%v done=%v", i, c.Parked(), c.Done())
		}
	}
	c.Resume()
	if legs != 4 || !c.Done() || c.Parked() {
		t.Fatalf("final leg: legs=%d done=%v parked=%v", legs, c.Done(), c.Parked())
	}
}

// TestCoroKillOfKilledAndFinished pins Kill's idempotence across every
// terminal state.
func TestCoroKillOfKilledAndFinished(t *testing.T) {
	ran := NewCoro("ran", func(c *Coro) {})
	ran.Resume()
	ran.Kill() // finished: no-op
	if !ran.Done() {
		t.Fatal("finished coroutine lost Done after Kill")
	}
	parked := NewCoro("parked", func(c *Coro) { c.Park() })
	parked.Resume()
	parked.Kill()
	parked.Kill() // killed: no-op
	if !parked.Done() {
		t.Fatal("killed coroutine not done")
	}
}

// BenchmarkEngineSameCycleBatch measures the batched dispatch path: a
// fan-out burst at a single cycle, drained in one pass.
func BenchmarkEngineSameCycleBatch(b *testing.B) {
	e := NewEngine(1)
	const fan = 64
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += fan {
		at := e.Now() + 1
		for i := 0; i < fan; i++ {
			e.At(at, nop)
		}
		e.Run(at)
	}
}
