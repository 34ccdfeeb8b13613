package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100 (advance to horizon)", e.Now())
	}
}

func TestEngineSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(50, func() { order = append(order, i) })
	}
	e.Run(50)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events reordered: %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.At(40, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run(100)
	if at != 45 {
		t.Fatalf("After fired at %d, want 45", at)
	}
}

func TestEngineHaltStopsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(10, func() { count++; e.Halt() })
	e.At(20, func() { count++ })
	stopped := e.Run(100)
	if count != 1 {
		t.Fatalf("count = %d, want 1 (halt should stop run)", count)
	}
	if stopped != 10 {
		t.Fatalf("Run returned %d, want 10", stopped)
	}
	// Remaining event still queued; a later Run picks it up.
	e.Run(100)
	if count != 2 {
		t.Fatalf("count = %d after second run, want 2", count)
	}
}

func TestEngineRunStopsAtHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(200, func() { fired = true })
	e.Run(100)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	e.Run(300)
	if !fired {
		t.Fatal("event not fired by later run")
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine(1)
	e.At(50, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(10, func() {})
	})
	e.Run(100)
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []uint64 {
		e := NewEngine(seed)
		var draws []uint64
		var step func()
		step = func() {
			draws = append(draws, e.RNG().Uint64())
			if len(draws) < 50 {
				e.After(Cycles(1+e.RNG().Intn(100)), step)
			}
		}
		e.At(0, step)
		e.Run(Forever - 1)
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverged at draw %d", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		nn := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBinomialBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16, pRaw uint16) bool {
		r := NewRNG(seed)
		nn := int(n % 2000)
		p := float64(pRaw) / 65535
		k := r.Binomial(nn, p)
		return k >= 0 && k <= nn
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBinomialMean(t *testing.T) {
	r := NewRNG(11)
	const n, p, trials = 1000, 0.3, 2000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Binomial(n, p)
	}
	mean := float64(sum) / trials
	if mean < 290 || mean > 310 {
		t.Fatalf("binomial mean %.1f far from expected 300", mean)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(1000, 0.25)
		if v < 750 || v > 1250 {
			t.Fatalf("jitter %d outside [750,1250]", v)
		}
	}
	if r.Jitter(0, 0.5) != 0 {
		t.Fatal("jitter of 0 should be 0")
	}
	if r.Jitter(500, 0) != 500 {
		t.Fatal("jitter with frac 0 should be identity")
	}
}

func TestRNGBernoulliExtremes(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestCoroBasicHandoff(t *testing.T) {
	var trace []string
	c := NewCoro("worker", func(c *Coro) {
		trace = append(trace, "a")
		c.Park()
		trace = append(trace, "b")
		c.Park()
		trace = append(trace, "c")
	})
	trace = append(trace, "0")
	c.Resume()
	trace = append(trace, "1")
	c.Resume()
	trace = append(trace, "2")
	c.Resume()
	if c.Done() != true {
		t.Fatal("coroutine not done after body returned")
	}
	want := "0a1b2c"
	got := ""
	for _, s := range trace {
		got += s
	}
	if got != want {
		t.Fatalf("handoff order %q, want %q", got, want)
	}
}

func TestCoroKillRunsDefers(t *testing.T) {
	cleaned := false
	c := NewCoro("victim", func(c *Coro) {
		defer func() { cleaned = true }()
		c.Park()
		t.Error("body continued past kill")
	})
	c.Resume()
	c.Kill()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on Kill")
	}
	if !c.Done() {
		t.Fatal("killed coroutine not done")
	}
}

func TestCoroKillUnstarted(t *testing.T) {
	c := NewCoro("never", func(c *Coro) { t.Error("body ran") })
	c.Kill()
	if !c.Done() {
		t.Fatal("unstarted coroutine not done after Kill")
	}
}

func TestCoroResumeAfterDonePanics(t *testing.T) {
	c := NewCoro("oneshot", func(c *Coro) {})
	c.Resume()
	defer func() {
		if recover() == nil {
			t.Error("resume of finished coroutine did not panic")
		}
	}()
	c.Resume()
}

func TestCoroWithEngineInterleaving(t *testing.T) {
	// Two simulated "processes" ping-pong via engine events; the
	// interleaving must be exactly alternating.
	e := NewEngine(1)
	var log []string
	mk := func(name string, period Cycles) *Coro {
		var c *Coro
		c = NewCoro(name, func(c *Coro) {
			for i := 0; i < 3; i++ {
				log = append(log, name)
				e.After(period, func() { c.Resume() })
				c.Park()
			}
		})
		return c
	}
	a := mk("a", 10)
	b := mk("b", 10)
	e.At(0, func() { a.Resume() })
	e.At(5, func() { b.Resume() })
	e.Run(1000)
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(log) != len(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log %v, want %v", log, want)
		}
	}
}

func TestEngineTraceHook(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.SetTrace(func(at Time, fired uint64) { trace = append(trace, at) })
	e.At(5, func() {})
	e.At(9, func() {})
	e.Run(100)
	if len(trace) != 2 || trace[0] != 5 || trace[1] != 9 {
		t.Fatalf("trace = %v", trace)
	}
	e.SetTrace(nil)
	e.At(200, func() {})
	e.Run(300)
	if len(trace) != 2 {
		t.Fatal("disabled trace still recorded")
	}
}

func TestEngineEventRecyclingKeepsDeterminism(t *testing.T) {
	// Heavy schedule/fire churn cycles events through the free list; the
	// (time, seq) order must stay exact.
	e := NewEngine(1)
	var last Time
	count := 0
	var step func()
	step = func() {
		if e.Now() < last {
			t.Fatalf("time went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		count++
		if count < 10_000 {
			e.After(Cycles(1+e.RNG().Intn(7)), step)
		}
	}
	e.At(0, step)
	e.Run(Forever - 1)
	if count != 10_000 {
		t.Fatalf("ran %d events, want 10000", count)
	}
}

func TestEngineHaltLeavesClockAtStopPoint(t *testing.T) {
	// Halt leaves the clock at the last fired event even when the queue
	// drains, rather than jumping to the horizon.
	e := NewEngine(1)
	e.At(10, func() { e.Halt() })
	if got := e.Run(100); got != 10 {
		t.Fatalf("halted Run returned %d, want 10", got)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d after halt, want 10", e.Now())
	}
	// A later Run with nothing scheduled advances to its horizon.
	if got := e.Run(200); got != 200 {
		t.Fatalf("Run after halt returned %d, want 200", got)
	}
}

func TestEngineRunWithHorizonInPast(t *testing.T) {
	e := NewEngine(1)
	e.At(50, func() {})
	e.Run(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %d, want 100", e.Now())
	}
	// A horizon behind the clock fires nothing and leaves the clock alone.
	fired := false
	e.At(300, func() { fired = true })
	if got := e.Run(90); got != 100 {
		t.Fatalf("Run(90) returned %d, want 100", got)
	}
	if fired {
		t.Fatal("event beyond a past horizon fired")
	}
}

func TestEngineDrainRunsEverything(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.At(10, func() { n++ })
	e.At(5_000_000_000, func() { n++ })
	e.At(100, func() { n++ })
	e.Drain()
	if n != 3 {
		t.Fatalf("drain ran %d events, want 3", n)
	}
	if e.Pending() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

// TestEngineTraceOrdering pins the SetTrace contract: the hook observes
// monotone (time, fired) pairs, once per executed event, and fired
// counts exactly the events that executed.
func TestEngineTraceOrdering(t *testing.T) {
	e := NewEngine(1)
	type obs struct {
		at    Time
		fired uint64
	}
	var seen []obs
	e.SetTrace(func(at Time, fired uint64) { seen = append(seen, obs{at, fired}) })

	executed := 0
	for i := 0; i < 20; i++ {
		e.At(Time(10*(i+1)), func() { executed++ })
	}
	// Same-time events must still trace in schedule order.
	e.At(50, func() { executed++ })
	e.Run(10_000)

	if executed != 21 {
		t.Fatalf("executed %d events, want 21", executed)
	}
	if len(seen) != executed {
		t.Fatalf("hook called %d times for %d executed events", len(seen), executed)
	}
	for i, o := range seen {
		if o.fired != uint64(i+1) {
			t.Fatalf("hook %d saw fired=%d, want %d", i, o.fired, i+1)
		}
		if i > 0 && o.at < seen[i-1].at {
			t.Fatalf("hook times regress: %d after %d", o.at, seen[i-1].at)
		}
	}
	if e.Fired() != uint64(executed) {
		t.Fatalf("Fired = %d, want %d", e.Fired(), executed)
	}
}

// TestEngineDrainTracesAndHalts pins the Drain fixes: the trace hook sees
// drained events exactly as Run's, and Halt stops a drain mid-way.
func TestEngineDrainTracesAndHalts(t *testing.T) {
	e := NewEngine(1)
	var traced []Time
	e.SetTrace(func(at Time, fired uint64) { traced = append(traced, at) })
	e.At(10, func() {})
	e.At(20, func() {})
	e.Drain()
	if len(traced) != 2 || traced[0] != 10 || traced[1] != 20 {
		t.Fatalf("drain bypassed the trace hook: %v", traced)
	}

	n := 0
	e.At(30, func() { n++; e.Halt() })
	e.At(40, func() { n++ })
	e.Drain()
	if n != 1 {
		t.Fatalf("drain ran %d events after Halt, want 1", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after halted drain, want 1", e.Pending())
	}
	// A fresh Drain resets the halt flag, like Run.
	e.Drain()
	if n != 2 || e.Pending() != 0 {
		t.Fatalf("second drain did not resume: n=%d pending=%d", n, e.Pending())
	}
}
