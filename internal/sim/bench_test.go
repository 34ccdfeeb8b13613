package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// simulator's fundamental speed limit.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(10, step)
		}
	}
	b.ResetTimer()
	e.At(0, step)
	e.Run(Forever - 1)
}

// BenchmarkEngineScheduleFire measures the schedule+fire round trip with
// a deep queue: each fired event schedules a successor while many other
// events are pending, exercising sift-up and sift-down together.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	const fanout = 256 // pending events kept in flight
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(Cycles(1+uint64(n%97)), step)
		}
	}
	for i := 0; i < fanout; i++ {
		e.At(Time(i), step)
	}
	b.ResetTimer()
	e.Run(Forever - 1)
}

// BenchmarkEngineElapse measures an in-place completion: each op is one
// continuation d cycles on, completed by Elapse, or — once in about
// bandBuckets/d, when the window must advance — by the schedule+fire
// round trip it otherwise replaces.
func BenchmarkEngineElapse(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		for n < b.N {
			n++
			if !e.Elapse(10) {
				e.After(10, step)
				return
			}
		}
	}
	e.At(0, step)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(Forever - 1)
}

// BenchmarkEngineMixedChurn interleaves a short continuation chain with
// a steady population of longer-range events that fire as no-ops — the
// realistic mix on the simulator's hot path.
func BenchmarkEngineMixedChurn(b *testing.B) {
	e := NewEngine(1)
	n := 0
	nop := func() {}
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.After(1_000, nop)
			e.After(Cycles(1+uint64(n%13)), step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(0, step)
	e.Run(Forever - 1)
}

// BenchmarkCoroHandoff measures one park/resume round trip.
func BenchmarkCoroHandoff(b *testing.B) {
	c := NewCoro("bench", func(c *Coro) {
		for {
			c.Park()
		}
	})
	c.Resume()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Resume()
	}
}

// BenchmarkRNG measures the deterministic generator.
func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
