package sim

import "testing"

// TestScheduleFireAllocs pins the engine's schedule+fire round trip to
// zero allocations at steady state, with 256 events pending: each fired
// event schedules its successor, so the queue stays deep while every
// slot is recycled.
func TestScheduleFireAllocs(t *testing.T) {
	e := NewEngine(1)
	const pending = 256
	n := 0
	var step func()
	step = func() {
		n++
		e.After(Cycles(1+uint64(n%97)), step)
	}
	for i := 0; i < pending; i++ {
		e.At(Time(i), step)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 1000)
	}); allocs != 0 {
		t.Fatalf("%v allocations per 1000-cycle run of schedule+fire, want 0", allocs)
	}
	if e.Pending() != pending {
		t.Fatalf("%d events pending, want %d", e.Pending(), pending)
	}
	if n < 100*pending {
		t.Fatalf("only %d events fired: the runs did not cycle the queue", n)
	}
}
