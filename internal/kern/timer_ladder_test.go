package kern

import (
	"testing"

	"repro/internal/sim"
)

// TestTimerLadderFarFutureMigration arms deadlines far beyond the tick
// period, interleaved with near ones, and checks they all fire in
// deadline order as ticks advance the clock.
func TestTimerLadderFarFutureMigration(t *testing.T) {
	r := newKernel(t, 1, 1)
	r.k.StartTicks()
	var fired []sim.Time
	arm := func(at sim.Time) {
		tm := r.k.NewTimer(func(env *Env) { fired = append(fired, r.eng.Now()) })
		r.k.ModTimer(tm, at)
	}
	near := sim.Time(25_000_000)
	far := sim.Time(1<<26 + 50_000_000)
	for i := 0; i < 8; i++ {
		arm(far + sim.Time(i)*7_000_000)
		arm(near + sim.Time(i)*3_000_000)
	}
	if r.k.ArmedTimers() != 16 {
		t.Fatalf("armed %d of 16", r.k.ArmedTimers())
	}
	r.eng.Run(sim.Time(1<<26 + 300_000_000))
	if len(fired) != 16 {
		t.Fatalf("fired %d of 16 timers", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("timer %d fired at %d after one at %d", i, fired[i], fired[i-1])
		}
	}
	if r.k.ArmedTimers() != 0 {
		t.Fatalf("%d timers still armed", r.k.ArmedTimers())
	}
}

// TestTimerRearmKeepsOrderAmongPeers pins the sequence-preservation rule:
// re-arming an armed timer to a deadline shared with other timers keeps
// its original position among them, exactly as the old heap fix-up did —
// the byte-identity of whole runs depends on it.
func TestTimerRearmKeepsOrderAmongPeers(t *testing.T) {
	r := newKernel(t, 1, 1)
	r.k.StartTicks()
	var order []int
	mk := func(id int) *Timer {
		return r.k.NewTimer(func(env *Env) { order = append(order, id) })
	}
	a, b, c := mk(0), mk(1), mk(2)
	deadline := sim.Time(40_000_000)
	r.k.ModTimer(a, deadline)
	r.k.ModTimer(b, deadline)
	r.k.ModTimer(c, deadline)
	// Slide a (the eldest) to a different deadline and back: it must
	// still run before b and c at the shared deadline.
	r.k.ModTimer(a, deadline+10_000_000)
	r.k.ModTimer(a, deadline)
	r.eng.Run(100_000_000)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fire order %v, want [0 1 2]", order)
	}
}

// TestTimerDisarmChurnCompaction runs heavy arm/disarm churn next to a
// long-lived timer and checks the churn leaves only the survivor armed,
// and that it fires.
func TestTimerDisarmChurnCompaction(t *testing.T) {
	r := newKernel(t, 1, 1)
	r.k.StartTicks()
	survivors := 0
	keep := r.k.NewTimer(func(env *Env) { survivors++ })
	r.k.ModTimer(keep, 30_000_000)
	scratch := r.k.NewTimer(nil)
	for i := 0; i < 10_000; i++ {
		r.k.ModTimer(scratch, sim.Time(2_000_000+i%4096))
		r.k.DelTimer(scratch)
	}
	if got := r.k.ArmedTimers(); got != 1 {
		t.Fatalf("ArmedTimers = %d after churn, want 1", got)
	}
	r.eng.Run(60_000_000)
	if survivors != 1 {
		t.Fatalf("survivor fired %d times, want 1", survivors)
	}
}

// TestTimerSteadyStateAllocs pins the timers' zero-allocation claim
// without relying on benchmark timing: once the heap and the pending
// list have grown, arming, re-arming, disarming and expiring on a tick
// allocate nothing.
func TestTimerSteadyStateAllocs(t *testing.T) {
	r := newKernel(t, 1, 1)
	c := r.k.CPUs[0]
	// A population of far deadlines that never fire, so every operation
	// sifts through a heap several levels deep.
	for i := 0; i < 64; i++ {
		r.k.ModTimer(r.k.NewTimer(nil), sim.Time(1<<40+i))
	}
	fired := 0
	tm := r.k.NewTimer(func(env *Env) { fired++ })
	live := r.k.NewTimer(nil)
	r.k.ModTimer(live, 400_000)

	// One real softirq pass runs the handler and hands the drained
	// pending list back for reuse.
	r.k.ModTimer(tm, 1)
	r.eng.Run(1000)
	r.k.expireTimers(c)
	c.startSoftirqd()
	now := r.eng.Run(2000)
	if fired != 1 || cap(r.k.timers.pending[c.id]) == 0 {
		t.Fatalf("softirq pass fired %d handlers and kept a pending list of cap %d, want 1 and > 0",
			fired, cap(r.k.timers.pending[c.id]))
	}

	i := 0
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"arm and disarm", func() {
			r.k.ModTimer(tm, now+sim.Time(2_000_000+i%1000))
			r.k.DelTimer(tm)
		}},
		{"re-arm", func() { r.k.ModTimer(live, now+sim.Time(400_000+i%977)) }},
		{"tick expiry", func() {
			r.k.ModTimer(tm, now+1)
			now += 1000
			r.eng.Run(now)
			r.k.expireTimers(c)
			if len(r.k.timers.pending[c.id]) != 1 {
				t.Fatalf("tick expired %d timers, want 1", len(r.k.timers.pending[c.id]))
			}
			// Drain as the softirq pass does, keeping the list.
			r.k.timers.pending[c.id] = r.k.timers.pending[c.id][:0]
		}},
	} {
		if got := testing.AllocsPerRun(100, func() { i++; op.fn() }); got != 0 {
			t.Errorf("%s: %v allocs per op, want 0", op.name, got)
		}
	}
}
