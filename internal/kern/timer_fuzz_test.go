package kern

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// refTimer is the reference model's copy of one timer's state.
type refTimer struct {
	expires sim.Time
	seq     uint64
	armed   bool
}

// FuzzTimerOrder decodes bytes into a script of timer operations on a
// two-CPU kernel and checks, at every tick, that the timers it expires
// are exactly those a naive reference fires, in the same order. The
// reference keeps every armed timer keyed by (expires, seq) and sorts
// the due ones on each tick: a fresh arm draws the next seq, a re-arm of
// an armed timer keeps its seq. The script reaches arm and re-arm near
// the clock, overdue arms (expires < now), same-deadline peers, far
// horizons beyond 2^26 cycles, disarms, and tick advances both small and
// past the far horizon.
//
// Each op is one byte: the low three bits pick the operation, the rest
// the timer. Operands follow it; a script that ends mid-op reads zeros.
func FuzzTimerOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		runTimerScript(t, script)
	})
}

func runTimerScript(t *testing.T, script []byte) {
	const (
		cpus    = 2
		nTimers = 16
		farHorz = sim.Time(1) << 26
	)
	r := newKernel(t, cpus, 1)
	timers := make([]*Timer, nTimers)
	id := make(map[*Timer]int, nTimers)
	for i := range timers {
		timers[i] = r.k.NewTimer(nil)
		id[timers[i]] = i
	}
	ref := make([]refTimer, nTimers)
	var seq uint64
	var now sim.Time

	rd := func() byte {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return b
	}
	// span reads a shift and a 16-bit mantissa: deltas from 0 to 2^26.
	span := func() sim.Time {
		s := rd() % 11
		v := sim.Time(rd())<<8 | sim.Time(rd())
		return v << s
	}
	arm := func(i int, at sim.Time) {
		r.k.ModTimer(timers[i], at)
		if !ref[i].armed {
			seq++
			ref[i].seq = seq
			ref[i].armed = true
		}
		ref[i].expires = at
	}
	tick := func(cpu int, by sim.Time) {
		now += by
		r.eng.Run(now)
		c := r.k.CPUs[cpu]
		r.k.expireTimers(c)
		got := r.k.timers.pending[c.id]
		r.k.timers.pending[c.id] = nil

		var want []int
		for i := range ref {
			if ref[i].armed && ref[i].expires <= now {
				want = append(want, i)
				ref[i].armed = false
			}
		}
		sort.Slice(want, func(a, b int) bool {
			x, y := ref[want[a]], ref[want[b]]
			if x.expires != y.expires {
				return x.expires < y.expires
			}
			return x.seq < y.seq
		})
		if len(got) != len(want) {
			t.Fatalf("tick at %d on cpu %d fired %d timers, want %d (%v)", now, cpu, len(got), len(want), want)
		}
		for k, tm := range got {
			if id[tm] != want[k] {
				gotIDs := make([]int, len(got))
				for j, g := range got {
					gotIDs[j] = id[g]
				}
				t.Fatalf("tick at %d on cpu %d fired %v, want %v", now, cpu, gotIDs, want)
			}
		}
	}
	check := func(step int) {
		armed := 0
		for i := range ref {
			if ref[i].armed {
				armed++
			}
			if timers[i].Active() != ref[i].armed {
				t.Fatalf("step %d: timer %d Active() = %v, want %v", step, i, timers[i].Active(), ref[i].armed)
			}
		}
		if got := r.k.ArmedTimers(); got != armed {
			t.Fatalf("step %d: ArmedTimers = %d, want %d", step, got, armed)
		}
	}

	for step := 0; len(script) > 0; step++ {
		op := rd()
		i := int(op>>3) % nTimers
		switch op & 7 {
		case 0, 1: // arm or re-arm near the clock
			arm(i, now+span())
		case 2: // far horizon
			arm(i, now+farHorz+sim.Time(rd())<<18+sim.Time(rd()))
		case 3: // overdue: fires at the next tick
			d := span()
			if d > now {
				d = now
			}
			arm(i, now-d)
		case 4: // same deadline as a peer
			arm(i, ref[int(rd())%nTimers].expires)
		case 5:
			r.k.DelTimer(timers[i])
			ref[i].armed = false
		case 6: // tick after a short advance
			tick(int(rd())%cpus, span())
		case 7: // tick past the far horizon
			tick(int(rd())%cpus, sim.Time(1+rd()%4)*farHorz)
		}
		check(step)
	}
	// Drain: one last tick past every deadline fires whatever is left.
	last := now
	for i := range ref {
		if ref[i].armed && ref[i].expires > last {
			last = ref[i].expires
		}
	}
	tick(0, last-now)
	check(-1)
}
