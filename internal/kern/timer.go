package kern

import (
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Timer is a kernel timer (add_timer/mod_timer/del_timer). TCP arms one
// retransmit timer per flight and a delayed-ACK timer; in the paper's
// loss-free bulk workload they are armed and disarmed constantly but
// almost never fire — the arming itself is the Timers-bin cost.
type Timer struct {
	expires sim.Time
	seq     uint64
	fn      func(env *Env)
	slot    int32 // index in the timer heap, -1 when disarmed
}

// Active reports whether the timer is armed.
func (t *Timer) Active() bool { return t.slot >= 0 }

// timerArity is the timer heap's fan-out: a 4-ary heap is half as deep
// as a binary one, which favours the sift-down of every expiry.
const timerArity = 4

// timerHeap holds every armed timer in one min-heap ordered by
// (expires, seq). The order is total, so expiry order depends only on
// deadlines and arming order, never on the heap's shape. No ladder is
// needed: the simulated Timers-bin cost is charged by the mod_timer and
// del_timer procs, not by this structure, and the armed population is
// about two timers per connection.
type timerHeap struct {
	heap []*Timer
	seq  uint64
	// pending holds expired timers awaiting their softirq pass, per CPU.
	pending [][]*Timer
}

// timerLess orders timers by (expires, seq).
func timerLess(a, b *Timer) bool {
	if a.expires != b.expires {
		return a.expires < b.expires
	}
	return a.seq < b.seq
}

// set places t at index j.
func (h *timerHeap) set(j int, t *Timer) {
	h.heap[j] = t
	t.slot = int32(j)
}

// up sifts the timer at j toward the root.
func (h *timerHeap) up(j int) {
	t := h.heap[j]
	for j > 0 {
		p := (j - 1) / timerArity
		if !timerLess(t, h.heap[p]) {
			break
		}
		h.set(j, h.heap[p])
		j = p
	}
	h.set(j, t)
}

// down sifts the timer at j toward the leaves and reports whether it
// moved.
func (h *timerHeap) down(j int) bool {
	t := h.heap[j]
	n := len(h.heap)
	start := j
	for {
		first := timerArity*j + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+timerArity, n); c++ {
			if timerLess(h.heap[c], h.heap[m]) {
				m = c
			}
		}
		if !timerLess(h.heap[m], t) {
			break
		}
		h.set(j, h.heap[m])
		j = m
	}
	h.set(j, t)
	return j != start
}

// fix restores heap order after the timer at j changed its deadline.
func (h *timerHeap) fix(j int) {
	if !h.down(j) {
		h.up(j)
	}
}

// remove takes the timer at j out of the heap and disarms it.
func (h *timerHeap) remove(j int) *Timer {
	t := h.heap[j]
	n := len(h.heap) - 1
	last := h.heap[n]
	h.heap[n] = nil
	h.heap = h.heap[:n]
	if j < n {
		h.set(j, last)
		h.fix(j)
	}
	t.slot = -1
	return t
}

// NewTimer creates an inactive timer with handler fn. The handler runs in
// softirq context on whichever processor's tick expires it.
func (k *Kernel) NewTimer(fn func(env *Env)) *Timer {
	return &Timer{fn: fn, slot: -1}
}

// ModTimer (re)arms t to fire at expires. Re-arming an armed timer moves
// it in place and keeps its sequence number, so it keeps its place among
// same-deadline peers; a fresh arm draws the next sequence number.
func (k *Kernel) ModTimer(t *Timer, expires sim.Time) {
	h := &k.timers
	t.expires = expires
	if t.slot >= 0 {
		h.fix(int(t.slot))
		return
	}
	h.seq++
	t.seq = h.seq
	h.heap = append(h.heap, t)
	h.up(len(h.heap) - 1)
}

// DelTimer disarms t if armed.
func (k *Kernel) DelTimer(t *Timer) {
	if t.slot >= 0 {
		k.timers.remove(int(t.slot))
	}
}

// ArmedTimers reports how many timers are armed (tests).
func (k *Kernel) ArmedTimers() int { return len(k.timers.heap) }

// expireTimers moves due timers to c's pending list, in (expires, seq)
// order, and raises the timer softirq there, mirroring 2.4's "timers run
// as a bottom half on the CPU that took the tick".
func (k *Kernel) expireTimers(c *KCPU) {
	h := &k.timers
	now := k.Eng.Now()
	moved := false
	for len(h.heap) > 0 && h.heap[0].expires <= now {
		h.pending[c.id] = append(h.pending[c.id], h.remove(0))
		moved = true
	}
	if moved {
		c.RaiseSoftirq(SoftirqTimer)
	}
}

// runTimers is the TIMER softirq handler: it charges the dispatch cost
// and invokes each expired handler in softirq context.
func (k *Kernel) runTimers(env *Env) {
	c := env.cpu
	pend := k.timers.pending[c.id]
	k.timers.pending[c.id] = nil
	for _, t := range pend {
		env.Run(k.procTimerRun, func(x *cpu.Exec) {
			x.Instr(150, 0.2, 0.03)
		})
		if t.fn != nil {
			t.fn(env)
		}
	}
	// Hand the drained list back for reuse unless a tick during the pass
	// has already started a new one.
	if k.timers.pending[c.id] == nil {
		clear(pend)
		k.timers.pending[c.id] = pend[:0]
	}
}
