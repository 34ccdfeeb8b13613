package kern

// enqueueTask puts a runnable task on cpuID's run queue and touches that
// queue's cache lines from the waker's processor, so remote wakeups bounce
// runqueue lines between caches the way try_to_wake_up does.
func (k *Kernel) enqueueTask(t *Task, cpuID int) {
	c := k.CPUs[cpuID]
	c.rq = append(c.rq, t)
}

// Wake makes t runnable, choosing a processor per the 2.4 policy the
// paper's analysis depends on (§5):
//
//   - prefer the processor the task last ran on, to preserve cache state
//     ("the scheduler tries as much as possible to schedule a process onto
//     the same processor that it was previously running on");
//   - but an idle processor beats affinity — load balancing is always
//     the scheduler's first priority, which is exactly why process-only
//     affinity buys so little;
//   - an idle remote processor is kicked with a reschedule IPI, whose
//     machine clears land on whatever the target was last executing.
//
// waker is the context performing the wakeup (nil for external/engine
// wakeups). Wake may be called from any context.
func (k *Kernel) Wake(t *Task, waker *Env) {
	if t.state != TaskSleeping {
		return // already runnable, running, or dead
	}
	if t.sleepingOn != nil {
		t.sleepingOn.remove(t)
		t.sleepingOn = nil
	}
	t.state = TaskRunnable

	target := k.placeTask(t)
	c := k.CPUs[target]

	// The waker writes the target runqueue: if the waker is on another
	// processor this dirties remote lines (counted against the waker's
	// current symbol; the timeline cost is folded into the waking call's
	// own profile).
	if waker != nil && waker.cpu != nil {
		sym := waker.cpu.lastSym
		waker.cpu.Model.TouchSide(sym, c.rqAddr, 64, true)
		waker.cpu.Model.TouchSide(sym, t.structAddr, 64, true)
	}

	k.enqueueTask(t, target)

	wakerCPU := -1
	if waker != nil && waker.cpu != nil {
		wakerCPU = waker.cpu.id
	}
	switch {
	case c.state == stIdle:
		if wakerCPU != target && k.Tune.WakeIPI {
			// Cross-processor wakeup of an idle CPU: reschedule IPI.
			k.Stats.WakeCrossIdle++
			k.Eng.After(k.Tune.IPILatencyCycles, c.reschedIPI)
		} else {
			k.Stats.WakeSameCPU++
			k.Eng.After(0, c.kickFn)
		}
	case c.state == stTask && wakerCPU != target && k.Tune.PreemptIPI:
		// The target is running another task on a different processor:
		// a freshly-woken IO-bound task preempts it (2.4 goodness), so a
		// reschedule IPI interrupts whatever the target was executing —
		// the paper's machine-clear mechanism in the no-affinity mode.
		k.Stats.WakeCrossBusy++
		k.Eng.After(k.Tune.IPILatencyCycles, c.reschedIPI)
	case wakerCPU == target:
		k.Stats.WakeSameCPU++
	default:
		k.Stats.WakeCrossQuiet++
	}
}

// placeTask picks the processor a newly-runnable task should run on.
func (k *Kernel) placeTask(t *Task) int {
	last := -1
	if t.allowed(t.lastCPU) {
		last = t.lastCPU
	}
	// Last CPU idle: perfect — cache-warm and immediately available.
	if k.Tune.WakeAffinity && last >= 0 && k.CPUs[last].state == stIdle {
		return last
	}
	// Otherwise any idle allowed CPU beats waiting behind a busy one.
	for _, c := range k.CPUs {
		if c.state == stIdle && t.allowed(c.id) {
			return c.id
		}
	}
	// Nothing idle: stay where the cache is warm if allowed.
	if last >= 0 {
		return last
	}
	// Fall back to the least-loaded allowed CPU.
	best := -1
	bestLoad := int(^uint(0) >> 1)
	for _, c := range k.CPUs {
		if !t.allowed(c.id) {
			continue
		}
		load := len(c.rq)
		if c.curr != nil {
			load++
		}
		if load < bestLoad {
			bestLoad = load
			best = c.id
		}
	}
	if best < 0 {
		panic("kern: no allowed CPU for task " + t.Name)
	}
	return best
}

// timerTickEffect applies one local APIC timer tick on c: kernel timers
// run, the current task's quantum is checked, and periodically the load
// balancer evens out run-queue lengths.
func (k *Kernel) timerTickEffect(c *KCPU) {
	k.expireTimers(c)
	if c.curr != nil && k.Eng.Now() >= c.quantumEnd {
		c.needResched = true
	}
	if c.id == 0 {
		k.balanceCountdown--
		if k.balanceCountdown <= 0 {
			k.balanceCountdown = k.Tune.BalanceTicks
			k.balance()
		}
	}
}

// balance performs a 2.4-style periodic pull: if the busiest run queue is
// at least two deeper than the shallowest, one affinity-compatible task
// moves. IO-bound network workloads rarely trigger it, but it keeps the
// scheduler honest under process-only affinity imbalance.
func (k *Kernel) balance() {
	var busiest, idlest *KCPU
	for _, c := range k.CPUs {
		if busiest == nil || len(c.rq) > len(busiest.rq) {
			busiest = c
		}
		if idlest == nil || len(c.rq) < len(idlest.rq) {
			idlest = c
		}
	}
	if busiest == nil || idlest == nil || busiest == idlest {
		return
	}
	if len(busiest.rq)-len(idlest.rq) < 2 {
		return
	}
	for i := len(busiest.rq) - 1; i >= 0; i-- {
		t := busiest.rq[i]
		if !t.allowed(idlest.id) {
			continue
		}
		busiest.rq = append(busiest.rq[:i], busiest.rq[i+1:]...)
		idlest.rq = append(idlest.rq, t)
		if idlest.state == stIdle {
			k.Eng.After(0, idlest.kickFn)
		}
		return
	}
}

// CPUUtil reports a processor's utilization over an interval of elapsed
// cycles given the idle cycles it accumulated in that interval.
func CPUUtil(elapsed, idle uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	busy := elapsed - min(idle, elapsed)
	return float64(busy) / float64(elapsed)
}

// WaitQueue is a kernel wait queue: tasks Sleep on it, Wake (or WakeAll)
// makes them runnable. The no-lost-wakeup guarantee follows from the
// simulation's handoff discipline: state transitions inside a coroutine
// are atomic with respect to engine events.
type WaitQueue struct {
	name    string
	waiters []*Task
}

// NewWaitQueue returns an empty queue named for diagnostics.
func NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{name: name}
}

func (w *WaitQueue) enqueue(t *Task) { w.waiters = append(w.waiters, t) }

func (w *WaitQueue) remove(t *Task) {
	for i, x := range w.waiters {
		if x == t {
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			return
		}
	}
}

// Len reports the number of sleeping tasks.
func (w *WaitQueue) Len() int { return len(w.waiters) }

// WakeOne wakes the longest-waiting task, if any, and reports whether a
// task was woken.
func (w *WaitQueue) WakeOne(k *Kernel, waker *Env) bool {
	if len(w.waiters) == 0 {
		return false
	}
	t := w.waiters[0]
	k.Wake(t, waker) // Wake removes t from the queue
	return true
}

// WakeAll wakes every sleeping task.
func (w *WaitQueue) WakeAll(k *Kernel, waker *Env) {
	for len(w.waiters) > 0 {
		k.Wake(w.waiters[0], waker)
	}
}
