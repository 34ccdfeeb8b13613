package kern

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/cpu"
	"repro/internal/fifo"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// cpuState tracks what currently occupies a processor's timeline.
type cpuState int

const (
	stIdle cpuState = iota
	stIRQ
	stSoftirq
	stSched
	stTask
)

type pendingIRQ struct {
	vec  apic.Vector
	kind apic.Kind
}

// irqQueueCap is the initial interrupt-queue size per processor: the
// reschedule and timer vectors plus a few device vectors. The APIC does
// not coalesce, so a vector can be queued more than once; a deeper
// backlog doubles the queue, which then keeps that size.
const irqQueueCap = 8

// KCPU is the kernel's per-processor state: the run queue, the interrupt
// and softirq machinery, and the dispatcher that serializes all simulated
// execution on the processor.
type KCPU struct {
	k     *Kernel
	id    int
	Model *cpu.Model

	rq   []*Task
	curr *Task

	// irqQ holds interrupts awaiting the next work-item boundary.
	irqQ      fifo.Queue[pendingIRQ]
	softPend  uint32
	bhDisable int

	softirqdCo     *sim.Coro
	softirqdEnv    *Env
	softirqdActive bool
	// suspendedResume continues the task context that a softirq pass
	// preempted at a work-item boundary.
	suspendedResume func()

	state       cpuState
	needResched bool
	quantumEnd  sim.Time
	// pendingClears are context-switch pipeline flushes waiting to be
	// attributed (with skid) to the next work item.
	pendingClears uint64

	// lastSym is the symbol most recently executed: machine clears from
	// asynchronous interrupts are attributed to it, reproducing the
	// sampling "skid" the paper describes in §6.3.
	lastSym perf.Symbol
	lastMM  int
	// lastTaskID is the most recently dispatched task (-1 when fresh),
	// recorded as the outgoing side of context-switch trace records.
	lastTaskID int

	idleStart  sim.Time
	idleCycles uint64

	// rqAddr is the cacheable runqueue structure; remote wakeups dirty it,
	// so runqueue lines bounce between processors exactly as on hardware.
	rqAddr mem.Addr

	procIdle Proc
}

func newKCPU(k *Kernel, id int, model *cpu.Model) *KCPU {
	c := &KCPU{k: k, id: id, Model: model, state: stIdle, lastMM: -1, lastTaskID: -1,
		irqQ: fifo.New[pendingIRQ](irqQueueCap)}
	c.procIdle = k.NewProc("cpu_idle", perf.BinIdle, 256)
	c.lastSym = c.procIdle.Sym
	c.rqAddr = k.Space.Alloc(256, fmt.Sprintf("runqueue%d", id))
	return c
}

// ID reports the processor number.
func (c *KCPU) ID() int { return c.id }

// IsIdle reports whether nothing occupies the processor.
func (c *KCPU) IsIdle() bool { return c.state == stIdle }

// CurrentSymbol reports the symbol most recently executing on the
// processor — what a statistical profiler's sampling interrupt would
// attribute the current cycle to.
func (c *KCPU) CurrentSymbol() perf.Symbol { return c.lastSym }

// QueueLen reports the runnable backlog (excluding the current task).
func (c *KCPU) QueueLen() int { return len(c.rq) }

// IdleCycles reports the cycles this processor has spent idle, including
// an in-progress idle period up to now.
func (c *KCPU) IdleCycles() uint64 {
	total := c.idleCycles
	if c.state == stIdle {
		total += uint64(c.k.Eng.Now() - c.idleStart)
	}
	return total
}

// ResetIdle zeroes idle accounting (start of a measurement interval).
func (c *KCPU) ResetIdle() {
	c.idleCycles = 0
	if c.state == stIdle {
		c.idleStart = c.k.Eng.Now()
	}
}

func (c *KCPU) goIdle() {
	c.state = stIdle
	c.idleStart = c.k.Eng.Now()
	c.lastSym = c.procIdle.Sym
}

func (c *KCPU) leaveIdle() {
	c.idleCycles += uint64(c.k.Eng.Now() - c.idleStart)
}

// DeliverInterrupt implements apic.Target: the vector is queued and, if
// the processor is idle, handled immediately; otherwise it is taken at the
// next work-item boundary (the model's interrupt latency, and the source
// of attribution skid).
func (c *KCPU) DeliverInterrupt(vec apic.Vector, kind apic.Kind) {
	c.irqQ.Push(pendingIRQ{vec: vec, kind: kind})
	if c.state == stIdle {
		c.leaveIdle()
		c.state = stIRQ
		c.beginIRQChain(func() { c.schedule() })
	}
}

// beginIRQChain processes every queued interrupt in order, charging
// machine clears and handler execution to the timeline, then calls done.
// It must be entered in engine context.
func (c *KCPU) beginIRQChain(done func()) {
	p, ok := c.irqQ.Pop()
	if !ok {
		done()
		return
	}
	c.k.Trace.IRQEnter(c.k.Eng.Now(), c.id, int(p.vec), int(p.kind))

	var handlerCycles sim.Cycles
	var clearPenalty sim.Cycles
	var effect func(*KCPU)

	switch p.kind {
	case apic.KindDevice:
		action := c.k.irqActions[p.vec]
		if action == nil {
			panic(fmt.Sprintf("kern: unhandled device vector %#x", int(p.vec)))
		}
		// Device interrupts flush the pipeline; the flush and the EOI
		// microcode execute inside the handler, so the clears sample in
		// the handler's own symbol (paper Table 4: IRQ0xNN symbols carry
		// similar clear counts in every affinity mode). Skid attribution
		// applies to the asynchronous sources — IPIs and context
		// switches — whose clears surface in the interrupted code.
		clearPenalty = c.Model.MachineClear(action.Proc.Sym, c.k.Tune.ClearsPerDeviceIRQ)
		c.Model.CountIRQ(action.Proc.Sym)
		x := c.Model.Begin(action.Proc.Sym, action.Proc.Code)
		action.Build(c, x)
		handlerCycles = x.Finish()
		effect = action.Effect
		c.lastSym = action.Proc.Sym
	case apic.KindIPI:
		// The reschedule IPI's clears land on whatever was executing —
		// in no-affinity mode that is TCP engine code on the remote
		// processor, which is the paper's §6.3 observation.
		clearPenalty = c.Model.MachineClear(c.lastSym, c.k.Tune.ClearsPerIPI)
		c.Model.CountIPI(c.lastSym)
		x := c.Model.Begin(c.k.procResched.Sym, c.k.procResched.Code)
		x.Instr(120, 0.18, 0.03).Overhead(250)
		handlerCycles = x.Finish()
		effect = func(c *KCPU) { c.needResched = true }
		c.lastSym = c.k.procResched.Sym
	case apic.KindTimer:
		clearPenalty = c.Model.MachineClear(c.k.procTick.Sym, c.k.Tune.ClearsPerTimer)
		x := c.Model.Begin(c.k.procTick.Sym, c.k.procTick.Code)
		x.Instr(300, 0.18, 0.03).Overhead(300).Store(c.rqAddr, 32).Store(c.k.XtimeAddr, 8)
		handlerCycles = x.Finish()
		effect = func(c *KCPU) { c.k.timerTickEffect(c) }
	}

	c.k.Eng.After(clearPenalty+handlerCycles, func() {
		c.k.Trace.IRQExit(c.k.Eng.Now(), c.id, int(p.vec), int(p.kind))
		if effect != nil {
			effect(c)
		}
		c.beginIRQChain(done)
	})
}

// RaiseSoftirq marks a bottom-half vector pending on this processor. Top
// halves call it; the vector runs in this processor's softirq daemon —
// "bottom halves … are usually scheduled on the same processor where
// their corresponding top halves had previously run" (§5).
func (c *KCPU) RaiseSoftirq(s Softirq) {
	c.softPend |= 1 << uint(s)
}

// SoftirqPending reports whether s is pending.
func (c *KCPU) SoftirqPending(s Softirq) bool { return c.softPend&(1<<uint(s)) != 0 }

func (c *KCPU) startSoftirqd() {
	if c.softirqdActive {
		return
	}
	c.softirqdActive = true
	c.state = stSoftirq
	if c.softirqdCo == nil {
		c.softirqdEnv = newEnv(c.k, c, nil)
		c.softirqdCo = sim.NewCoro(fmt.Sprintf("softirqd/%d", c.id), func(co *sim.Coro) {
			c.softirqdLoop()
		})
		c.softirqdEnv.co = c.softirqdCo
	}
	c.softirqdCo.Resume()
}

// softirqdLoop is the body of the per-CPU softirq daemon coroutine.
func (c *KCPU) softirqdLoop() {
	env := c.softirqdEnv
	for {
		for c.softPend != 0 && c.bhDisable == 0 {
			// Dispatch overhead of do_softirq itself.
			env.Run(c.k.procDoSoftirq, func(x *cpu.Exec) {
				x.Instr(80, 0.2, 0.02)
			})
			for s := Softirq(0); s < numSoftirqs; s++ {
				bit := uint32(1) << uint(s)
				if c.softPend&bit == 0 {
					continue
				}
				c.softPend &^= bit
				if h := c.k.softirqs[s]; h != nil {
					c.k.Trace.SoftirqEnter(c.k.Eng.Now(), c.id, int(s))
					h(env)
					c.k.Trace.SoftirqExit(c.k.Eng.Now(), c.id, int(s))
				}
			}
		}
		c.softirqdActive = false
		c.k.Eng.After(0, c.softirqdIdle)
		env.co.Park()
	}
}

// softirqdIdle runs in engine context when the daemon drains: pending
// interrupts are serviced, new bottom halves re-enter the daemon, and
// finally the preempted task context (if any) resumes, or the scheduler
// looks for work.
func (c *KCPU) softirqdIdle() {
	if c.irqQ.Len() > 0 {
		c.state = stIRQ
		c.beginIRQChain(c.softirqdIdle)
		return
	}
	if c.softPend != 0 && c.bhDisable == 0 {
		c.startSoftirqd()
		return
	}
	if r := c.suspendedResume; r != nil {
		c.suspendedResume = nil
		c.state = stTask
		r()
		return
	}
	c.schedule()
}

// boundary is invoked in engine context when a work item of env finishes:
// queued interrupts run first, then boundaryCont.
func (c *KCPU) boundary(env *Env) {
	if c.irqQ.Len() > 0 {
		prev := c.state
		c.state = stIRQ
		c.beginIRQChain(func() { c.state = prev; c.boundaryCont(env) })
		return
	}
	c.boundaryCont(env)
}

// boundaryCont runs pending bottom halves (unless the context holds
// spinlocks), then honours preemption, and finally resumes the work's
// context.
func (c *KCPU) boundaryCont(env *Env) {
	if c.resumesAtBoundary(env) {
		c.leaveBoundary(env)
		env.resume()
		return
	}
	if c.softPend != 0 && c.bhDisable == 0 {
		c.suspendedResume = env.resume
		c.startSoftirqd()
		return
	}
	// Reschedule requested (quantum expiry or a resched IPI for a
	// better-goodness waiter) with waiting work: round-robin.
	c.needResched = false
	t := c.curr
	t.state = TaskRunnable
	c.curr = nil
	c.rq = append(c.rq, t)
	c.state = stSched
	c.schedule()
}

// resumesAtBoundary reports whether the boundary after a work item of
// env, with no interrupt queued, hands straight back to env's context:
// a softirq daemon or a context holding spinlocks always continues;
// otherwise no bottom half may be runnable here and no reschedule
// request may have a task waiting for the processor. Env.Run asks it
// before the completion fires (to complete inline), boundaryCont after.
func (c *KCPU) resumesAtBoundary(env *Env) bool {
	if env.softirq || env.locksHeld > 0 {
		return true
	}
	if c.softPend != 0 && c.bhDisable == 0 {
		return false
	}
	return !c.needResched || c.curr == nil || len(c.rq) == 0
}

// leaveBoundary applies the one side effect of a boundary that resumes
// env's context: a reschedule request with no task waiting is dropped.
// A softirq daemon or a context holding spinlocks cannot be preempted,
// so its boundary leaves the request pending.
func (c *KCPU) leaveBoundary(env *Env) {
	if !env.softirq && env.locksHeld == 0 {
		c.needResched = false
	}
}

// schedule picks the next task (running the context-switch cost) or goes
// idle. Engine context only.
func (c *KCPU) schedule() {
	if c.irqQ.Len() > 0 {
		c.state = stIRQ
		c.beginIRQChain(c.schedule)
		return
	}
	if c.softPend != 0 && c.bhDisable == 0 {
		c.startSoftirqd() // softirqdIdle re-enters schedule
		return
	}
	next := c.pickNext()
	if next == nil {
		c.goIdle()
		return
	}
	c.state = stSched
	x := c.Model.Begin(c.k.procSchedule.Sym, c.k.procSchedule.Code)
	x.Instr(700, 0.2, 0.04).Overhead(400).Store(c.rqAddr, 64).Load(next.structAddr, 128)
	cost := x.Finish()
	x2 := c.Model.Begin(c.k.procSwitchTo.Sym, c.k.procSwitchTo.Code)
	x2.Instr(200, 0.12, 0.02).Overhead(300).Store(next.structAddr, 64)
	cost += x2.Finish()
	c.lastSym = c.k.procSchedule.Sym
	c.k.Eng.After(cost, func() { c.dispatch(next) })
}

func (c *KCPU) dispatch(next *Task) {
	if next.mmID != c.lastMM {
		// No ASIDs on the P4: switching address spaces flushes both TLBs,
		// and the CR3 write (plus the serializing switch path) flushes
		// the pipeline. The clears surface, skidded, in whatever the
		// incoming task executes first.
		c.Model.FlushTLBs()
		c.lastMM = next.mmID
		c.pendingClears += c.k.Tune.ClearsPerSwitch
	}
	if next.lastCPU != c.id {
		c.k.Stats.Migrations++
		if c.k.OnMigrate != nil {
			c.k.OnMigrate(next, next.lastCPU, c.id)
		}
	}
	c.k.Trace.CtxSwitch(c.k.Eng.Now(), c.id, c.lastTaskID, next.ID, next.Name)
	c.lastTaskID = next.ID
	c.curr = next
	next.state = TaskRunning
	next.lastCPU = c.id
	next.lastRan = c.k.Eng.Now()
	next.env.cpu = c
	c.quantumEnd = c.k.Eng.Now() + sim.Time(c.k.Tune.QuantumCycles)
	c.state = stTask
	c.resumeTask(next.env)
}

// resumeTask hands control to the task coroutine and, if the body
// finished, reaps it and reschedules.
func (c *KCPU) resumeTask(env *Env) {
	env.co.Resume()
	if env.co.Done() {
		if c.curr == env.task {
			c.curr = nil
		}
		env.task.state = TaskDead
		c.state = stSched
		c.schedule()
	}
}

// kick nudges an idle processor to run its scheduler (used when work is
// queued without an interrupt, e.g. initial task startup).
func (c *KCPU) kick() {
	if c.state != stIdle {
		return
	}
	c.leaveIdle()
	c.state = stSched
	c.schedule()
}

// pickNext pops the local run queue, falling back to stealing a runnable
// task from the busiest other processor (2.4-style idle balancing),
// honouring affinity masks.
func (c *KCPU) pickNext() *Task {
	if len(c.rq) > 0 {
		t := c.rq[0]
		c.rq = c.rq[1:]
		return t
	}
	var victim *KCPU
	for _, other := range c.k.CPUs {
		if other == c || len(other.rq) == 0 {
			continue
		}
		if victim == nil || len(other.rq) > len(victim.rq) {
			victim = other
		}
	}
	if victim == nil {
		return nil
	}
	now := c.k.Eng.Now()
	decay := sim.Time(c.k.Tune.CacheDecayCycles)
	for i := len(victim.rq) - 1; i >= 0; i-- {
		t := victim.rq[i]
		if !t.allowed(c.id) {
			continue
		}
		// Leave cache-hot tasks where their state is; stealing them
		// trades a short wait for a cache refill and coherence traffic.
		if t.lastCPU != c.id && now-t.lastRan < decay {
			continue
		}
		victim.rq = append(victim.rq[:i], victim.rq[i+1:]...)
		c.k.Stats.Steals++
		return t
	}
	return nil
}
