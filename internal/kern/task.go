package kern

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TaskState is a task's scheduler state.
type TaskState int

const (
	// TaskRunnable means queued on a run queue.
	TaskRunnable TaskState = iota
	// TaskRunning means currently on a processor.
	TaskRunning
	// TaskSleeping means blocked on a wait queue.
	TaskSleeping
	// TaskDead means the body returned.
	TaskDead
)

// Task is a simulated process (each ttcp instance is one). Its body runs
// in a coroutine and charges work to whichever processor the scheduler
// placed it on.
type Task struct {
	ID   int
	Name string

	k        *Kernel
	co       *sim.Coro
	env      *Env
	state    TaskState
	affinity uint32
	lastCPU  int
	mmID     int
	// structAddr is the task_struct: scheduler bookkeeping touches it, so
	// migrations drag it (and its cache lines) across processors.
	structAddr mem.Addr
	sleepingOn *WaitQueue
	// lastRan is when the task last occupied a processor; the idle
	// stealer leaves cache-hot tasks (young lastRan) alone.
	lastRan sim.Time
}

// State reports the scheduler state.
func (t *Task) State() TaskState { return t.state }

// LastCPU reports where the task last ran.
func (t *Task) LastCPU() int { return t.lastCPU }

// Affinity reports the task's CPU mask.
func (t *Task) Affinity() uint32 { return t.affinity }

func (t *Task) allowed(cpuID int) bool {
	return t.affinity&(1<<uint(cpuID)) != 0
}

// Env is the execution environment handed to simulated kernel/stack code:
// it knows the current processor and charges work to it. One Env belongs
// to a task (crossing CPUs as the task migrates) or to a per-CPU softirq
// daemon.
type Env struct {
	k       *Kernel
	cpu     *KCPU
	co      *sim.Coro
	task    *Task // nil for softirq daemons
	softirq bool

	locksHeld int

	// complete is the event that ends each activation Run charges, and
	// resume the continuation that hands control back to the context.
	// Both are bound once, in newEnv, so an activation allocates
	// nothing, and both read e.cpu when they fire rather than when Run
	// schedules them. That is the same processor: a context parked in
	// Run is not runnable (a softirq daemon never moves; a task stays
	// its processor's current task), and e.cpu changes only in dispatch,
	// which runs only for a task taken off a run queue. The boundary
	// that requeues a preempted task drops its resume and never calls
	// it, and dispatch later resumes the coroutine directly.
	complete func()
	resume   func()
}

// newEnv builds an execution context and binds its activation
// continuations.
func newEnv(k *Kernel, c *KCPU, t *Task) *Env {
	e := &Env{k: k, cpu: c, task: t, softirq: t == nil}
	e.complete = func() { e.cpu.boundary(e) }
	e.resume = func() { e.cpu.resumeContext(e) }
	return e
}

// Kernel returns the owning kernel.
func (e *Env) Kernel() *Kernel { return e.k }

// CPU returns the processor currently executing this context.
func (e *Env) CPU() *KCPU { return e.cpu }

// Task returns the owning task, or nil in softirq context.
func (e *Env) Task() *Task { return e.task }

// InSoftirq reports whether this is bottom-half context.
func (e *Env) InSoftirq() bool { return e.softirq }

// Run charges one activation of proc to the current processor: build
// declares the work, the cycles elapse on the virtual timeline, and
// pending interrupts/bottom halves/preemption are serviced at the
// boundary before Run returns. This is the single point through which
// all simulated execution flows.
func (e *Env) Run(proc Proc, build func(x *cpu.Exec)) {
	c := e.cpu
	x := c.Model.Begin(proc.Sym, proc.Code)
	if build != nil {
		build(x)
	}
	cycles := x.Finish()
	if c.pendingClears > 0 {
		cycles += c.Model.MachineClear(proc.Sym, c.pendingClears)
		c.pendingClears = 0
	}
	c.lastSym = proc.Sym
	// Inline completion: when no interrupt is queued, the boundary
	// would resume this context straight away, and the completion is
	// provably the engine's next event (Elapse), the clock advances and
	// Run returns without parking. Checking now is checking at fire
	// time: no event fires in between, interrupts are queued only by
	// events or by the activation itself (already built), and the
	// resumer that handed control here returns straight to the engine.
	if c.irqQ.Len() == 0 && c.resumesAtBoundary(e) && c.k.Eng.Elapse(cycles) {
		c.leaveBoundary(e)
		return
	}
	c.k.Eng.After(cycles, e.complete)
	e.co.Park()
}

// resumeContext continues a parked context: softirq daemons resume
// directly; tasks resume through resumeTask so exits are reaped.
func (c *KCPU) resumeContext(e *Env) {
	if e.softirq {
		e.co.Resume()
		return
	}
	c.resumeTask(e)
}

// Sleep blocks the task on wq until Wake. It must be called from task
// context with no spinlocks held. Callers re-check their condition in a
// loop, as with real wait queues.
func (e *Env) Sleep(wq *WaitQueue) {
	if e.task == nil {
		panic("kern: Sleep from softirq context")
	}
	if e.locksHeld != 0 {
		panic(fmt.Sprintf("kern: task %q sleeping with %d spinlocks held", e.task.Name, e.locksHeld))
	}
	t := e.task
	t.state = TaskSleeping
	t.sleepingOn = wq
	wq.enqueue(t)
	c := e.cpu
	if c.curr != t {
		panic("kern: sleeping task is not current")
	}
	c.curr = nil
	c.state = stSched
	c.k.Eng.After(0, c.scheduleFn)
	e.co.Park()
}

// Yield voluntarily gives up the processor, staying runnable.
func (e *Env) Yield() {
	if e.task == nil {
		panic("kern: Yield from softirq context")
	}
	t := e.task
	c := e.cpu
	t.state = TaskRunnable
	c.curr = nil
	c.k.enqueueTask(t, c.id)
	c.state = stSched
	c.k.Eng.After(0, c.scheduleFn)
	e.co.Park()
}

// Delay blocks the task for the given virtual duration (nanosleep): the
// task leaves the processor, a kernel timer wakes it. Workloads use it
// for think time between transactions.
func (e *Env) Delay(cycles uint64) {
	if e.task == nil {
		panic("kern: Delay from softirq context")
	}
	if cycles == 0 {
		return
	}
	t := e.task
	wq := NewWaitQueue("delay:" + t.Name)
	k := e.k
	deadline := k.Eng.Now() + sim.Time(cycles)
	tm := k.NewTimer(func(env *Env) { wq.WakeAll(k, env) })
	k.ModTimer(tm, deadline)
	for k.Eng.Now() < deadline {
		e.Sleep(wq)
	}
	k.DelTimer(tm)
}

// Spawn creates a task executing body with the given CPU affinity mask
// (0 means "all CPUs") and queues it on startCPU. The body starts running
// once the engine reaches the start event.
func (k *Kernel) Spawn(name string, startCPU int, affinityMask uint32, body func(*Env)) *Task {
	allowed := uint32(1<<uint(len(k.CPUs))) - 1
	if affinityMask == 0 {
		affinityMask = allowed
	}
	affinityMask &= allowed
	if affinityMask == 0 {
		panic(fmt.Sprintf("kern: task %q has empty affinity", name))
	}
	k.seq++
	t := &Task{
		ID:         k.seq,
		Name:       name,
		k:          k,
		state:      TaskRunnable,
		affinity:   affinityMask,
		lastCPU:    startCPU,
		mmID:       k.seq,
		structAddr: k.Space.Alloc(1024, "task_struct:"+name),
	}
	env := newEnv(k, nil, t)
	t.env = env
	t.co = sim.NewCoro("task:"+name, func(co *sim.Coro) {
		body(env)
	})
	env.co = t.co
	k.tasks = append(k.tasks, t)

	if !t.allowed(startCPU) {
		startCPU = lowestCPUIn(affinityMask)
		t.lastCPU = startCPU
	}
	k.enqueueTask(t, startCPU)
	c := k.CPUs[startCPU]
	k.Eng.After(0, c.kickFn)
	return t
}

// SetAffinity applies sys_sched_setaffinity semantics to a task: the mask
// takes effect at the task's next wakeup/placement decision. An empty or
// invalid mask is rejected.
func (k *Kernel) SetAffinity(t *Task, mask uint32) error {
	allowed := uint32(1<<uint(len(k.CPUs))) - 1
	mask &= allowed
	if mask == 0 {
		return fmt.Errorf("kern: empty affinity mask for task %q", t.Name)
	}
	t.affinity = mask
	return nil
}

func lowestCPUIn(mask uint32) int {
	for i := 0; i < 32; i++ {
		if mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}
