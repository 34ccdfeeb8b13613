// Package kern simulates the operating-system substrate of the paper's
// system under test: a Linux-2.4.20-class SMP kernel with per-CPU run
// queues, wake-to-last-CPU cache affinity, static process affinity
// (sys_sched_setaffinity), interrupt top halves, softirq bottom halves
// that run on the processor that took the top half, spinlocks with real
// spin-loop accounting, kernel timers, and the reschedule IPIs that the
// paper identifies as a dominant source of machine clears.
//
// Simulated kernel and stack code is written in natural blocking style:
// each process is a coroutine (sim.Coro) whose work is charged to its
// current processor through cpu.Exec, and each processor has a softirq
// daemon coroutine. The per-CPU dispatcher in kcpu.go serializes all
// execution on a processor and injects interrupt effects at work-item
// boundaries — which is also how the model reproduces Oprofile's
// attribution "skid" for interrupt-caused events.
package kern

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tuning collects the kernel-level model parameters. The defaults are
// calibrated so the no-affinity baseline lands near the paper's measured
// operating point; the ablation benchmarks sweep them to show the
// qualitative results do not depend on exact values.
type Tuning struct {
	// ClearsPerDeviceIRQ is the number of machine-clear events charged
	// when a device interrupt is delivered (P4 pipeline flushes at
	// delivery, EOI and the surrounding microcode).
	ClearsPerDeviceIRQ uint64
	// ClearsPerIPI is the number of machine clears charged to the
	// interrupted symbol when a reschedule IPI lands.
	ClearsPerIPI uint64
	// ClearsPerTimer is charged per local APIC timer tick.
	ClearsPerTimer uint64
	// ClearsPerSwitch is charged per context switch (CR3 write and the
	// serializing switch path flush the P4 pipeline). With sampling skid
	// they surface in the code the incoming task resumes into.
	ClearsPerSwitch uint64
	// QuantumCycles is the scheduler timeslice.
	QuantumCycles uint64
	// TickCycles is the timer-tick period (10 ms at HZ=100).
	TickCycles uint64
	// IPILatencyCycles is the delivery latency of an IPI.
	IPILatencyCycles uint64
	// BalanceTicks is how many ticks pass between load-balance pulls.
	BalanceTicks int
	// CacheDecayCycles protects recently-run tasks from being stolen by
	// an idle processor (2.4's PROC_CHANGE_PENALTY / cache_decay_ticks):
	// migrating a cache-hot task costs more than a short wait.
	CacheDecayCycles uint64
	// WakeAffinity enables the scheduler's wake-to-last-CPU preference;
	// disabling it is the ablation that removes the indirect process
	// affinity that interrupt affinity induces (§5).
	WakeAffinity bool
	// WakeIPI enables reschedule IPIs to idle remote processors;
	// disabling it is the ablation that isolates the machine-clear story.
	WakeIPI bool
	// PreemptIPI enables reschedule IPIs to remote processors that are
	// running another task: 2.4's reschedule_idle preempts when the woken
	// task's goodness (fresh counter plus cache bonus) beats the current
	// task's, which is the common case for freshly-woken IO-bound tasks.
	PreemptIPI bool
	// DMAReadInvalidates selects the chipset's transmit-DMA snoop
	// behaviour (see mem.Directory). The SUT's ServerWorks-class chipset
	// behaviour is modelled as invalidating.
	DMAReadInvalidates bool
}

// DefaultTuning returns the calibrated model parameters.
func DefaultTuning() Tuning {
	return Tuning{
		ClearsPerDeviceIRQ: 7,
		ClearsPerIPI:       20,
		ClearsPerTimer:     4,
		ClearsPerSwitch:    6,
		QuantumCycles:      20_000_000, // 10 ms at 2 GHz
		TickCycles:         20_000_000, // 10 ms at 2 GHz
		IPILatencyCycles:   2_000,
		BalanceTicks:       25,
		CacheDecayCycles:   2_000_000, // 1 ms at 2 GHz
		WakeAffinity:       true,
		WakeIPI:            true,
		PreemptIPI:         true,
		DMAReadInvalidates: true,
	}
}

// Proc is a simulated kernel procedure: a profiler symbol plus the code
// footprint its activations exercise in the front end.
type Proc struct {
	Sym  perf.Symbol
	Code cpu.CodeRef
}

// Softirq identifies a bottom-half vector.
type Softirq int

const (
	// SoftirqTimer runs expired kernel timers.
	SoftirqTimer Softirq = iota
	// SoftirqNetTx is the transmit-completion bottom half.
	SoftirqNetTx
	// SoftirqNetRx is the receive bottom half.
	SoftirqNetRx

	numSoftirqs
)

// SoftirqHandler is a bottom-half body. It runs in a per-CPU softirq
// daemon coroutine and may block on spinlocks and charge work through
// env.Run, but must not sleep.
type SoftirqHandler func(env *Env)

// IRQAction is a registered top-half handler.
type IRQAction struct {
	// Proc names the handler (e.g. "IRQ0x19_interrupt", driver bin).
	Proc Proc
	// Build declares the handler's work into an open Exec.
	Build func(c *KCPU, x *cpu.Exec)
	// Effect applies the handler's side effects (raise softirq, queue
	// device work) when the handler's cycles have elapsed.
	Effect func(c *KCPU)
}

// Kernel is the simulated operating system: global scheduler state, the
// interrupt layer and the services stack code builds on.
type Kernel struct {
	Eng   *sim.Engine
	Space *mem.Space
	Tab   *perf.SymbolTable
	Ctr   *perf.Counters
	APIC  *apic.IOAPIC
	CPUs  []*KCPU
	Tune  Tuning
	// Dir is the machine-wide coherence directory; devices use it for DMA
	// effects (invalidate on receive DMA, flush on transmit DMA).
	Dir *mem.Directory
	// XtimeAddr is the kernel time variable: written by every timer tick,
	// read by do_gettimeofday on the receive path — a shared line that
	// bounces between processors.
	XtimeAddr mem.Addr
	// Trace is the machine's timeline recorder; nil (the default) disables
	// recording. The kernel, its devices and the stack all stamp records
	// through this field, which is nil-safe at every call site.
	Trace *trace.Recorder
	// OnMigrate, when non-nil, observes every task migration: it runs
	// at dispatch, on the destination CPU, just before the task's
	// lastCPU is updated. Flow-director steering hangs off this hook to
	// chase a migrating process with its flows' receive queues. The
	// callback must not schedule events or draw randomness — it runs
	// inside the scheduler and must leave the event stream untouched.
	OnMigrate func(t *Task, from, to int)

	irqActions map[apic.Vector]*IRQAction
	softirqs   [numSoftirqs]SoftirqHandler
	timers     timerHeap
	tasks      []*Task

	// Internal procedures.
	procSchedule  Proc // "schedule" — interface bin per the paper (§3)
	procSwitchTo  Proc // "__switch_to"
	procResched   Proc // reschedule IPI handler
	procTick      Proc // local APIC timer handler
	procTimerRun  Proc // run_timer_list
	procDoSoftirq Proc

	balanceCountdown int
	ticksStarted     bool
	seq              int

	// Stats is scheduler-behaviour telemetry (not PMU events).
	Stats SchedStats
}

// SchedStats counts scheduler decisions, for diagnostics and tests.
type SchedStats struct {
	// WakeSameCPU counts wakeups placed on the waker's own processor.
	WakeSameCPU uint64
	// WakeCrossIdle counts wakeups that IPI'd an idle remote processor.
	WakeCrossIdle uint64
	// WakeCrossBusy counts wakeups that IPI'd a busy remote processor
	// (preemption).
	WakeCrossBusy uint64
	// WakeCrossQuiet counts cross-CPU wakeups that needed no IPI.
	WakeCrossQuiet uint64
	// Migrations counts dispatches on a different processor than the
	// task last ran on.
	Migrations uint64
	// Steals counts idle-balance steals.
	Steals uint64
}

// Config assembles a kernel.
type Config struct {
	Engine  *sim.Engine
	Space   *mem.Space
	Table   *perf.SymbolTable
	Ctr     *perf.Counters
	NumCPUs int
	CPU     cpu.Config
	Tune    Tuning
	// Trace, when non-nil, receives the machine's timeline records.
	Trace *trace.Recorder
}

// New builds the kernel, its processors, their cache hierarchies and the
// interrupt fabric.
func New(cfg Config) *Kernel {
	if cfg.NumCPUs <= 0 {
		panic("kern: need at least one CPU")
	}
	k := &Kernel{
		Eng:        cfg.Engine,
		Space:      cfg.Space,
		Tab:        cfg.Table,
		Ctr:        cfg.Ctr,
		Tune:       cfg.Tune,
		Trace:      cfg.Trace,
		irqActions: make(map[apic.Vector]*IRQAction),
	}
	if k.Ctr == nil {
		panic("kern: nil counters")
	}

	dir := mem.NewDirectory(cfg.NumCPUs)
	dir.DMAReadInvalidates = cfg.Tune.DMAReadInvalidates
	k.Dir = dir
	l1, l2, llc := mem.P4XeonMP()
	targets := make([]apic.Target, cfg.NumCPUs)
	for i := 0; i < cfg.NumCPUs; i++ {
		hier := mem.NewHierarchy(i, l1, l2, llc, dir)
		model := cpu.New(i, cfg.CPU, hier, cfg.Ctr, cfg.Engine.RNG())
		kc := newKCPU(k, i, model)
		k.CPUs = append(k.CPUs, kc)
		targets[i] = kc
	}
	k.APIC = apic.NewIOAPIC(targets)
	if k.Trace.Enabled() {
		k.APIC.SetTrace(k.Trace, cfg.Engine.Now)
	}

	k.XtimeAddr = cfg.Space.Alloc(mem.LineSize, "xtime")
	k.procSchedule = k.NewProc("schedule", perf.BinInterface, 1536)
	k.procSwitchTo = k.NewProc("__switch_to", perf.BinInterface, 512)
	k.procResched = k.NewProc("reschedule_interrupt", perf.BinOther, 256)
	k.procTick = k.NewProc("smp_apic_timer_interrupt", perf.BinOther, 512)
	k.procTimerRun = k.NewProc("run_timer_list", perf.BinOther, 768)
	k.procDoSoftirq = k.NewProc("do_softirq", perf.BinOther, 512)
	k.timers.pending = make([][]*Timer, cfg.NumCPUs)
	k.RegisterSoftirq(SoftirqTimer, k.runTimers)

	k.balanceCountdown = k.Tune.BalanceTicks
	return k
}

// NewProc registers a simulated procedure: a profiler symbol in bin with
// codeSize bytes of instruction footprint.
func (k *Kernel) NewProc(name string, bin perf.Bin, codeSize int) Proc {
	sym := k.Tab.Register(name, bin)
	var code cpu.CodeRef
	if codeSize > 0 {
		code = cpu.CodeRef{Base: k.Space.Alloc(codeSize, "code:"+name), Size: codeSize}
	}
	return Proc{Sym: sym, Code: code}
}

// RegisterIRQ installs a device top-half for vec.
func (k *Kernel) RegisterIRQ(vec apic.Vector, action *IRQAction) {
	if _, dup := k.irqActions[vec]; dup {
		panic(fmt.Sprintf("kern: duplicate IRQ action for vector %#x", int(vec)))
	}
	k.irqActions[vec] = action
}

// RegisterSoftirq installs the handler for a bottom-half vector.
func (k *Kernel) RegisterSoftirq(s Softirq, h SoftirqHandler) {
	k.softirqs[s] = h
}

// StartTicks begins the per-CPU timer ticks. Experiments call it once
// when the machine "boots"; ticks run for the whole simulation.
func (k *Kernel) StartTicks() {
	if k.ticksStarted {
		return
	}
	k.ticksStarted = true
	for _, c := range k.CPUs {
		c := c
		// Stagger ticks so the CPUs do not phase-lock.
		first := k.Tune.TickCycles/uint64(len(k.CPUs)+1)*uint64(c.id+1) + 1
		k.Eng.After(first, func() { k.tick(c) })
	}
}

func (k *Kernel) tick(c *KCPU) {
	k.APIC.TimerTick(c.id, vectorTimer)
	k.Eng.After(k.Eng.RNG().Jitter(k.Tune.TickCycles, 0.02), func() { k.tick(c) })
}

// Shutdown kills every coroutine the kernel owns; tests call it to avoid
// leaking goroutines between runs.
func (k *Kernel) Shutdown() {
	for _, t := range k.tasks {
		if t.co != nil && !t.co.Done() {
			if t.co.Parked() {
				t.co.Kill()
			}
		}
	}
	for _, c := range k.CPUs {
		if c.softirqdCo != nil && !c.softirqdCo.Done() && c.softirqdCo.Parked() {
			c.softirqdCo.Kill()
		}
	}
}

// Now exposes the engine clock.
func (k *Kernel) Now() sim.Time { return k.Eng.Now() }

// Tasks returns all spawned tasks.
func (k *Kernel) Tasks() []*Task { return k.tasks }

// Interrupt vectors used by the kernel itself.
const (
	vectorResched apic.Vector = 0xfd
	vectorTimer   apic.Vector = 0xef
)
