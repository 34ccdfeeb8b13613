package kern

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/sim"
)

// stepper runs a task that halts the engine after every per-th
// activation, so each step call advances the simulation by exactly per
// Env.Runs. The activation after a halt always parks — Elapse refuses
// while the engine is halted — so with per = 1 every activation takes
// the parked path: Begin and Finish, the completion event, the boundary
// and both coroutine switches. With a larger per the others may
// complete inline.
type stepper struct {
	eng *sim.Engine
	n   int
}

func newStepper(r *testRig, per int, build func(x *cpu.Exec)) *stepper {
	s := &stepper{eng: r.eng}
	p := r.proc("step_fn", perf.BinOther)
	r.k.Spawn("step", 0, 0, func(e *Env) {
		for {
			e.Run(p, build)
			s.n++
			if s.n%per == 0 {
				r.eng.Halt()
			}
		}
	})
	return s
}

func (s *stepper) step() { s.eng.Run(sim.Forever - 1) }

// TestEnvRunActivationAllocatesNothing pins the steady-state activation
// with no interrupt pending at zero heap allocations on both paths: the
// Exec is the model's own, the completion event and continuation are
// bound once per context, and an inline completion schedules nothing.
func TestEnvRunActivationAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		per  int
	}{{"parked", 1}, {"inline", 64}} {
		t.Run(c.name, func(t *testing.T) {
			r := newKernel(t, 1, 1)
			buf := r.k.Space.AllocPage(4096, "buf")
			s := newStepper(r, c.per, func(x *cpu.Exec) { x.Instr(200, 0.15, 0.01).Load(buf, 256) })
			s.step() // the task starts: its coroutine and first activations
			before, inline := s.n, r.eng.Elapsed()
			if allocs := testing.AllocsPerRun(1000, s.step); allocs != 0 {
				t.Fatalf("%v allocations per step, want 0", allocs)
			}
			if got := s.n - before; got != 1001*c.per {
				t.Fatalf("%d activations ran, want %d per step (%d)", got, c.per, 1001*c.per)
			}
			inline = r.eng.Elapsed() - inline
			if c.per == 1 && inline != 0 {
				t.Fatalf("%d activations completed inline, want every one parked", inline)
			}
			// Timer ticks make a few completions wait for the tick.
			if c.per > 1 && inline < uint64(1001*(c.per-1))*9/10 {
				t.Fatalf("only %d of %d activations completed inline", inline, 1001*c.per)
			}
		})
	}
}

// TestIRQQueueWrapsInOrder queues bursts of device interrupts behind a
// busy task, more in total than the queue holds, and checks the handlers
// run in delivery order without the queue growing.
func TestIRQQueueWrapsInOrder(t *testing.T) {
	r := newKernel(t, 1, 1)
	var handled []apic.Vector
	vecs := []apic.Vector{0x31, 0x32, 0x33}
	for _, v := range vecs {
		r.k.RegisterIRQ(v, &IRQAction{
			Proc:   r.proc("irq_test", perf.BinDriver),
			Build:  func(c *KCPU, x *cpu.Exec) { x.Instr(50, 0, 0) },
			Effect: func(c *KCPU) { handled = append(handled, v) },
		})
	}
	p := r.proc("busy", perf.BinOther)
	r.k.Spawn("busy", 0, 0, func(e *Env) {
		for i := 0; i < 200; i++ {
			e.Run(p, func(x *cpu.Exec) { x.Instr(5000, 0, 0) })
		}
	})
	c := r.k.CPUs[0]
	var delivered []apic.Vector
	for burst := 0; burst < 6; burst++ {
		r.eng.At(sim.Time(20_000+burst*100_000), func() {
			if c.IsIdle() {
				t.Error("burst delivered to an idle CPU: it would not queue")
			}
			for i := 0; i < irqQueueCap-1; i++ {
				v := vecs[(burst+i)%len(vecs)]
				delivered = append(delivered, v)
				c.DeliverInterrupt(v, apic.KindDevice)
			}
		})
	}
	r.eng.Run(10_000_000)
	if len(delivered) <= irqQueueCap {
		t.Fatalf("only %d interrupts delivered: the queue never wrapped", len(delivered))
	}
	if len(handled) != len(delivered) {
		t.Fatalf("%d handlers ran for %d interrupts", len(handled), len(delivered))
	}
	for i := range delivered {
		if handled[i] != delivered[i] {
			t.Fatalf("handler %d ran vector %#x, delivered %#x", i, int(handled[i]), int(delivered[i]))
		}
	}
	if got := c.irqQ.Cap(); got != irqQueueCap {
		t.Fatalf("irq queue capacity %d, want %d: it grew", got, irqQueueCap)
	}
}

// TestLockGrantReapsTaskFinishingInline hands a contended lock to a
// task that, once granted, runs to the end of its body without parking:
// the holder's own release activation is made slow (pending machine
// clears are charged to the next activation), so every completion of
// the granted task comes first and goes inline. The grant resumed the
// task, so the grant must reap it: the task dies and its processor goes
// idle instead of keeping a finished task as current.
func TestLockGrantReapsTaskFinishingInline(t *testing.T) {
	r := newKernel(t, 2, 1)
	l := r.k.NewSpinLock("grant")
	p := r.proc("work", perf.BinOther)
	r.k.Spawn("holder", 0, 1, func(e *Env) {
		l.Lock(e)
		e.Run(p, func(x *cpu.Exec) { x.Instr(20_000, 0, 0) })
		e.cpu.pendingClears += 1000
		l.Unlock(e)
	})
	var inline uint64
	waiter := r.k.Spawn("waiter", 1, 2, func(e *Env) {
		e.Run(p, func(x *cpu.Exec) { x.Instr(500, 0, 0) })
		l.Lock(e)
		before := r.eng.Elapsed()
		e.Run(p, func(x *cpu.Exec) { x.Instr(50, 0, 0) })
		l.Unlock(e)
		inline = r.eng.Elapsed() - before
	})
	r.eng.Run(50_000_000)
	if _, contended := l.Stats(); contended != 1 {
		t.Fatalf("%d contended acquisitions, want the waiter's one", contended)
	}
	if inline != 2 {
		t.Fatalf("%d of the granted task's 2 activations completed inline, want both", inline)
	}
	if waiter.State() != TaskDead {
		t.Fatalf("waiter state %v after its body returned, want dead", waiter.State())
	}
	if !r.k.CPUs[1].IsIdle() {
		t.Fatal("the waiter's processor is not idle after the waiter finished")
	}
}
