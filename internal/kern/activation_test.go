package kern

import (
	"testing"

	"repro/internal/apic"
	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/sim"
)

// stepper runs a task that halts the engine after every activation, so
// each step call advances the simulation by exactly one Env.Run: Begin
// and Finish, the completion event, the boundary and both coroutine
// switches.
type stepper struct {
	eng *sim.Engine
	n   int
}

func newStepper(r *testRig, build func(x *cpu.Exec)) *stepper {
	s := &stepper{eng: r.eng}
	p := r.proc("step_fn", perf.BinOther)
	r.k.Spawn("step", 0, 0, func(e *Env) {
		for {
			e.Run(p, build)
			s.n++
			r.eng.Halt()
		}
	})
	return s
}

func (s *stepper) step() { s.eng.Run(sim.Forever - 1) }

// TestEnvRunActivationAllocatesNothing pins the steady-state activation
// with no interrupt pending at zero heap allocations: the Exec is the
// model's own, and the completion event and continuation are bound once
// per context.
func TestEnvRunActivationAllocatesNothing(t *testing.T) {
	r := newKernel(t, 1, 1)
	buf := r.k.Space.AllocPage(4096, "buf")
	s := newStepper(r, func(x *cpu.Exec) { x.Instr(200, 0.15, 0.01).Load(buf, 256) })
	s.step() // the task starts: its coroutine and first activation
	before := s.n
	if allocs := testing.AllocsPerRun(1000, s.step); allocs != 0 {
		t.Fatalf("%v allocations per activation, want 0", allocs)
	}
	if got := s.n - before; got != 1001 {
		t.Fatalf("%d activations ran, want one per step (1001)", got)
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
