package kern

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/perf"
)

// TestShutdownLeavesNoGoroutines: after a run that leaves tasks finished,
// asleep, runnable and never started, and a softirq daemon parked,
// Shutdown must reap every coroutine goroutine.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newKernel(t, 2, 1)
	p := r.proc("leak_fn", perf.BinOther)
	work := func(e *Env) { e.Run(p, func(x *cpu.Exec) { x.Instr(1000, 0.1, 0.01) }) }
	r.k.Spawn("finishes", 0, 0, func(e *Env) { work(e) })
	r.k.Spawn("sleeps", 1, 0, func(e *Env) {
		work(e)
		e.Sleep(NewWaitQueue("never"))
	})
	r.k.Spawn("yields", 0, 0, func(e *Env) {
		for {
			work(e)
			e.Yield()
		}
	})
	r.k.RegisterSoftirq(SoftirqNetRx, func(e *Env) { work(e) })
	r.k.RegisterIRQ(0x1b, &IRQAction{
		Proc:   r.k.NewProc("IRQ0x1b_interrupt", perf.BinDriver, 512),
		Build:  func(c *KCPU, x *cpu.Exec) { x.Instr(500, 0.1, 0.01) },
		Effect: func(c *KCPU) { c.RaiseSoftirq(SoftirqNetRx) },
	})
	r.eng.At(50_000, func() { r.k.APIC.Raise(0x1b) })
	r.eng.Run(1_000_000)
	r.k.Spawn("never runs", 0, 0, func(e *Env) { t.Error("task ran after the last event") })
	if r.k.CPUs[0].softirqdCo == nil && r.k.CPUs[1].softirqdCo == nil {
		t.Fatal("no softirq daemon started")
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("no coroutine goroutines alive before Shutdown")
	}
	r.k.Shutdown()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
