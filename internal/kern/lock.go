package kern

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// SpinLock is a kernel spinlock with the 2.4 implementation's observable
// behaviour (paper Table 2):
//
//   - the lock word is one cache line, so acquiring it from a different
//     processor than the last holder takes a coherence miss;
//   - an uncontended acquire is a handful of instructions with a branch
//     that falls through;
//   - a contended acquire spins in the cmpb/PAUSE/jle loop, retiring
//     instructions and branches in proportion to the wait — which is why
//     no-affinity runs show many lock branches with few mispredicts, and
//     full-affinity runs show few branches with an inflated mispredict
//     *ratio*.
//
// Acquiring also disables bottom halves on the current processor
// (spin_lock_bh semantics), which is what makes same-CPU lock recursion
// between process context and softirq context impossible here, as in
// Linux.
type SpinLock struct {
	k    *Kernel
	name string
	proc Proc
	addr mem.Addr

	held    bool
	owner   *Env
	waiters []*spinWaiter

	acquisitions uint64
	contentions  uint64
}

type spinWaiter struct {
	env   *Env
	start sim.Time
}

// NewSpinLock creates a named lock whose acquire/release cost is charged
// to the shared "spin_lock"/"spin_unlock" symbols in the Locks bin.
func (k *Kernel) NewSpinLock(name string) *SpinLock {
	return &SpinLock{
		k:    k,
		name: name,
		proc: k.NewProc("spin_lock", perf.BinLocks, 256),
		addr: k.Space.Alloc(mem.LineSize, "lock:"+name),
	}
}

// Name returns the lock's diagnostic name.
func (l *SpinLock) Name() string { return l.name }

// Stats reports lifetime acquisitions and contended acquisitions.
func (l *SpinLock) Stats() (acquisitions, contentions uint64) {
	return l.acquisitions, l.contentions
}

// Lock acquires the spinlock for env, spinning (in virtual time, with
// spin-loop instruction/branch accounting) while another context holds
// it. Bottom halves are disabled on env's processor until Unlock.
func (l *SpinLock) Lock(env *Env) {
	env.cpu.bhDisable++
	env.locksHeld++
	l.acquisitions++

	// The atomic decrement of the lock word: a write to a possibly
	// remote-dirty line.
	env.Run(l.proc, func(x *cpu.Exec) {
		x.Instr(12, 0.08, 0.012).Store(l.addr, 4)
	})

	if !l.held {
		l.held = true
		l.owner = env
		return
	}

	// Contended: join the FIFO and wait for a grant. The processor stays
	// occupied (a spin is busy-waiting); the elapsed wait is charged as
	// spin-loop work when the grant arrives.
	l.contentions++
	w := &spinWaiter{env: env, start: l.k.Eng.Now()}
	l.waiters = append(l.waiters, w)
	env.co.Park()
	// Granted: lock state was transferred by Unlock.
	if l.owner != env {
		panic(fmt.Sprintf("kern: lock %q granted to wrong context", l.name))
	}
}

// Unlock releases the spinlock, handing it to the oldest waiter if any
// (charging that waiter's spin time), and re-enables bottom halves on the
// releasing processor.
func (l *SpinLock) Unlock(env *Env) {
	if l.owner != env {
		panic(fmt.Sprintf("kern: unlock of %q by non-owner", l.name))
	}
	env.locksHeld--
	env.cpu.bhDisable--

	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.owner = w.env
		now := l.k.Eng.Now()
		l.k.Eng.At(now, func() {
			spun := sim.Cycles(now - w.start)
			l.k.Trace.LockSpin(now, w.env.cpu.id, l.name, uint64(spun))
			w.env.cpu.Model.Spin(l.proc.Sym, spun)
			w.env.cpu.lastSym = l.proc.Sym
			// Through resumeContext, so a task that runs on inline to
			// the end of its body is reaped.
			w.env.cpu.resumeContext(w.env)
		})
	} else {
		l.held = false
		l.owner = nil
	}

	// The release store; cheap, and its boundary gives deferred bottom
	// halves their first chance to run.
	env.Run(l.proc, func(x *cpu.Exec) {
		x.Instr(6, 0.08, 0.012).Store(l.addr, 4)
	})
}

// Held reports whether the lock is currently held (diagnostics).
func (l *SpinLock) Held() bool { return l.held }
