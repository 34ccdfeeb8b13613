//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Coro is a strict-handoff coroutine: a body that runs only while the
// engine has explicitly resumed it, and that must park (or finish) to hand
// control back. At any instant at most one coroutine (or the engine) is
// executing, so the simulation stays deterministic even though simulated
// processes are written in natural blocking style.
//
// Lifecycle:
//
//	c := NewCoro(name, func(c *Coro) { ...; c.Park(); ... })
//	c.Resume()   // runs the body until its first Park or until it returns
//	c.Resume()   // runs from after Park to the next Park / return
//	c.Kill()     // unwinds a parked coroutine (its deferred calls run)
//
// The body must only Park from its own stack, and Resume must only be
// called from outside it (engine/event context, or another coroutine).
//
// Control transfers ride the runtime's coroutine switch behind iter.Pull:
// Resume is the pull iterator's next, Park is its yield, and Kill is its
// stop. The switch hands the thread directly to the other goroutine
// without going through the scheduler's run queue, so a handoff never
// wakes another thread. The body's goroutine is created on the first
// Resume, so a coroutine that is never started costs nothing.
type Coro struct {
	name     string
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	done     bool
	parked   bool
	body     func(*Coro)
	panicMsg string
}

// coroKilled is the panic value used to unwind a killed coroutine.
type coroKilled struct{ name string }

// NewCoro creates a coroutine around body. The body does not start running
// until the first Resume.
func NewCoro(name string, body func(*Coro)) *Coro {
	return &Coro{name: name, body: body}
}

// Name returns the diagnostic name given at creation.
func (c *Coro) Name() string { return c.name }

// Done reports whether the body has returned (or been killed).
func (c *Coro) Done() bool { return c.done }

// Parked reports whether the coroutine is waiting in Park.
func (c *Coro) Parked() bool { return c.parked }

// Resume transfers control into the coroutine and blocks until it parks or
// finishes. Resuming a finished coroutine panics: it indicates a scheduler
// bookkeeping bug. If the body panicked, the panic resurfaces here — on
// the caller's goroutine, at the deterministic point in the simulation
// where the coroutine was last given control.
func (c *Coro) Resume() {
	if c.done {
		panic(fmt.Sprintf("sim: resume of finished coroutine %q", c.name))
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.run)
	}
	c.next()
	c.repanic()
}

// Park yields control back to whoever resumed the coroutine and blocks the
// body until the next Resume. It must be called from the coroutine's own
// body.
func (c *Coro) Park() {
	c.parked = true
	alive := c.yield(struct{}{})
	c.parked = false
	if !alive {
		panic(coroKilled{c.name})
	}
}

// Kill unwinds a parked coroutine: its body panics with an internal
// sentinel (running deferred cleanup) and the coroutine is marked done.
// Killing an unstarted or finished coroutine is a no-op. A panic raised
// by the body's deferred cleanup resurfaces here.
func (c *Coro) Kill() {
	if c.done || c.next == nil {
		c.done = true
		return
	}
	if !c.parked {
		panic(fmt.Sprintf("sim: kill of running coroutine %q", c.name))
	}
	c.stop()
	c.repanic()
}

// repanic relays a panic captured on the coroutine's stack onto the
// engine side, once.
func (c *Coro) repanic() {
	if c.panicMsg != "" {
		msg := c.panicMsg
		c.panicMsg = ""
		panic(msg)
	}
}

// run is the pull iterator's sequence: the body, with its panics turned
// into a message the engine side re-raises.
func (c *Coro) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		c.done = true
		if r := recover(); r != nil {
			if _, ok := r.(coroKilled); !ok {
				// Real bug in simulated code: record it and let the
				// engine side re-panic with context, so the failure
				// surfaces synchronously at the Resume that ran it.
				c.panicMsg = fmt.Sprintf("sim: coroutine %q panicked: %v", c.name, r)
			}
		}
	}()
	c.body(c)
}
