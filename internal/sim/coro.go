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
// Instead of parking, a body that waits for an event it has scheduled
// may drive the engine (Engine.Drive): it fires the pending events from
// its own stack. A Resume of a coroutine that is driving only marks it
// woken and returns at once; its drive then stops, and the body goes on
// once the event that resumed it has returned. That is the order parking
// would give only because every Resume site is the last thing its event
// does, so the caller must keep Resume in tail position (code after it
// may only inspect Done). An event that panics while a driver fires it
// unwinds the driving body, and its panic value resurfaces unchanged at
// the Resume that started the body's current run.
//
// Control transfers ride the runtime's coroutine switch behind iter.Pull:
// Resume is the pull iterator's next, Park is its yield, and Kill is its
// stop. The switch hands the thread directly to the other goroutine
// without going through the scheduler's run queue, so a handoff never
// wakes another thread. The body's goroutine is created on the first
// Resume, so a coroutine that is never started costs nothing.
type Coro struct {
	name   string
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   bool
	parked bool
	body   func(*Coro)
	// driver is the engine the coroutine is driving (nil when it is
	// not), and woken records a Resume that arrived meanwhile.
	driver *Engine
	woken  bool
	// panicVal is a panic caught on the coroutine's stack, pending its
	// re-raise at the Resume or Kill that ran it.
	panicVal any
}

// resumeHook, when set, is called on every Resume that switches into a
// coroutine. Tests count switches with it (export_test.go).
var resumeHook func()

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
// where the coroutine was last given control. Resuming a coroutine that
// is driving the engine only marks it woken (see Engine.Drive).
func (c *Coro) Resume() {
	if e := c.driver; e != nil {
		c.woken, e.woken = true, true
		return
	}
	if c.done {
		panic(fmt.Sprintf("sim: resume of finished coroutine %q", c.name))
	}
	if c.next == nil {
		c.next, c.stop = iter.Pull(c.run)
	}
	if resumeHook != nil {
		resumeHook()
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
	if v := c.panicVal; v != nil {
		c.panicVal = nil
		panic(v)
	}
}

// run is the pull iterator's sequence: the body, with its panics turned
// into a message the engine side re-raises.
func (c *Coro) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() {
		c.done = true
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(coroKilled); ok {
			return
		}
		if e := c.driver; e != nil {
			// An event fired by the drive panicked: the drain would
			// have raised it on the engine side as it is, so it is
			// relayed unwrapped, and the drive ends with it.
			e.woken, c.driver, c.woken = false, nil, false
			c.panicVal = r
			return
		}
		// Real bug in simulated code: record it and let the engine side
		// re-panic with context, so the failure surfaces synchronously
		// at the Resume that ran it.
		c.panicVal = fmt.Sprintf("sim: coroutine %q panicked: %v", c.name, r)
	}()
	c.body(c)
}
