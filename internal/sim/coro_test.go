package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to base and
// fails the test if it does not: a finished or killed coroutine must not
// leave its goroutine behind.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a coroutine leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoroLifecycleLeavesNoGoroutines runs coroutines into every
// terminal state — finished, killed while parked, never started and
// killed, never started and dropped — and checks no goroutine survives.
func TestCoroLifecycleLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	var parked []*Coro
	for i := 0; i < 50; i++ {
		finished := NewCoro("finished", func(c *Coro) { c.Park() })
		finished.Resume()
		finished.Resume()
		p := NewCoro("parked", func(c *Coro) {
			for {
				c.Park()
			}
		})
		p.Resume()
		parked = append(parked, p)
		NewCoro("unstarted", func(c *Coro) { t.Error("body ran") }).Kill()
		NewCoro("dropped", func(c *Coro) { t.Error("body ran") })
	}
	if got := runtime.NumGoroutine(); got < base+len(parked) {
		t.Fatalf("%d goroutines with %d coroutines parked, want at least %d", got, len(parked), base+len(parked))
	}
	for _, p := range parked {
		p.Kill()
	}
	settleGoroutines(t, base)
}

// TestCoroKillInsideNestedDefers kills a coroutine parked two calls deep,
// and one parked inside a deferred call. Every pending deferred call must
// run, innermost first, and nothing after the Park may.
func TestCoroKillInsideNestedDefers(t *testing.T) {
	var log []string
	note := func(s string) { log = append(log, s) }
	inner := func(c *Coro) {
		defer note("inner")
		c.Park()
		note("after park")
	}
	outer := func(c *Coro) {
		defer note("outer")
		inner(c)
		note("after inner")
	}
	deep := NewCoro("deep", func(c *Coro) {
		defer note("body")
		outer(c)
	})
	deep.Resume()
	deep.Kill()
	if got, want := strings.Join(log, ","), "inner,outer,body"; got != want {
		t.Fatalf("unwind order %q, want %q", got, want)
	}
	if !deep.Done() || deep.Parked() {
		t.Fatalf("after Kill: done=%v parked=%v", deep.Done(), deep.Parked())
	}

	log = nil
	inDefer := NewCoro("in-defer", func(c *Coro) {
		defer note("body")
		defer func() {
			defer note("cleanup")
			c.Park() // parks while the body is returning
			note("after park")
		}()
		note("returning")
	})
	inDefer.Resume()
	if !inDefer.Parked() {
		t.Fatal("coroutine did not park inside its deferred call")
	}
	inDefer.Kill()
	if got, want := strings.Join(log, ","), "returning,cleanup,body"; got != want {
		t.Fatalf("unwind order %q, want %q", got, want)
	}
	if !inDefer.Done() {
		t.Fatal("coroutine killed inside a deferred call is not done")
	}
}

// TestCoroResumesCoro has a coroutine drive another one: the handoff
// nests, and each Park returns control to its own resumer.
func TestCoroResumesCoro(t *testing.T) {
	base := runtime.NumGoroutine()
	var log []string
	child := NewCoro("child", func(c *Coro) {
		for i := 0; i < 2; i++ {
			log = append(log, "child")
			c.Park()
		}
	})
	parent := NewCoro("parent", func(c *Coro) {
		for !child.Done() {
			log = append(log, "parent")
			child.Resume()
			c.Park()
		}
		log = append(log, "parent done")
	})
	for !parent.Done() {
		log = append(log, "engine")
		parent.Resume()
	}
	want := "engine,parent,child,engine,parent,child,engine,parent,engine,parent done"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("handoff order\n got %s\nwant %s", got, want)
	}
	settleGoroutines(t, base)

	// A coroutine may also kill one it parked, and the body's panic
	// reaches the resuming coroutine first.
	victim := NewCoro("victim", func(c *Coro) {
		defer func() { panic("cleanup failed") }()
		c.Park()
	})
	var got any
	killer := NewCoro("killer", func(c *Coro) {
		victim.Resume()
		defer func() { got = recover() }()
		victim.Kill()
	})
	killer.Resume()
	if got != `sim: coroutine "victim" panicked: cleanup failed` || !victim.Done() || !killer.Done() {
		t.Fatalf("killer recovered %v; victim done=%v killer done=%v", got, victim.Done(), killer.Done())
	}
	settleGoroutines(t, base)
}

// TestCoroPanicMessages pins the panic values the engine side sees.
func TestCoroPanicMessages(t *testing.T) {
	catch := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	buggy := NewCoro("buggy", func(c *Coro) {
		c.Park()
		panic("boom")
	})
	buggy.Resume()
	if got, want := catch(buggy.Resume), `sim: coroutine "buggy" panicked: boom`; got != want {
		t.Errorf("body panic: got %v, want %q", got, want)
	}
	if !buggy.Done() {
		t.Error("coroutine not done after its body panicked")
	}
	if got, want := catch(buggy.Resume), `sim: resume of finished coroutine "buggy"`; got != want {
		t.Errorf("resume after done: got %v, want %q", got, want)
	}

	var self *Coro
	self = NewCoro("self", func(c *Coro) { self.Kill() })
	if got, want := catch(self.Resume), `sim: coroutine "self" panicked: sim: kill of running coroutine "self"`; got != want {
		t.Errorf("kill of running: got %v, want %q", got, want)
	}

	sloppy := NewCoro("sloppy", func(c *Coro) {
		defer func() { panic("cleanup") }()
		c.Park()
	})
	sloppy.Resume()
	if got, want := catch(sloppy.Kill), `sim: coroutine "sloppy" panicked: cleanup`; got != want {
		t.Errorf("cleanup panic on kill: got %v, want %q", got, want)
	}
}

// TestDrivenEventPanicSurfacesUnchanged pins the value an event's panic
// surfaces with from Engine.Run when it fires in a drive — here one
// nested in another: the value itself, as when the drain fires it, not
// wrapped as a driving coroutine's own panic. No driver outlives it.
func TestDrivenEventPanicSurfacesUnchanged(t *testing.T) {
	boom := errors.New("boom")
	for _, park := range []bool{false, true} {
		restore := SetAlwaysPark(park)
		e := NewEngine(1)
		wait := func(co *Coro, d Cycles) {
			e.After(d, co.Resume)
			if !e.Drive(co) {
				co.Park()
			}
		}
		outer := NewCoro("task:outer", func(co *Coro) { wait(co, 200) })
		inner := NewCoro("task:inner", func(co *Coro) { wait(co, 90) })
		e.At(0, outer.Resume)
		e.At(10, inner.Resume)
		drivers := 0
		e.At(50, func() {
			for _, co := range []*Coro{outer, inner} {
				if co.driver == e {
					drivers++
				}
			}
			panic(boom)
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run(1000)
			return nil
		}()
		restore()
		if got != boom {
			t.Errorf("park=%v: Run panicked with %v, want the event's own value", park, got)
		}
		if want := map[bool]int{false: 2, true: 0}[park]; drivers != want {
			t.Errorf("park=%v: the event panicked with %d coroutines driving, want %d", park, drivers, want)
		}
		for _, co := range []*Coro{outer, inner} {
			if co.driver != nil || co.woken {
				t.Errorf("park=%v: %s still drives after the panic", park, co.Name())
			}
			co.Kill()
		}
		if e.woken {
			t.Errorf("park=%v: the engine still holds a wake", park)
		}
	}
}
