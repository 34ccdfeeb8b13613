package tcp

import (
	"strings"
	"testing"

	"repro/internal/kern"
	"repro/internal/netdev"
)

// Regression tests for stale client timers surviving connection churn.
// The client model arms closures on the engine (delayed ACK, the RTO
// watchdog, in-flight ToPeer frames); Release can run before they fire.
// On the flyweight arena the conn id may be rebound to a brand-new
// connection by then, so a stale closure that still answers would ACK
// on the wrong connection — or, unbound, inflate OrphanDrops with
// ghosts. Every such closure must check live() and die silently.

// A delayed ACK armed before Release must not fire into the void: the
// conn is unbound, so an injected ACK would be charged as an orphan.
func TestStaleDelackAfterReleaseDropsNothing(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(4<<10, "userbuf")
	r.k.Spawn("writer", 0, 0, func(e *kern.Env) {
		// One MSS segment: below DelAckSegs, so the client arms its
		// 400k-cycle delayed ACK instead of answering immediately.
		r.s.Write(e, userBuf, r.st.Cfg.MSS)
	})
	armed := false
	wq, woke := kern.NewWaitQueue("reap"), false
	r.k.Spawn("reaper", 1, 0, func(e *kern.Env) {
		for !woke {
			e.Sleep(wq)
		}
		armed = r.c.DelackPending()
		r.st.Release(e, r.s)
		e.Sleep(kern.NewWaitQueue("park"))
	})
	// The segment reaches the client (arming its delayed ACK) at ~70k
	// cycles; tear the connection down mid-window, before the ~470k fire.
	r.eng.At(150_000, func() { woke = true; wq.WakeAll(r.k, nil) })
	r.eng.Run(2_000_000)
	if !armed {
		t.Fatal("test is vacuous: delayed ACK was not pending at Release time")
	}
	if r.c.DelackPending() {
		t.Fatal("delayed ACK still armed after its deadline passed")
	}
	if got := r.st.OrphanDrops; got != 0 {
		t.Fatalf("stale delayed ACK produced %d orphan drops", got)
	}
}

// Same race, but the slot's conn id has been rebound to a new
// connection before the stale timer fires: the ghost ACK must not land
// on the new socket's sequence space.
func TestStaleDelackAfterRebindLeavesNewConnUntouched(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(4<<10, "userbuf")
	r.k.Spawn("writer", 0, 0, func(e *kern.Env) {
		r.s.Write(e, userBuf, r.st.Cfg.MSS)
	})
	var s2 *Socket
	armed := false
	wq, woke := kern.NewWaitQueue("reap"), false
	r.k.Spawn("reaper", 1, 0, func(e *kern.Env) {
		for !woke {
			e.Sleep(wq)
		}
		armed = r.c.DelackPending()
		r.st.Release(e, r.s)
		s2, _ = r.st.NewConn(1, r.nic)
		e.Sleep(kern.NewWaitQueue("park"))
	})
	r.eng.At(150_000, func() { woke = true; wq.WakeAll(r.k, nil) })
	r.eng.Run(2_000_000)
	if !armed {
		t.Fatal("test is vacuous: delayed ACK was not pending at Release time")
	}
	if s2 == nil {
		t.Fatal("rebind never happened")
	}
	if got := s2.AcksIn(); got != 0 {
		t.Fatalf("rebound connection processed %d ACKs it never earned", got)
	}
	if got := s2.tx().sndUna; got != 1 {
		t.Fatalf("rebound connection's snd_una moved to %d on a ghost ACK", got)
	}
	if got := r.st.OrphanDrops; got != 0 {
		t.Fatalf("%d orphan drops after rebind", got)
	}
}

// The client's 400M-cycle RTO watchdog is armed whenever data is
// outstanding; releasing the connection mid-stream must kill it. An
// unguarded watchdog would go back and re-pump the whole window into a
// conn with no socket, forever, inflating OrphanDrops long after the
// wire drained.
func TestStaleWatchdogAfterReleaseStaysSilent(t *testing.T) {
	r := newRig(t, DefaultConfig())
	buf := r.k.Space.AllocPage(64<<10, "rbuf")
	r.k.Spawn("reader", 0, 0, func(e *kern.Env) {
		for {
			r.s.Read(e, buf, 16<<10)
		}
	})
	r.eng.At(1000, r.c.StartSource)
	r.k.Spawn("reaper", 1, 0, func(e *kern.Env) {
		e.Delay(5_000_000)
		r.c.StopSource()
		r.st.Release(e, r.s)
		e.Sleep(kern.NewWaitQueue("park"))
	})
	// Let the frames that were on the wire at Release time drain; those
	// orphan legitimately (the far end raced the teardown).
	r.eng.Run(20_000_000)
	inFlight := r.st.OrphanDrops
	// Run far past the watchdog deadline (armed at <=5M, fires +400M).
	r.eng.Run(900_000_000)
	if got := r.st.OrphanDrops; got != inFlight {
		t.Fatalf("stale watchdog kept transmitting: orphan drops grew %d -> %d", inFlight, got)
	}
}

// A released client goes back to the free list only when its last
// pending event has fired, and the next connection reuses it from a
// fresh state under a new generation.
func TestReleasedClientRetiresAfterItsLastEvent(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(4<<10, "userbuf")
	r.k.Spawn("writer", 0, 0, func(e *kern.Env) {
		r.s.Write(e, userBuf, r.st.Cfg.MSS)
	})
	armed, freeAtRelease := false, -1
	wq, woke := kern.NewWaitQueue("reap"), false
	r.k.Spawn("reaper", 1, 0, func(e *kern.Env) {
		for !woke {
			e.Sleep(wq)
		}
		armed = r.c.DelackPending()
		r.st.Release(e, r.s)
		freeAtRelease = len(r.st.clientFree)
		e.Sleep(kern.NewWaitQueue("park"))
	})
	r.eng.At(150_000, func() { woke = true; wq.WakeAll(r.k, nil) })
	r.eng.Run(2_000_000)
	if !armed {
		t.Fatal("test is vacuous: delayed ACK was not pending at Release time")
	}
	if freeAtRelease != 0 {
		t.Fatalf("%d clients free right after Release, want 0 while the delayed ACK is pending", freeAtRelease)
	}
	if got := len(r.st.clientFree); got != 1 {
		t.Fatalf("%d clients free after the delayed ACK fired, want 1", got)
	}
	old, gen := r.c, r.c.gen
	c := r.st.NewActiveClient(2, r.nic)
	if c != old || c.gen != gen {
		t.Fatalf("new connection got client %p generation %d, want the retired %p generation %d", c, c.gen, old, gen)
	}
	if c.Conn() != 2 || !c.Opening() || c.BytesReceived != 0 || c.AcksSent != 0 || c.delackArmed || c.delackFn == nil {
		t.Fatalf("reused client did not start fresh with its bound continuation: %+v", *c)
	}
	if r.st.ClientObjects() != 1 {
		t.Fatalf("stack made %d client objects, want 1", r.st.ClientObjects())
	}
}

// An event that fires for a retired client panics: the retirement
// accounting missed it, and it would act on whichever connection reuses
// the client next.
func TestRetiredClientEventPanics(t *testing.T) {
	for _, tc := range []struct {
		event string
		// arm schedules the event; slip then loses it from the
		// accounting retire reads.
		arm, slip func(c *Client)
	}{
		{
			event: "delivery",
			arm:   func(c *Client) { c.ToPeer(netdev.WireFrame{Conn: c.conn, Flags: netdev.FlagAck}) },
			slip:  func(c *Client) { c.pending = 0 },
		},
		{
			event: "delayed ACK",
			arm: func(c *Client) {
				c.delackArmed = true
				c.st.K.Eng.After(1000, c.delack)
			},
			slip: func(c *Client) { c.delackArmed = false },
		},
		{
			event: "watchdog",
			arm: func(c *Client) {
				c.sndNxt = c.sndUna + 1
				c.armWatchdog()
			},
			slip: func(c *Client) { c.watchArmed = false },
		},
	} {
		t.Run(tc.event, func(t *testing.T) {
			r := newRig(t, DefaultConfig())
			tc.arm(r.c)
			r.st.connClient[r.c.conn] = nil
			r.c.released = true
			tc.slip(r.c)
			r.c.retire()
			if len(r.st.clientFree) != 1 {
				t.Fatal("test is vacuous: the client did not retire")
			}
			defer func() {
				v := recover()
				if msg, _ := v.(string); !strings.Contains(msg, tc.event+" fired for retired client") {
					t.Fatalf("stale %s: recovered %v, want the retired-client panic", tc.event, v)
				}
			}()
			r.eng.Run(1_000_000_000)
			t.Fatalf("stale %s fired silently", tc.event)
		})
	}
}
