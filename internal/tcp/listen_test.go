package tcp

import (
	"testing"

	"repro/internal/kern"
)

// ownerFuncs is an Owner built from two functions.
type ownerFuncs struct {
	established func(c *Client)
	received    func(c *Client, n int)
}

func (o ownerFuncs) Established(c *Client)     { o.established(c) }
func (o ownerFuncs) Received(c *Client, n int) { o.received(c, n) }

// TestListenAcceptServesActiveOpen walks one full churned-connection
// lifecycle through the passive-open path: a far-end client SYNs in, a
// parked acceptor wakes with the new socket, serves a request/response
// exchange, waits out the client's FIN and releases the slot back to
// the arena.
func TestListenAcceptServesActiveOpen(t *testing.T) {
	r := newRig(t, DefaultConfig())
	lst := r.st.Listen(8)

	const req, rsp = 384, 4096
	reqBuf := r.k.Space.AllocPage(4096, "lreqbuf")
	rspBuf := r.k.Space.AllocPage(4096, "lrspbuf")
	var served, released bool
	r.k.Spawn("acceptor", 0, 0, func(e *kern.Env) {
		s := lst.Accept(e)
		if s.State() != StateEstablished {
			t.Errorf("accepted socket in state %v, want ESTABLISHED", s.State())
		}
		s.Read(e, reqBuf, req)
		s.Write(e, rspBuf, rsp)
		served = true
		s.WaitClose(e)
		r.st.Release(e, s)
		released = true
	})

	c := r.st.NewActiveClient(9, r.nic)
	got := 0
	closed := false
	c.SetOwner(ownerFuncs{
		established: func(c *Client) { c.SendBytes(req) },
		received: func(c *Client, n int) {
			got += n
			if !closed && got >= rsp {
				closed = true
				c.Close()
			}
		},
	})
	r.eng.At(1000, c.Open)
	r.eng.Run(2_000_000_000)

	if !served {
		t.Fatal("acceptor never served the connection")
	}
	if got != rsp {
		t.Fatalf("client received %d bytes, want %d", got, rsp)
	}
	if !released {
		t.Fatal("acceptor never observed the close and released the socket")
	}
	if lst.Accepts != 1 || lst.SynDrops != 0 {
		t.Fatalf("listener accounting accepts=%d syndrops=%d, want 1/0", lst.Accepts, lst.SynDrops)
	}
	if r.st.Socket(9) != nil {
		t.Fatal("released connection still bound in the demux")
	}
}

// TestListenBacklogRefusesSyn pins the admission bound: with the accept
// queue full and no acceptor draining it, further SYNs are silently
// dropped and counted, never queued.
func TestListenBacklogRefusesSyn(t *testing.T) {
	r := newRig(t, DefaultConfig())
	lst := r.st.Listen(1)

	for conn := 10; conn < 13; conn++ {
		c := r.st.NewActiveClient(conn, r.nic)
		r.eng.At(1000, c.Open)
	}
	r.eng.Run(1_000_000_000)

	if len(lst.acceptQ) != 1 {
		t.Fatalf("accept queue holds %d connections, want the backlog bound 1", len(lst.acceptQ))
	}
	if lst.SynDrops != 2 {
		t.Fatalf("SynDrops=%d, want 2 refused connections", lst.SynDrops)
	}
}
