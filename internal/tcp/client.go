package tcp

import (
	"fmt"

	"repro/internal/netdev"
)

// Client models the far end of one connection: an ideal client machine
// whose CPU is never the bottleneck (the paper provisions clients so the
// SUT saturates first). It speaks just enough TCP to exercise the SUT:
//
//   - as a sink (SUT transmit tests) it consumes data and returns
//     delayed ACKs — one per DelAckSegs segments, or after 200 µs;
//   - as a source (SUT receive tests) it streams MSS segments bounded by
//     the window the SUT advertises, reacting to window updates.
//
// Client state is plain values, not simulated memory: its cache
// behaviour is irrelevant to the characterization.
//
// A released client returns to its stack's free list once no pending
// event refers to it (see retire), and the next connection reuses it
// with its bound continuations; gen counts those lives.
type Client struct {
	st   *Stack
	conn int
	nic  *netdev.NIC
	gen  uint32

	// owner, when set, observes the establishment of an active open and
	// every data segment delivered to the client (request/response
	// workloads key their requests off it).
	owner Owner

	// Sink state.
	rcvNxt       uint64
	segsSinceAck int
	delackArmed  bool
	// delackFn is the delayed-ACK timer's event, bound on first use;
	// delackArmed keeps at most one pending.
	delackFn func()
	window   int

	// opening is set while a client-initiated (active) open is in
	// flight: the SYN is out and the SUT's SYN|ACK will establish the
	// connection.
	opening bool

	// Source state.
	active bool
	sndNxt uint64
	sndUna uint64
	// sndMax is the send high-water mark. A go-back rewinds sndNxt but
	// not sndMax: the bytes in [sndNxt, sndMax) were handed to the wire
	// and the receiver may hold them, so the client still owes their
	// (re)transmission even after StopSource — otherwise a rewind just
	// before shutdown would strand the receiver ahead of the sender's
	// own sequence accounting.
	sndMax uint64
	sutWnd int
	// backlogBytes are one-shot bytes queued by SendBytes (request/
	// response workloads), drained by pump alongside continuous mode.
	backlogBytes int

	dupAcks int
	// watchFn is the watchdog's event, bound on first use; watchArmed
	// keeps at most one pending, and watchMark is the ack point it was
	// armed at.
	watchFn    func()
	watchArmed bool
	watchMark  uint64
	// recoverSeq guards the go-back path: after a rewind, further
	// duplicate ACKs are ignored until the ack point passes the old
	// snd_nxt. Without it every dup-ACK train re-floods the whole window
	// onto the wire — under sustained burst loss the queued duplicates
	// grow without bound (a real sender's congestion control prevents
	// this; the ideal client needs at least the recover-point guard).
	recoverSeq uint64

	// pending counts frames delivered by ToPeer whose processing event
	// has not yet run (the quiesce check needs to see them).
	pending int
	// released is set by Release: the connection is gone, and the
	// client goes back to the free list once its events have fired.
	released bool

	// Stats.
	BytesReceived uint64
	BytesSent     uint64
	AcksSent      uint64
	SegsSent      uint64
	Retransmits   uint64
	OutOfOrder    uint64
	// DupAcksSent counts the immediate duplicate ACKs the go-back-N
	// sink answered out-of-order segments with; FastRetrans counts the
	// go-back episodes triggered by a dup-ACK train from the SUT (the
	// watchdog's timeouts count only in Retransmits).
	DupAcksSent uint64
	FastRetrans uint64
}

// Owner is the workload driving a client: the client reports its
// active open's establishment and each data segment it receives.
type Owner interface {
	// Established runs once, when the SUT's SYN|ACK answers Open.
	Established(c *Client)
	// Received runs for every in-order data segment, with its length.
	Received(c *Client, n int)
}

// clientReuse lets retired clients return to the stack's free list;
// tests turn it off to check that reuse moves no result.
var clientReuse = true

// newClient returns the far-end model for connection conn: the most
// recently retired client if one is free, otherwise a new one. A reused
// client starts from a new one's state, keeping its bound continuations
// and its generation.
func (st *Stack) newClient(conn int, nic *netdev.NIC) *Client {
	var c *Client
	if n := len(st.clientFree); n > 0 {
		c = st.clientFree[n-1]
		st.clientFree = st.clientFree[:n-1]
	} else {
		c = new(Client)
		st.clientObjects++
	}
	*c = Client{
		st:       st,
		conn:     conn,
		nic:      nic,
		gen:      c.gen,
		delackFn: c.delackFn,
		watchFn:  c.watchFn,
		rcvNxt:   1,
		sndNxt:   1,
		sndUna:   1,
		sndMax:   1,
		window:   st.Cfg.RcvBuf,
		// The SUT's initial advertisement is half its receive buffer
		// (truesize headroom); start from the same value.
		sutWnd: st.Cfg.RcvBuf / 2,
	}
	return c
}

// retire hands a released client back to the stack once no pending
// event refers to it: a ToPeer delivery, an armed delayed ACK or an
// armed watchdog. Release calls it, and so does each of those events
// when it fires after Release, so the last one to fire hands the client
// back. Retiring bumps the generation that deliveries check.
func (c *Client) retire() {
	if !c.released || c.pending > 0 || c.delackArmed || c.watchArmed {
		return
	}
	c.released = false
	c.gen++
	c.owner = nil
	if clientReuse {
		c.st.clientFree = append(c.st.clientFree, c)
	}
}

// stale reports an event that fired for a client after it retired: the
// accounting in retire missed a pending event, and the event would act
// on whatever connection now reuses the client.
func (c *Client) stale(event string) {
	panic(fmt.Sprintf("tcp: %s fired for retired client (conn %d, generation %d)", event, c.conn, c.gen))
}

// ToPeer implements netdev.Peer: a frame from the SUT reaches the client
// after its (small, fixed) processing delay. Delivery re-checks live:
// the stack can Release the connection while the frame is in flight,
// and a dead client must not answer on a conn id the arena may have
// rebound (see live).
func (c *Client) ToPeer(f netdev.WireFrame) {
	c.pending++
	c.st.K.Eng.After(c.st.Cfg.ClientDelayCycles, c.st.peerSlot(c, f).fire)
}

// peerSlot is one frame on its way into a client's processing: the
// client, its generation and the frame. Each event carries its own
// slot, and fire is bound once, when the slot is made; a delivered slot
// returns to the stack's free list.
type peerSlot struct {
	st   *Stack
	c    *Client
	gen  uint32
	f    netdev.WireFrame
	fire func()
}

// peerSlot takes an idle slot for frame f bound for c.
func (st *Stack) peerSlot(c *Client, f netdev.WireFrame) *peerSlot {
	var s *peerSlot
	if k := len(st.peerFree); k > 0 {
		s = st.peerFree[k-1]
		st.peerFree = st.peerFree[:k-1]
	} else {
		s = &peerSlot{st: st}
		s.fire = s.deliver
	}
	s.c, s.gen, s.f = c, c.gen, f
	return s
}

// deliver is the event that hands the frame to its client.
func (s *peerSlot) deliver() {
	c, f := s.c, s.f
	if s.gen != c.gen {
		c.stale("delivery")
	}
	s.c = nil
	s.st.peerFree = append(s.st.peerFree, s)
	c.pending--
	if !c.live() {
		c.retire()
		return
	}
	c.handle(f)
}

// live reports whether this client is still the bound far end of its
// connection. Release unbinds churned connections; any timer or
// delivery event armed before the teardown (delayed ACK, watchdog,
// in-flight ToPeer frames) must die silently when it fires after —
// on the flyweight arena the conn id may already belong to a new
// connection, and a stale ACK would land on it.
func (c *Client) live() bool { return c.st.lookupClient(c.conn) == c }

func (c *Client) handle(f netdev.WireFrame) {
	// Connection management: the ideal client accepts any open and
	// acknowledges any close immediately.
	if f.Flags&netdev.FlagSyn != 0 {
		if c.opening {
			// SYN|ACK answering our active open: established. The frame
			// carries the SUT's initial window; pump releases any request
			// bytes queued while the handshake was in flight.
			c.opening = false
			c.sutWnd = f.Window
			if c.owner != nil {
				c.owner.Established(c)
			}
			c.pump()
			return
		}
		c.nic.InjectFromWire(netdev.WireFrame{
			Conn:   c.conn,
			Window: c.window,
			Flags:  netdev.FlagSyn | netdev.FlagAck,
		})
		return
	}
	if f.Flags&netdev.FlagFin != 0 {
		c.nic.InjectFromWire(netdev.WireFrame{
			Conn:  c.conn,
			Flags: netdev.FlagFin | netdev.FlagAck,
		})
		return
	}
	if f.Len > 0 {
		if f.Seq != c.rcvNxt {
			// Go-back-N sink: drop duplicates and gaps, answer with an
			// immediate duplicate ACK so the SUT retransmits.
			c.OutOfOrder++
			c.DupAcksSent++
			c.sendAck()
			return
		}
		c.rcvNxt += uint64(f.Len)
		c.BytesReceived += uint64(f.Len)
		if c.owner != nil {
			c.owner.Received(c, f.Len)
		}
		c.segsSinceAck++
		if c.segsSinceAck >= c.st.Cfg.DelAckSegs {
			c.sendAck()
		} else if !c.delackArmed {
			c.delackArmed = true
			if c.delackFn == nil {
				c.delackFn = c.delack
			}
			c.st.K.Eng.After(400_000, c.delackFn) // 200 µs delayed ACK
		}
	}
	if f.Flags&netdev.FlagAck != 0 {
		switch {
		case f.Ack > c.sndUna:
			c.sndUna = f.Ack
			if c.sndNxt < c.sndUna {
				// A go-back (watchdog or dup-ACK) rewound snd_nxt, and
				// this ACK covers data from before the rewind — the SUT
				// had received it after all (it was merely delayed, e.g.
				// by a DMA stall or jitter). Resume from the ack point or
				// in-flight goes negative and the source wedges.
				c.sndNxt = c.sndUna
			}
			c.dupAcks = 0
		case f.Ack == c.sndUna && c.sndNxt > c.sndUna && f.Len == 0 && f.Window == c.sutWnd:
			// Duplicate ACK from the SUT: same ack point, same window
			// (a changed window means a window update, not a loss
			// signal). After three, go back to the last acknowledged
			// byte and resend the window.
			c.dupAcks++
			if c.dupAcks >= 3 {
				c.dupAcks = 0
				if c.sndUna >= c.recoverSeq {
					c.Retransmits++
					c.FastRetrans++
					c.recoverSeq = c.sndNxt
					c.sndNxt = c.sndUna
				}
			}
		}
		c.sutWnd = f.Window
		c.pump()
	}
	c.armWatchdog()
}

// delack is the delayed-ACK timer's event.
func (c *Client) delack() {
	if !c.delackArmed {
		c.stale("delayed ACK")
	}
	c.delackArmed = false
	if !c.live() {
		c.retire()
		return
	}
	if c.segsSinceAck > 0 {
		c.sendAck()
	}
}

// armWatchdog schedules a retransmission timeout for the client source:
// if no acknowledgment progress happens for 200 ms of virtual time while
// data is outstanding, the client goes back to snd_una. This is the
// ideal client's RTO — long enough that SUT scheduling stalls (quanta,
// starvation) never trigger it; the dup-ACK fast path handles ordinary
// loss much sooner.
func (c *Client) armWatchdog() {
	if c.watchArmed || (c.sndNxt == c.sndUna) {
		return
	}
	c.watchArmed = true
	c.watchMark = c.sndUna
	if c.watchFn == nil {
		c.watchFn = c.watchdog
	}
	c.st.K.Eng.After(400_000_000, c.watchFn)
}

// watchdog is the retransmission watchdog's event.
func (c *Client) watchdog() {
	if !c.watchArmed {
		c.stale("watchdog")
	}
	c.watchArmed = false
	if !c.live() {
		c.retire()
		return
	}
	if c.sndNxt > c.sndUna && c.sndUna == c.watchMark {
		c.Retransmits++
		c.recoverSeq = c.sndNxt
		c.sndNxt = c.sndUna
		c.pump()
	}
	c.armWatchdog()
}

func (c *Client) sendAck() {
	c.segsSinceAck = 0
	c.AcksSent++
	c.nic.InjectFromWire(netdev.WireFrame{
		Conn:   c.conn,
		Ack:    c.rcvNxt,
		Window: c.window,
		Flags:  netdev.FlagAck,
	})
}

// StartSource begins streaming data toward the SUT (receive tests).
func (c *Client) StartSource() {
	c.active = true
	c.pump()
}

// StopSource halts the stream after in-flight data drains.
func (c *Client) StopSource() { c.active = false }

// SendBytes queues n application bytes for one-shot transmission toward
// the SUT (request/response workloads); delivery respects the advertised
// window and MSS like the continuous source.
func (c *Client) SendBytes(n int) {
	if n <= 0 {
		return
	}
	c.backlogBytes += n
	c.pump()
}

// SetOwner installs o as the workload driving the client. Set it before
// Open or the first data the SUT sends.
func (c *Client) SetOwner(o Owner) { c.owner = o }

// Conn reports the client's connection id.
func (c *Client) Conn() int { return c.conn }

// --- active open / close (connection-churn workloads) ---

// NewActiveClient creates the far-end model for a connection the client
// side opens actively: the client is bound for demux immediately, but no
// SUT socket exists until its SYN reaches the stack's listener (passive
// open). Returns nil in place of a Socket by design — the server obtains
// the socket from Listener.Accept.
func (st *Stack) NewActiveClient(conn int, nic *netdev.NIC) *Client {
	if st.lookupClient(conn) != nil {
		panic("tcp: duplicate client connection")
	}
	c := st.newClient(conn, nic)
	c.opening = true
	st.bindClient(conn, c)
	return c
}

// Open sends the SYN toward the SUT. If the SUT's receive ring drops it
// (overload) or the listener refuses it, no SYN|ACK ever comes back and
// the connection silently never establishes — the workload accounts
// those as connection drops. No SYN retry is modelled.
func (c *Client) Open() {
	c.nic.InjectFromWire(netdev.WireFrame{
		Conn:   c.conn,
		Window: c.window,
		Flags:  netdev.FlagSyn,
	})
}

// Close sends a pure FIN toward the SUT (client-initiated close, fire
// and forget: the model sends no FIN|ACK back for a passive close).
func (c *Client) Close() {
	c.nic.InjectFromWire(netdev.WireFrame{
		Conn:  c.conn,
		Flags: netdev.FlagFin,
	})
}

// Opening reports whether an active open is still waiting for its
// SYN|ACK.
func (c *Client) Opening() bool { return c.opening }

// pump sends as many MSS segments as the SUT's advertised window allows.
// Link serialization inside the NIC paces actual delivery.
func (c *Client) pump() {
	if c.opening {
		// Nothing moves until the handshake completes.
		return
	}
	mss := c.st.Cfg.MSS
	for {
		want, fromBacklog := 0, false
		switch {
		case c.active:
			want = mss
		case c.backlogBytes >= mss:
			want, fromBacklog = mss, true
		case c.backlogBytes > 0:
			want, fromBacklog = c.backlogBytes, true
		case c.sndNxt < c.sndMax:
			// Stopped mid-recovery: resend the owed tail up to the high-
			// water mark so the two sequence spaces converge.
			want = mss
			if tail := int(c.sndMax - c.sndNxt); want > tail {
				want = tail
			}
		default:
			return
		}
		if int(c.sndNxt-c.sndUna)+want > c.sutWnd {
			return
		}
		c.nic.InjectFromWire(netdev.WireFrame{
			Conn:   c.conn,
			Seq:    c.sndNxt,
			Ack:    c.rcvNxt,
			Window: c.window,
			Len:    want,
			Flags:  netdev.FlagPsh | netdev.FlagAck,
		})
		c.sndNxt += uint64(want)
		if c.sndNxt > c.sndMax {
			c.sndMax = c.sndNxt
		}
		c.BytesSent += uint64(want)
		c.SegsSent++
		if fromBacklog {
			c.backlogBytes -= want
		}
	}
}

// InFlight reports the client source's unacknowledged bytes.
func (c *Client) InFlight() int { return int(c.sndNxt - c.sndUna) }

// Pending reports frames handed to the client whose processing event has
// not yet run (quiesce checks).
func (c *Client) Pending() int { return c.pending }

// UnsentTail reports bytes between the rewound send point and the high-
// water mark — data the client still owes the wire after a go-back
// (quiesce checks).
func (c *Client) UnsentTail() int { return int(c.sndMax - c.sndNxt) }

// DelackPending reports whether the client's delayed-ACK timer is armed
// (quiesce checks; it self-clears within 200 µs).
func (c *Client) DelackPending() bool { return c.delackArmed }
