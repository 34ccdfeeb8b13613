package tcp

import (
	"fmt"

	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
)

// Handle indexes a connection slot in the stack's socket arena. Sockets
// are flyweights: the exported *Socket is a two-word wrapper (stack +
// handle) and all mutable per-connection state lives in struct-of-arrays
// storage below, grouped by access pattern (transmit path, receive path,
// control/lifecycle, statistics). A 10⁵-connection cell therefore costs
// a few contiguous slices, not 10⁵ scattered heap objects.
type Handle = int32

// sockTx is the transmit-path state: sequence space, send window and
// buffer accounting, the retransmit queue, Nagle tail, and loss
// recovery.
type sockTx struct {
	sndUna      uint64
	sndNxt      uint64
	sndWnd      int // client's advertised window
	sndBufBytes int
	retransQ    []*SKB
	tail        *SKB // Nagle: partial segment under construction
	dupAcks     int
	// rtoBackoff counts consecutive retransmission-timer expiries; each
	// doubles the next timeout (capped), and a forward ACK clears it.
	rtoBackoff uint
	// recoverSeq suppresses further fast retransmits until snd_una
	// passes the point where the last recovery started (NewReno-style).
	recoverSeq uint64
}

// sockRx is the receive-path state: reassembly point, receive queue and
// its truesize accounting, and delayed-ACK/window-advertisement state.
type sockRx struct {
	rcvNxt       uint64
	rcvQ         []*SKB
	rcvQBytes    int
	segsSinceAck int
	lastWndAdv   int // receive window advertised in the last ACK
	// rcvRightEdge is rcvNxt+window as last advertised; a TCP receiver
	// must never move it backwards, which bounds how far the sender can
	// overrun freshly-consumed buffer space.
	rcvRightEdge uint64
}

// sockCtl is the control state: connection identity, the slot's
// simulated structures (allocated once when the slot is first created,
// reused across connection churn exactly as a slab cache reuses a
// kmem object — same addresses, same lock line, same timers), the
// socket lock/backlog, and the connection state machine.
type sockCtl struct {
	conn int
	nic  *netdev.NIC

	// Simulated structures: struct sock and the TCP control block. The
	// engine bin cannot avoid touching these (window math reads the
	// context), which is why affinity helps it (§6.3).
	sockAddr mem.Addr
	ctxAddr  mem.Addr
	// fileAddr is the VFS state the syscall path walks per call (struct
	// file, dentry, fd table slots): interface-bin working set.
	fileAddr mem.Addr

	sndWait  *kern.WaitQueue
	rcvWait  *kern.WaitQueue
	connWait *kern.WaitQueue

	// Socket lock: spinlock plus user-ownership flag, with a backlog for
	// packets arriving while the user owns the socket (2.4 semantics).
	slock       *kern.SpinLock
	ownedByUser bool
	backlog     []netdev.RxPacket

	retransTimer *kern.Timer
	delackTimer  *kern.Timer
	delackArmed  bool

	// Connection state machine (handshake.go).
	state State
}

// sockStats are the per-connection counters, folded into the stack-wide
// aggregate when a churned connection's slot is released.
type sockStats struct {
	appBytesIn, appBytesOut uint64
	segsIn, segsOut         uint64
	acksIn, acksOut         uint64
	backlogDeferrals        uint64
	retransmits             uint64
	outOfOrderDrops         uint64
	// dupAcksOut counts the immediate duplicate ACKs the go-back-N
	// receiver answered out-of-order segments with; fastRetrans counts
	// go-back episodes triggered by a dup-ACK train (RTO-driven
	// go-backs count only in retransmits).
	dupAcksOut  uint64
	fastRetrans uint64
}

func (a *sockStats) add(b *sockStats) {
	a.appBytesIn += b.appBytesIn
	a.appBytesOut += b.appBytesOut
	a.segsIn += b.segsIn
	a.segsOut += b.segsOut
	a.acksIn += b.acksIn
	a.acksOut += b.acksOut
	a.backlogDeferrals += b.backlogDeferrals
	a.retransmits += b.retransmits
	a.outOfOrderDrops += b.outOfOrderDrops
	a.dupAcksOut += b.dupAcksOut
	a.fastRetrans += b.fastRetrans
}

// Arena growth granularity. State is stored in fixed-capacity chunks so
// slot addresses stay stable while the arena grows: a task holding a
// *sockTx across a sleep must not be invalidated by a passive open
// growing the arena underneath it. A chunk is 64 slots, 24 KB across
// the four arrays: an 8-connection bulk cell pays for one chunk, not
// for hundreds of slots it never binds.
const (
	arenaChunkShift = 6
	arenaChunk      = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunk - 1
)

// sockArena is the per-machine struct-of-arrays socket store plus the
// LIFO slot free list (most-recently-released first, like a slab's
// array cache, so churned connections reuse cache-warm state).
type sockArena struct {
	tx    [][]sockTx
	rx    [][]sockRx
	ctl   [][]sockCtl
	stats [][]sockStats
	// socks holds one stable flyweight wrapper per slot; timer closures
	// and user code hold these across the slot's whole lifetime.
	socks []*Socket
	free  []Handle
	n     int // total slots
}

// grow appends one zeroed slot and returns its handle. Chunks are
// preallocated at full capacity so per-chunk appends never relocate.
func (a *sockArena) grow() Handle {
	h := Handle(a.n)
	if a.n&arenaChunkMask == 0 {
		a.tx = append(a.tx, make([]sockTx, 0, arenaChunk))
		a.rx = append(a.rx, make([]sockRx, 0, arenaChunk))
		a.ctl = append(a.ctl, make([]sockCtl, 0, arenaChunk))
		a.stats = append(a.stats, make([]sockStats, 0, arenaChunk))
	}
	ci := a.n >> arenaChunkShift
	a.tx[ci] = append(a.tx[ci], sockTx{})
	a.rx[ci] = append(a.rx[ci], sockRx{})
	a.ctl[ci] = append(a.ctl[ci], sockCtl{})
	a.stats[ci] = append(a.stats[ci], sockStats{})
	a.n++
	return h
}

func (a *sockArena) txAt(h Handle) *sockTx   { return &a.tx[h>>arenaChunkShift][h&arenaChunkMask] }
func (a *sockArena) rxAt(h Handle) *sockRx   { return &a.rx[h>>arenaChunkShift][h&arenaChunkMask] }
func (a *sockArena) ctlAt(h Handle) *sockCtl { return &a.ctl[h>>arenaChunkShift][h&arenaChunkMask] }
func (a *sockArena) statAt(h Handle) *sockStats {
	return &a.stats[h>>arenaChunkShift][h&arenaChunkMask]
}

// Slot state accessors on the flyweight wrapper.
func (s *Socket) tx() *sockTx      { return s.st.arena.txAt(s.h) }
func (s *Socket) rx() *sockRx      { return s.st.arena.rxAt(s.h) }
func (s *Socket) ctl() *sockCtl    { return s.st.arena.ctlAt(s.h) }
func (s *Socket) stat() *sockStats { return s.st.arena.statAt(s.h) }

// newSlot binds a slot for connection conn on nic: the most recently
// released slot if one is free (reusing its simulated addresses, wait
// queues, lock and timers — steady-state slab behaviour), otherwise a
// freshly allocated one. The fresh-slot path performs the simulated
// allocations in exactly the order the pre-flyweight NewConn did, so
// the bulk workload's address space is bit-identical.
func (st *Stack) newSlot(conn int, nic *netdev.NIC) Handle {
	a := &st.arena
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		st.rebindSlot(h, conn, nic)
		return h
	}
	k := st.K
	h := a.grow()
	ctl := a.ctlAt(h)
	// Simulated allocations happen in exactly the pre-flyweight NewConn
	// order: sock, ctx, file, wait queues, then the spinlock (which
	// allocates its own proc and lock line).
	*ctl = sockCtl{
		conn:     conn,
		nic:      nic,
		sockAddr: k.Space.Alloc(1536, fmt.Sprintf("sock%d", conn)),
		ctxAddr:  k.Space.Alloc(1280, fmt.Sprintf("tcp_ctx%d", conn)),
		fileAddr: k.Space.Alloc(2048, fmt.Sprintf("file%d", conn)),
		sndWait:  kern.NewWaitQueue(fmt.Sprintf("snd%d", conn)),
		rcvWait:  kern.NewWaitQueue(fmt.Sprintf("rcv%d", conn)),
		slock:    k.NewSpinLock(fmt.Sprintf("sk%d", conn)),
		state:    StateEstablished,
	}
	*a.txAt(h) = sockTx{sndUna: 1, sndNxt: 1, sndWnd: st.Cfg.SndBuf}
	*a.rxAt(h) = sockRx{
		rcvNxt:       1,
		lastWndAdv:   st.Cfg.RcvBuf,
		rcvRightEdge: 1 + uint64(st.Cfg.RcvBuf/2),
	}
	s := &Socket{st: st, h: h, Conn: conn, NIC: nic}
	a.socks = append(a.socks, s)
	ctl.connWait = kern.NewWaitQueue(fmt.Sprintf("conn%d", conn))
	ctl.retransTimer = k.NewTimer(func(env *kern.Env) { s.onRetransTimer(env) })
	ctl.delackTimer = k.NewTimer(func(env *kern.Env) { s.onDelackTimer(env) })
	return h
}

// rebindSlot resets a recycled slot for a new connection. Simulated
// resources (addresses, wait queues, lock, timers) carry over; protocol
// state and counters start fresh. Go-level queue slices are reused to
// keep churn allocation-free.
func (st *Stack) rebindSlot(h Handle, conn int, nic *netdev.NIC) {
	a := &st.arena
	ctl := a.ctlAt(h)
	ctl.conn, ctl.nic = conn, nic
	ctl.ownedByUser = false
	ctl.backlog = ctl.backlog[:0]
	ctl.delackArmed = false
	ctl.state = StateEstablished
	tx := a.txAt(h)
	*tx = sockTx{
		sndUna:   1,
		sndNxt:   1,
		sndWnd:   st.Cfg.SndBuf,
		retransQ: tx.retransQ[:0],
	}
	rx := a.rxAt(h)
	*rx = sockRx{
		rcvNxt:       1,
		rcvQ:         rx.rcvQ[:0],
		lastWndAdv:   st.Cfg.RcvBuf,
		rcvRightEdge: 1 + uint64(st.Cfg.RcvBuf/2),
	}
	*a.statAt(h) = sockStats{}
	s := a.socks[h]
	s.Conn, s.NIC = conn, nic
}

// Release tears down a churned connection after Close: remaining
// buffers return to the pool (the far end's final delayed ACK may never
// cover the response tail, and control segments carry no sequence
// space), timers disarm, per-connection counters fold into the stack
// aggregate, and the slot joins the free list for the next accept.
func (st *Stack) Release(env *kern.Env, s *Socket) {
	a := &st.arena
	h := s.h
	tx, rx, ctl := a.txAt(h), a.rxAt(h), a.ctlAt(h)
	// Detach the connection from the demux and its queues before the
	// first cost-bearing free. FreeSKB is a preemption point: a late
	// frame (the far end's final delayed ACK often races the FIN that
	// woke this task) processed by the other processor mid-Release would
	// find the socket still bound, walk retransQ and free buffers this
	// function already returned — a double free that later surfaces as
	// one skb aliased into two connections' queues. After unbindConn the
	// straggler demuxes to the orphan path instead; the detached local
	// slices stay valid because the slot joins the free list (and can be
	// rebound) only after every free below has completed.
	st.unbindConn(ctl.conn)
	retrans := tx.retransQ
	tx.retransQ = tx.retransQ[:0]
	tail := tx.tail
	tx.tail = nil
	rcvQ := rx.rcvQ
	rx.rcvQ = rx.rcvQ[:0]
	backlog := ctl.backlog
	ctl.backlog = ctl.backlog[:0]
	st.K.DelTimer(ctl.retransTimer)
	st.K.DelTimer(ctl.delackTimer)
	ctl.delackArmed = false
	ctl.state = StateClosed
	st.released.add(a.statAt(h))
	*a.statAt(h) = sockStats{}
	if c := st.lookupClient(ctl.conn); c != nil {
		st.releasedClient.retransmits += c.Retransmits
		st.releasedClient.outOfOrder += c.OutOfOrder
		st.releasedClient.dupAcksSent += c.DupAcksSent
		st.releasedClient.fastRetrans += c.FastRetrans
		st.connClient[ctl.conn] = nil
	}
	for _, skb := range retrans {
		st.Pool.FreeSKB(env, skb)
	}
	if tail != nil {
		st.Pool.FreeSKB(env, tail)
	}
	for _, skb := range rcvQ {
		st.Pool.FreeSKB(env, skb)
	}
	for _, pkt := range backlog {
		if skb, ok := pkt.Cookie.(*SKB); ok {
			st.Pool.FreeSKB(env, skb)
		}
	}
	a.free = append(a.free, h)
}

// Slots reports how many arena slots exist (peak concurrent
// connections); FreeSlots how many are currently unbound.
func (st *Stack) Slots() int     { return st.arena.n }
func (st *Stack) FreeSlots() int { return len(st.arena.free) }

// clientStats aggregates far-end client counters of released
// connections (the client mirror of the released sockStats).
type clientStats struct {
	retransmits uint64
	outOfOrder  uint64
	dupAcksSent uint64
	fastRetrans uint64
}

// sumSock totals one sockStats counter across every SUT socket the
// stack has ever hosted: live slots plus released (churned)
// connections.
func (st *Stack) sumSock(f func(*sockStats) uint64) uint64 {
	total := f(&st.released)
	for _, chunk := range st.arena.stats {
		for i := range chunk {
			total += f(&chunk[i])
		}
	}
	return total
}

// sumClient totals one client counter across live clients plus the
// given released aggregate.
func (st *Stack) sumClient(released uint64, f func(*Client) uint64) uint64 {
	total := released
	for _, c := range st.connClient {
		if c != nil {
			total += f(c)
		}
	}
	return total
}

// SocketRetransmits totals TCP retransmissions across every SUT socket
// the stack has ever hosted: live slots plus released (churned)
// connections.
func (st *Stack) SocketRetransmits() uint64 {
	return st.sumSock(func(s *sockStats) uint64 { return s.retransmits })
}

// SocketOutOfOrderDrops totals segments the SUT's go-back-N receivers
// refused (duplicates and gaps), live and released.
func (st *Stack) SocketOutOfOrderDrops() uint64 {
	return st.sumSock(func(s *sockStats) uint64 { return s.outOfOrderDrops })
}

// SocketDupAcks totals the immediate duplicate ACKs SUT receivers
// answered out-of-order segments with, live and released.
func (st *Stack) SocketDupAcks() uint64 {
	return st.sumSock(func(s *sockStats) uint64 { return s.dupAcksOut })
}

// SocketFastRetransmits totals dup-ACK-triggered go-back episodes on
// SUT senders (RTO go-backs excluded), live and released.
func (st *Stack) SocketFastRetransmits() uint64 {
	return st.sumSock(func(s *sockStats) uint64 { return s.fastRetrans })
}

// ClientRetransmits totals far-end client retransmissions, live and
// released.
func (st *Stack) ClientRetransmits() uint64 {
	return st.sumClient(st.releasedClient.retransmits, func(c *Client) uint64 { return c.Retransmits })
}

// ClientOutOfOrder totals segments the far-end go-back-N sinks refused,
// live and released.
func (st *Stack) ClientOutOfOrder() uint64 {
	return st.sumClient(st.releasedClient.outOfOrder, func(c *Client) uint64 { return c.OutOfOrder })
}

// ClientDupAcks totals duplicate ACKs the far-end sinks sent, live and
// released.
func (st *Stack) ClientDupAcks() uint64 {
	return st.sumClient(st.releasedClient.dupAcksSent, func(c *Client) uint64 { return c.DupAcksSent })
}

// ClientFastRetransmits totals dup-ACK-triggered go-back episodes on
// client sources, live and released.
func (st *Stack) ClientFastRetransmits() uint64 {
	return st.sumClient(st.releasedClient.fastRetrans, func(c *Client) uint64 { return c.FastRetrans })
}

// AppBytesInTotal sums application bytes delivered to SUT readers over
// every connection, live and released (churn workloads read this where
// bulk sums Machine.Sockets).
func (st *Stack) AppBytesInTotal() uint64 {
	total := st.released.appBytesIn
	for _, chunk := range st.arena.stats {
		for i := range chunk {
			total += chunk[i].appBytesIn
		}
	}
	return total
}
