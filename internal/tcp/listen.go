package tcp

import (
	"slices"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/perf"
)

// listenProcs are the passive-open procedures. They are registered lazily
// on the first Listen() call so workloads that never listen (bulk) leave
// the simulated address space — and therefore every cache-set mapping —
// exactly as it was before listening existed.
type listenProcs struct {
	inited         bool
	sysAccept      kern.Proc
	tcpV4ConnReq   kern.Proc
	tcpCreateChild kern.Proc
}

// Listener is the stack's accept point: a queue of passively-opened
// connections (arena handles) plus the wait queue accepting tasks sleep
// on. The model collapses Linux's SYN backlog and accept backlog into
// one queue: the three-way handshake is two segments here (control
// segments are sequence-free, see DESIGN.md), so a connection is
// established the moment the SYN|ACK is queued for transmit.
type Listener struct {
	st      *Stack
	acceptQ []Handle
	wait    *kern.WaitQueue
	max     int

	// Accepts counts connections handed to acceptors; SynDrops counts
	// SYNs refused because the accept queue was full or the transmit ring
	// could not take the SYN|ACK.
	Accepts  uint64
	SynDrops uint64
}

// Listen creates the stack's listener (one per stack, like a single
// server socket bound to the service port). backlog bounds the accept
// queue; zero means a generous default.
func (st *Stack) Listen(backlog int) *Listener {
	if st.listener != nil {
		panic("tcp: stack already listening")
	}
	if backlog <= 0 {
		backlog = 1024
	}
	if !st.lp.inited {
		k := st.K
		st.lp.inited = true
		st.lp.sysAccept = k.NewProc("sys_accept", perf.BinInterface, 768)
		st.lp.tcpV4ConnReq = k.NewProc("tcp_v4_conn_request", perf.BinEngine, 1536)
		st.lp.tcpCreateChild = k.NewProc("tcp_create_openreq_child", perf.BinEngine, 2048)
	}
	st.listener = &Listener{
		st:   st,
		wait: kern.NewWaitQueue("accept"),
		max:  backlog,
	}
	return st.listener
}

// Acceptor returns the stack's accept point (nil before Listen).
func (st *Stack) Acceptor() *Listener { return st.listener }

// rxNoSocket handles a packet whose connection has no socket: a SYN goes
// to the listener (passive open); anything else is a late segment for a
// churned connection (e.g. the far end's final delayed ACK) and is
// dropped — the demux miss still walks the hash bucket.
func (st *Stack) rxNoSocket(env *kern.Env, pkt netdev.RxPacket) {
	f := pkt.Frame
	env.Run(st.p.tcpV4Rcv, func(x *cpu.Exec) {
		x.Instr(145, 0.16, 0.01).Overhead(145).
			Load(st.hashAddr+mem.Addr((f.Conn*64)%(16<<10)), 64)
	})
	l := st.listener
	if f.Flags&netdev.FlagSyn == 0 || l == nil {
		st.OrphanDrops++
		if skb, ok := pkt.Cookie.(*SKB); ok {
			st.Pool.FreeSKB(env, skb)
		}
		return
	}
	l.passiveOpen(env, pkt)
}

// passiveOpen runs in softirq context: admission check, connection-
// request and child-socket creation costs, slot binding, and the SYN|ACK
// reply through the non-blocking transmit path (softirq must not sleep;
// a full ring means the embryonic connection is dropped and the far end
// sees silence, exactly like a lost SYN).
func (l *Listener) passiveOpen(env *kern.Env, pkt netdev.RxPacket) {
	st := l.st
	f := pkt.Frame
	freeRing := func() {
		if skb, ok := pkt.Cookie.(*SKB); ok {
			st.Pool.FreeSKB(env, skb)
		}
	}
	if len(l.acceptQ) >= l.max || st.lookupSocket(f.Conn) != nil {
		l.SynDrops++
		freeRing()
		return
	}
	env.Run(st.lp.tcpV4ConnReq, func(x *cpu.Exec) {
		x.Instr(420, 0.17, 0.012).Overhead(420).
			Load(st.hashAddr+mem.Addr((f.Conn*64)%(16<<10)), 64)
	})
	h := st.newSlot(f.Conn, st.Drv.NICs()[pkt.NIC])
	s := st.arena.socks[h]
	st.bindConn(f.Conn, h)
	ctl, tx := s.ctl(), s.tx()
	env.Run(st.lp.tcpCreateChild, func(x *cpu.Exec) {
		x.Instr(650, 0.16, 0.012).Overhead(650).
			Store(ctl.sockAddr, 512).Store(ctl.ctxAddr, 384)
	})
	tx.sndWnd = f.Window
	synack := st.Pool.AllocAckSkb(env)
	ok := st.Drv.Xmit(env, s.NIC, netdev.TxReq{
		Frame: netdev.WireFrame{
			Conn:   s.Conn,
			Window: s.advertise(),
			Flags:  netdev.FlagSyn | netdev.FlagAck,
		},
		Cookie: synack,
	})
	if !ok {
		st.Pool.FreeClone(env, synack)
		st.unbindConn(s.Conn)
		ctl.state = StateClosed
		st.arena.free = append(st.arena.free, h)
		l.SynDrops++
		freeRing()
		return
	}
	s.stat().acksOut++
	l.acceptQ = append(l.acceptQ, h)
	l.Accepts++
	l.wait.WakeOne(st.K, env)
	freeRing()
}

// Accept blocks the calling task until a passively-opened connection is
// available and returns its socket (FIFO — accept order is arrival
// order, which keeps multi-worker runs deterministic).
func (l *Listener) Accept(env *kern.Env) *Socket {
	if env.Task() == nil {
		panic("tcp: Accept from softirq context")
	}
	st := l.st
	env.Run(st.p.systemCall, func(x *cpu.Exec) {
		x.Instr(125, 0.2, 0.01).Overhead(825)
	})
	env.Run(st.lp.sysAccept, func(x *cpu.Exec) {
		x.Instr(210, 0.19, 0.012).Overhead(890)
	})
	for len(l.acceptQ) == 0 {
		env.Sleep(l.wait)
	}
	h := l.acceptQ[0]
	l.acceptQ = slices.Delete(l.acceptQ, 0, 1)
	return st.arena.socks[h]
}

// Backlog reports connections waiting to be accepted.
func (l *Listener) Backlog() int { return len(l.acceptQ) }
