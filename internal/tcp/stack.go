// Package tcp implements the simulated TCP/IP stack of the system under
// test: a Linux-2.4-class protocol engine whose procedures are tagged
// with the paper's seven functional bins (Interface, Engine, Buf Mgmt,
// Copies, Driver, Locks, Timers) and whose data structures — sockets,
// TCP contexts, skbs, buffer pools — live at simulated physical addresses
// so cache locality, coherence bouncing and DMA effects arise
// structurally.
//
// The stack is functional, not decorative: sequence numbers advance,
// windows open and close, acknowledgments free retransmit-queue buffers,
// Nagle coalesces small writes, softirq receive processing defers to a
// socket backlog when the user owns the socket, and the copy routines
// reproduce the 2.4 asymmetry between the transmit path's unrolled copy
// and the receive path's `rep movl` copy-and-checksum.
package tcp

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/perf"
)

// Config sizes the stack.
type Config struct {
	// MSS is the maximum segment size (1460 for Ethernet).
	MSS int
	// SndBuf and RcvBuf are the per-socket buffer limits (and therefore
	// the flow-control windows).
	SndBuf, RcvBuf int
	// PoolSKBs is the number of full skbs (header+data) in the global
	// pool; PoolHeaders the number of header-only slots for clones.
	PoolSKBs, PoolHeaders int
	// DelAckSegs is how many data segments may arrive before an ACK must
	// be sent (2 = standard delayed ACK).
	DelAckSegs int
	// ClientDelayCycles is the far-end client's processing latency.
	ClientDelayCycles uint64
	// RxIntCopy selects the Linux-2.6-style integer receive copy instead
	// of 2.4's `rep movl` — the ablation for the paper's observation [1]
	// that an optimized RX copy appeared in 2.6.
	RxIntCopy bool
	// RTOInitCycles is the retransmission timeout armed for a fresh
	// transmission; consecutive timer expiries double it (exponential
	// backoff) up to RTOMaxCycles, and a forward ACK resets it. Zero
	// values mean the defaults (200 ms / 1.6 s at 2 GHz).
	RTOInitCycles uint64
	RTOMaxCycles  uint64
}

// Default retransmission-timer parameters (cycles at 2 GHz), used when
// the config leaves the fields zero.
const (
	DefaultRTOInitCycles = 400_000_000   // 200 ms
	DefaultRTOMaxCycles  = 3_200_000_000 // 1.6 s — three doublings
)

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		MSS:               1460,
		SndBuf:            64 << 10,
		RcvBuf:            64 << 10,
		PoolSKBs:          4096,
		PoolHeaders:       4096,
		DelAckSegs:        2,
		ClientDelayCycles: 10_000, // 5 µs
		RTOInitCycles:     DefaultRTOInitCycles,
		RTOMaxCycles:      DefaultRTOMaxCycles,
	}
}

// Stack is the SUT's TCP/IP implementation plus the registry of its
// simulated procedures.
type Stack struct {
	K   *kern.Kernel
	Cfg Config

	Drv  *netdev.Driver
	Pool *Pool

	// arena is the struct-of-arrays socket store (arena.go); connSock
	// and connClient map connection ids to arena handles and far-end
	// clients (dense slices — connection ids are small integers).
	arena      sockArena
	connSock   []Handle
	connClient []*Client
	// peerFree holds idle client-delivery slots (peerSlot) for reuse;
	// clientFree retired clients (Client.retire), of the clientObjects
	// the stack has made.
	peerFree      []*peerSlot
	clientFree    []*Client
	clientObjects int

	// released aggregates per-connection counters of churned (Released)
	// connections; releasedClient their far-end clients'.
	released       sockStats
	releasedClient clientStats

	// listener is the stack's accept point (Listen); nil until a server
	// workload listens. OrphanDrops counts packets that arrived for a
	// connection with no socket and no listener to give them to (late
	// ACKs for churned connections).
	listener    *Listener
	OrphanDrops uint64
	lp          listenProcs

	// hashAddr is the TCP established-connections hash table; lookups
	// touch a bucket line per packet.
	hashAddr mem.Addr

	p procs
}

// lookupSocket resolves a connection id to its live socket (nil when
// unknown or released).
func (st *Stack) lookupSocket(conn int) *Socket {
	if conn < 0 || conn >= len(st.connSock) || st.connSock[conn] < 0 {
		return nil
	}
	return st.arena.socks[st.connSock[conn]]
}

// lookupClient resolves a connection id to its far-end client.
func (st *Stack) lookupClient(conn int) *Client {
	if conn < 0 || conn >= len(st.connClient) {
		return nil
	}
	return st.connClient[conn]
}

func (st *Stack) ensureConn(conn int) {
	for len(st.connSock) <= conn {
		st.connSock = append(st.connSock, -1)
		st.connClient = append(st.connClient, nil)
	}
}

func (st *Stack) bindConn(conn int, h Handle) {
	st.ensureConn(conn)
	st.connSock[conn] = h
}

func (st *Stack) bindClient(conn int, c *Client) {
	st.ensureConn(conn)
	st.connClient[conn] = c
}

// unbindConn severs a released connection's id: late frames for it
// become orphans rather than aliasing the slot's next tenant.
func (st *Stack) unbindConn(conn int) {
	if conn >= 0 && conn < len(st.connSock) {
		st.connSock[conn] = -1
	}
}

// procs holds every simulated stack procedure, named and binned as the
// paper's Table 1/Table 4 symbols.
type procs struct {
	// Interface bin.
	systemCall   kern.Proc
	sysWrite     kern.Proc
	sysRead      kern.Proc
	sockWait     kern.Proc
	sockReadable kern.Proc // sock_def_readable
	writeSpace   kern.Proc // tcp_write_space

	// Engine bin.
	inetSendmsg    kern.Proc
	inetRecvmsg    kern.Proc
	tcpSendmsg     kern.Proc
	tcpTransmitSkb kern.Proc
	tcpV4Rcv       kern.Proc
	tcpV4DoRcv     kern.Proc
	tcpRcvEstab    kern.Proc
	tcpAck         kern.Proc
	tcpRecvmsg     kern.Proc
	tcpSelectWin   kern.Proc
	tcpSendAck     kern.Proc
	tcpConnect     kern.Proc
	tcpClose       kern.Proc

	// Buf Mgmt bin.
	allocSkb  kern.Proc
	kfreeSkb  kern.Proc
	skbClone  kern.Proc
	skbQueue  kern.Proc // skb queue/backlog manipulation
	sockRfree kern.Proc // receive-buffer accounting

	// Copies bin.
	copyFromUser kern.Proc // unrolled transmit copy
	csumCopyUser kern.Proc // rep-mov receive copy+checksum (2.4)
	intCopyUser  kern.Proc // integer receive copy (2.6 ablation)

	// Locks bin.
	lockSock    kern.Proc
	releaseSock kern.Proc

	// Timers bin.
	modTimer       kern.Proc
	delTimer       kern.Proc
	gettimeofday   kern.Proc
	tcpDelackTimer kern.Proc
	tcpWriteTimer  kern.Proc
}

// New builds the stack, its buffer pool and the NIC driver (with the
// stack's hooks installed).
func New(k *kern.Kernel, cfg Config) *Stack {
	if cfg.MSS <= 0 || cfg.SndBuf <= 0 || cfg.RcvBuf <= 0 {
		panic(fmt.Sprintf("tcp: bad config %+v", cfg))
	}
	if cfg.MSS > skbDataBytes-128 {
		panic(fmt.Sprintf("tcp: MSS %d exceeds skb buffer capacity %d (headroom included)", cfg.MSS, skbDataBytes-128))
	}
	st := &Stack{
		K:        k,
		Cfg:      cfg,
		hashAddr: k.Space.AllocPage(16<<10, "tcp_ehash"),
	}
	st.Pool = newPool(st, cfg.PoolSKBs, cfg.PoolHeaders)

	p := &st.p
	p.systemCall = k.NewProc("system_call", perf.BinInterface, 512)
	p.sysWrite = k.NewProc("sys_write", perf.BinInterface, 768)
	p.sysRead = k.NewProc("sys_read", perf.BinInterface, 768)
	p.sockWait = k.NewProc("sock_wait_for_wmem", perf.BinInterface, 640)
	p.sockReadable = k.NewProc("sock_def_readable", perf.BinInterface, 384)
	p.writeSpace = k.NewProc("tcp_write_space", perf.BinInterface, 384)

	p.inetSendmsg = k.NewProc("inet_sendmsg", perf.BinEngine, 256)
	p.inetRecvmsg = k.NewProc("inet_recvmsg", perf.BinEngine, 256)
	p.tcpSendmsg = k.NewProc("tcp_sendmsg", perf.BinEngine, 4096)
	p.tcpTransmitSkb = k.NewProc("tcp_transmit_skb", perf.BinEngine, 2048)
	p.tcpV4Rcv = k.NewProc("tcp_v4_rcv", perf.BinEngine, 1536)
	p.tcpV4DoRcv = k.NewProc("tcp_v4_do_rcv", perf.BinEngine, 512)
	p.tcpRcvEstab = k.NewProc("tcp_rcv_established", perf.BinEngine, 3072)
	p.tcpAck = k.NewProc("tcp_ack", perf.BinEngine, 2048)
	p.tcpRecvmsg = k.NewProc("tcp_recvmsg", perf.BinEngine, 3072)
	p.tcpSelectWin = k.NewProc("__tcp_select_window", perf.BinEngine, 512)
	p.tcpSendAck = k.NewProc("tcp_send_ack", perf.BinEngine, 512)
	p.tcpConnect = k.NewProc("tcp_connect", perf.BinEngine, 1536)
	p.tcpClose = k.NewProc("tcp_close", perf.BinEngine, 1024)

	p.allocSkb = k.NewProc("alloc_skb", perf.BinBufMgmt, 1024)
	p.kfreeSkb = k.NewProc("kfree_skb", perf.BinBufMgmt, 768)
	p.skbClone = k.NewProc("skb_clone", perf.BinBufMgmt, 768)
	p.skbQueue = k.NewProc("skb_queue_tail", perf.BinBufMgmt, 384)
	p.sockRfree = k.NewProc("sock_rfree", perf.BinBufMgmt, 384)

	p.copyFromUser = k.NewProc("__copy_from_user_ll", perf.BinCopies, 1024)
	p.csumCopyUser = k.NewProc("csum_and_copy_to_user", perf.BinCopies, 768)
	p.intCopyUser = k.NewProc("copy_to_user_int", perf.BinCopies, 1024)

	p.lockSock = k.NewProc("lock_sock", perf.BinLocks, 384)
	p.releaseSock = k.NewProc("release_sock", perf.BinLocks, 512)

	p.modTimer = k.NewProc("mod_timer", perf.BinTimers, 512)
	p.delTimer = k.NewProc("del_timer", perf.BinTimers, 384)
	p.gettimeofday = k.NewProc("do_gettimeofday", perf.BinTimers, 384)
	p.tcpDelackTimer = k.NewProc("tcp_delack_timer", perf.BinTimers, 512)
	p.tcpWriteTimer = k.NewProc("tcp_write_timer", perf.BinTimers, 512)

	st.Drv = netdev.NewDriver(k, netdev.Hooks{
		RxUp:       st.rxUp,
		TxDone:     st.txDone,
		AllocRxBuf: st.allocRxBuf,
	})
	return st
}

// demux routes frames leaving a NIC to the right connection's client,
// so one port can carry several connections.
type demux struct{ st *Stack }

// ToPeer implements netdev.Peer.
func (d *demux) ToPeer(f netdev.WireFrame) {
	if c := d.st.lookupClient(f.Conn); c != nil {
		c.ToPeer(f)
	}
}

// AddNIC attaches a gigabit port on vec and primes its receive ring from
// the pool (setup time, unmeasured).
func (st *Stack) AddNIC(vec apic.Vector) *netdev.NIC {
	return st.AddNICWithConfig(netdev.DefaultNICConfig(vec))
}

// AddNICWithConfig attaches a port with a custom device configuration
// (RSS queues, NAPI, loss rate, coalescing) and primes its rings.
func (st *Stack) AddNICWithConfig(cfg netdev.NICConfig) *netdev.NIC {
	n := st.Drv.AddNIC(cfg)
	n.SetPeer(&demux{st: st})
	prime := 128 * n.Queues()
	var bufs []mem.Addr
	var cookies []any
	for i := 0; i < prime; i++ {
		skb := st.Pool.grabForRing()
		bufs = append(bufs, skb.DataAddr)
		cookies = append(cookies, skb)
	}
	n.PrimeRx(bufs, cookies)
	return n
}

// Socket returns the socket for a connection id.
func (st *Stack) Socket(conn int) *Socket { return st.lookupSocket(conn) }

// Client returns the far-end model for a connection id.
func (st *Stack) Client(conn int) *Client { return st.lookupClient(conn) }

// allocRxBuf refills a NIC ring slot: alloc_skb in softirq context.
func (st *Stack) allocRxBuf(env *kern.Env) (mem.Addr, any) {
	skb := st.Pool.AllocSKB(env)
	return skb.DataAddr, skb
}

// txDone frees the transmit clone when the wire is done with it.
func (st *Stack) txDone(env *kern.Env, cookie any) {
	switch c := cookie.(type) {
	case *SKB:
		st.Pool.FreeSKB(env, c)
	case *Clone:
		st.Pool.FreeClone(env, c)
	case nil:
		// Pure ACKs carry no buffer.
	default:
		panic(fmt.Sprintf("tcp: unknown tx cookie %T", cookie))
	}
}
