package tcp

import (
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/sim"
)

// Socket is one established TCP connection endpoint on the SUT. Exactly
// one process uses each socket at a time, with the protocol's other
// half executing in softirq context — the split whose placement the
// four affinity modes control.
//
// Socket is a flyweight: a stack pointer plus an arena handle. All
// mutable state lives in the stack's struct-of-arrays arena (arena.go);
// Conn and NIC are the slot's current binding, updated when connection
// churn recycles the slot.
type Socket struct {
	st   *Stack
	h    Handle
	Conn int
	NIC  *netdev.NIC
}

// NewConn establishes connection conn over nic, returning the SUT socket
// and the far-end client model (already attached as the NIC's peer).
// Setup happens outside measured time, as in the paper ("a connection is
// set up once between two nodes").
func (st *Stack) NewConn(conn int, nic *netdev.NIC) (*Socket, *Client) {
	if st.lookupSocket(conn) != nil {
		panic(fmt.Sprintf("tcp: duplicate connection %d", conn))
	}
	h := st.newSlot(conn, nic)
	s := st.arena.socks[h]
	st.bindConn(conn, h)

	c := st.newClient(conn, nic)
	st.bindClient(conn, c)
	return s, c
}

// Handle exposes the socket's arena slot index (diagnostics, tests).
func (s *Socket) Handle() Handle { return s.h }

// InFlight reports unacknowledged transmit bytes.
func (s *Socket) InFlight() int {
	tx := s.tx()
	return int(tx.sndNxt - tx.sndUna)
}

// rcvWindow is the advertised receive window: half the buffer space not
// yet consumed by queued skbs' truesize (Linux's tcp_adv_win_scale
// halving, which reserves the other half for the truesize overhead of
// the payload the window invites), floored at zero.
func (s *Socket) rcvWindow() int {
	rx := s.rx()
	w := s.st.Cfg.RcvBuf - rx.rcvQBytes
	if w < 0 {
		w = 0
	}
	w /= 2
	// Never retract the previously advertised right edge.
	if edge := int(rx.rcvRightEdge - rx.rcvNxt); edge > w {
		w = edge
	}
	return w
}

// advertise computes the window to place in an outgoing segment and
// advances the committed right edge.
func (s *Socket) advertise() int {
	rx := s.rx()
	w := s.rcvWindow()
	if e := rx.rcvNxt + uint64(w); e > rx.rcvRightEdge {
		rx.rcvRightEdge = e
	}
	return w
}

// RcvQueued reports bytes waiting in the receive queue.
func (s *Socket) RcvQueued() int { return s.rx().rcvQBytes }

// --- per-connection counters (arena-backed) ---

// AppBytesIn and AppBytesOut are application bytes delivered to and
// accepted from this connection's user.
func (s *Socket) AppBytesIn() uint64  { return s.stat().appBytesIn }
func (s *Socket) AppBytesOut() uint64 { return s.stat().appBytesOut }

// SegsIn and SegsOut count data segments received and transmitted.
func (s *Socket) SegsIn() uint64  { return s.stat().segsIn }
func (s *Socket) SegsOut() uint64 { return s.stat().segsOut }

// AcksIn and AcksOut count acknowledgments processed and emitted.
func (s *Socket) AcksIn() uint64  { return s.stat().acksIn }
func (s *Socket) AcksOut() uint64 { return s.stat().acksOut }

// BacklogDeferrals counts packets parked on the socket backlog because
// the user owned the socket when softirq delivery arrived.
func (s *Socket) BacklogDeferrals() uint64 { return s.stat().backlogDeferrals }

// Retransmits counts segments this socket retransmitted.
func (s *Socket) Retransmits() uint64 { return s.stat().retransmits }

// OutOfOrderDrops counts go-back-N receiver drops (gaps/duplicates).
func (s *Socket) OutOfOrderDrops() uint64 { return s.stat().outOfOrderDrops }

// --- socket lock ---

// lockSock takes user ownership (process context).
func (s *Socket) lockSock(env *kern.Env) {
	ctl := s.ctl()
	ctl.slock.Lock(env)
	env.Run(s.st.p.lockSock, func(x *cpu.Exec) {
		x.Instr(45, 0.1, 0.02).Store(ctl.sockAddr, 32)
	})
	ctl.ownedByUser = true
	ctl.slock.Unlock(env)
}

// releaseSock drops user ownership, first processing any packets the
// softirq deferred to the backlog while the user held the socket.
func (s *Socket) releaseSock(env *kern.Env) {
	ctl := s.ctl()
	ctl.slock.Lock(env)
	for len(ctl.backlog) > 0 {
		pkt := ctl.backlog[0]
		ctl.backlog = slices.Delete(ctl.backlog, 0, 1)
		env.Run(s.st.p.tcpV4DoRcv, func(x *cpu.Exec) {
			x.Instr(45, 0.18, 0.015).Overhead(45).Load(ctl.sockAddr, 64)
		})
		s.doRcv(env, pkt)
	}
	ctl.ownedByUser = false
	env.Run(s.st.p.releaseSock, func(x *cpu.Exec) {
		x.Instr(55, 0.1, 0.02).Store(ctl.sockAddr, 32)
	})
	ctl.slock.Unlock(env)
}

// --- transmit path (process context) ---

// Write is the sendmsg fast path: syscall entry, socket lock, segmenting
// userBuf[0:size) into MSS skbs with the unrolled transmit copy, Nagle
// coalescing for sub-MSS tails, transmission through the bound NIC, and
// blocking when the send buffer fills. It returns when all bytes are
// queued (BSD blocking-socket semantics).
func (s *Socket) Write(env *kern.Env, userBuf mem.Addr, size int) {
	if env.Task() == nil {
		panic("tcp: Write from softirq context")
	}
	st := s.st
	p := &st.p
	tx, ctl := s.tx(), s.ctl()
	env.Run(p.systemCall, func(x *cpu.Exec) {
		x.Instr(125, 0.2, 0.01).Overhead(825)
	})
	env.Run(p.sysWrite, func(x *cpu.Exec) {
		x.Instr(190, 0.19, 0.012).Overhead(890).
			Load(ctl.fileAddr, 768).Store(ctl.fileAddr, 64).
			Load(ctl.sockAddr, 64)
	})
	env.Run(p.inetSendmsg, func(x *cpu.Exec) {
		x.Instr(55, 0.17, 0.01).Overhead(55).Load(ctl.sockAddr, 32)
	})
	s.lockSock(env)
	env.Run(p.tcpSendmsg, func(x *cpu.Exec) {
		x.Instr(160, 0.17, 0.006).Overhead(160).
			Load(ctl.sockAddr, 128).
			Load(ctl.ctxAddr, 128).Store(ctl.ctxAddr, 32)
	})

	mss := st.Cfg.MSS
	off := 0
	for off < size {
		if tx.sndBufBytes+skbTruesize > st.Cfg.SndBuf && (tx.tail == nil || tx.tail.Len >= mss) {
			// No room for another skb's truesize: wait for ACKs to free
			// queued buffers (sock_wait_for_wmem).
			s.releaseSock(env)
			env.Run(p.sockWait, func(x *cpu.Exec) {
				x.Instr(115, 0.22, 0.03).Overhead(615).Store(ctl.sockAddr, 64)
			})
			for tx.sndBufBytes+skbTruesize > st.Cfg.SndBuf {
				st.K.Trace.SockBlock(st.K.Now(), env.CPU().ID(), s.Conn, "sndbuf")
				env.Sleep(ctl.sndWait)
			}
			s.lockSock(env)
			continue
		}
		if tx.tail == nil || tx.tail.Len >= mss {
			tx.tail = st.Pool.AllocSKB(env)
			tx.sndBufBytes += skbTruesize
		}
		tail := tx.tail
		chunk := size - off
		if room := mss - tail.Len; chunk > room {
			chunk = room
		}
		// The transmit copy: the carefully unrolled loop whose alignment
		// is known in advance (§6.1), reading the (cache-warm) user
		// buffer and writing the skb.
		env.Run(p.copyFromUser, func(x *cpu.Exec) {
			x.Instr(uint64(chunk), 0.02, 0.005).
				Load(userBuf+mem.Addr(off), chunk).
				Store(tail.DataAddr+mem.Addr(tail.Len), chunk)
		})
		tail.Len += chunk
		off += chunk
		env.Run(p.tcpSendmsg, func(x *cpu.Exec) {
			x.Instr(145, 0.17, 0.006).Overhead(145).
				Load(ctl.ctxAddr, 256).Store(ctl.ctxAddr, 64).
				Store(tail.HeadAddr, 64)
		})
		// Transmit a full segment immediately; flush a partial tail only
		// when nothing is in flight (Nagle).
		if tail.Len >= mss {
			tx.tail = nil
			s.queueAndTransmit(env, tail)
		} else if off >= size && s.InFlight() == 0 {
			tx.tail = nil
			s.queueAndTransmit(env, tail)
		}
	}
	s.releaseSock(env)
	s.stat().appBytesOut += uint64(size)
}

// queueAndTransmit assigns sequence space, appends to the retransmit
// queue and pushes the segment to the device. Caller owns the socket.
func (s *Socket) queueAndTransmit(env *kern.Env, skb *SKB) {
	tx := s.tx()
	skb.Seq = tx.sndNxt
	tx.sndNxt += uint64(skb.Len)
	tx.retransQ = append(tx.retransQ, skb)
	s.transmitSkb(env, skb)
}

// transmitSkb is tcp_transmit_skb: header construction, window
// selection, retransmit-timer arming, clone, and the driver transmit.
func (s *Socket) transmitSkb(env *kern.Env, skb *SKB) {
	st := s.st
	p := &st.p
	rx, ctl := s.rx(), s.ctl()
	env.Run(p.tcpTransmitSkb, func(x *cpu.Exec) {
		x.Instr(215, 0.16, 0.01).Overhead(215).
			Load(ctl.ctxAddr, 384).Store(ctl.ctxAddr, 128).
			Load(skb.HeadAddr, 256).Store(skb.HeadAddr, 128).
			Store(skb.DataAddr, 64) // header bytes prepended to payload
	})
	env.Run(p.tcpSelectWin, func(x *cpu.Exec) {
		x.Instr(42, 0.18, 0.008).Overhead(43).Load(ctl.ctxAddr, 64)
	})
	clone := st.Pool.AllocClone(env, skb)
	env.Run(p.modTimer, func(x *cpu.Exec) {
		x.Instr(95, 0.16, 0.01).Store(ctl.ctxAddr, 16)
	})
	st.K.ModTimer(ctl.retransTimer, st.K.Now()+s.rto())
	s.stat().segsOut++
	win := s.advertise()
	rx.lastWndAdv = win
	st.Drv.XmitBlocking(env, s.NIC, netdev.TxReq{
		Frame: netdev.WireFrame{
			Conn:   s.Conn,
			Seq:    skb.Seq,
			Ack:    rx.rcvNxt,
			Window: win,
			Len:    skb.Len,
			Flags:  netdev.FlagPsh | netdev.FlagAck,
		},
		Data:   skb.DataAddr,
		Cookie: clone,
	})
}

// sendAck emits a pure acknowledgment advertising the current window.
func (s *Socket) sendAck(env *kern.Env) {
	st := s.st
	p := &st.p
	rx, ctl := s.rx(), s.ctl()
	env.Run(p.tcpSendAck, func(x *cpu.Exec) {
		x.Instr(80, 0.17, 0.01).Overhead(80).Load(ctl.ctxAddr, 64)
	})
	env.Run(p.tcpSelectWin, func(x *cpu.Exec) {
		x.Instr(42, 0.18, 0.008).Overhead(43).Load(ctl.ctxAddr, 64)
	})
	ack := st.Pool.AllocAckSkb(env)
	env.Run(p.tcpTransmitSkb, func(x *cpu.Exec) {
		x.Instr(150, 0.16, 0.01).Overhead(150).
			Load(ctl.ctxAddr, 64).Store(ctl.ctxAddr, 32).
			Store(ack.HeadAddr, 64)
	})
	rx.segsSinceAck = 0
	win := s.advertise()
	rx.lastWndAdv = win
	s.stat().acksOut++
	st.Drv.XmitBlocking(env, s.NIC, netdev.TxReq{
		Frame: netdev.WireFrame{
			Conn:   s.Conn,
			Ack:    rx.rcvNxt,
			Window: win,
			Flags:  netdev.FlagAck,
		},
		Cookie: ack,
	})
}

// --- receive path ---

// rxUp is the protocol entry from the driver: tcp_v4_rcv in softirq
// context. The bottom half timestamps the packet (do_gettimeofday — the
// paper's RX Timers cost), then either processes it or defers to the
// backlog when the user owns the socket. A packet for a connection with
// no socket goes to the listener (SYN: passive open) or is dropped as
// an orphan (late ACKs for churned connections).
func (st *Stack) rxUp(env *kern.Env, pkt netdev.RxPacket) {
	f := pkt.Frame
	s := st.lookupSocket(f.Conn)
	if s == nil {
		st.rxNoSocket(env, pkt)
		return
	}
	p := &st.p
	ctl := s.ctl()
	env.Run(p.tcpV4Rcv, func(x *cpu.Exec) {
		x.Instr(145, 0.16, 0.01).Overhead(145).
			Load(st.hashAddr+mem.Addr((f.Conn*64)%(16<<10)), 64).
			Load(ctl.sockAddr, 128)
	})
	env.Run(p.gettimeofday, func(x *cpu.Exec) {
		x.Instr(360, 0.12, 0.002).Overhead(900).
			Load(st.K.XtimeAddr, 8).Load(st.K.XtimeAddr, 8).Load(st.K.XtimeAddr, 8)
	})
	ctl.slock.Lock(env)
	if ctl.ownedByUser {
		s.stat().backlogDeferrals++
		env.Run(p.skbQueue, func(x *cpu.Exec) {
			x.Instr(80, 0.18, 0.012).Store(ctl.sockAddr, 32)
		})
		ctl.backlog = append(ctl.backlog, pkt)
		ctl.slock.Unlock(env)
		return
	}
	s.doRcv(env, pkt)
	ctl.slock.Unlock(env)
}

// doRcv processes one packet under the socket lock (softirq) or under
// user ownership (backlog replay in process context).
func (s *Socket) doRcv(env *kern.Env, pkt netdev.RxPacket) {
	f := pkt.Frame
	if f.Flags&(netdev.FlagSyn|netdev.FlagFin) != 0 {
		if s.rcvControl(env, f) {
			if skb, ok := pkt.Cookie.(*SKB); ok {
				s.st.Pool.FreeSKB(env, skb)
			}
			return
		}
	}
	if f.Len > 0 {
		s.rcvData(env, pkt)
	} else if skb, ok := pkt.Cookie.(*SKB); ok {
		// Pure ACK: the ring skb carries no payload to keep; free it.
		s.st.Pool.FreeSKB(env, skb)
	}
	if f.Flags&netdev.FlagAck != 0 {
		s.rcvAck(env, f)
	}
}

// rcvData is tcp_rcv_established for an in-order data segment.
func (s *Socket) rcvData(env *kern.Env, pkt netdev.RxPacket) {
	st := s.st
	p := &st.p
	f := pkt.Frame
	skb := pkt.Cookie.(*SKB)
	rx, ctl := s.rx(), s.ctl()
	if f.Seq != rx.rcvNxt {
		// Go-back-N receiver: duplicates and gaps are dropped, answered
		// with an immediate (duplicate) ACK re-advertising rcv_nxt so the
		// sender retransmits.
		s.stat().outOfOrderDrops++
		s.stat().dupAcksOut++
		st.Pool.FreeSKB(env, skb)
		s.sendAck(env)
		return
	}
	env.Run(p.tcpRcvEstab, func(x *cpu.Exec) {
		x.Instr(200, 0.16, 0.008).Overhead(200).
			Load(ctl.ctxAddr, 640).Store(ctl.ctxAddr, 192).
			Load(skb.HeadAddr, 128).Store(skb.HeadAddr, 64)
	})
	skb.Seq = f.Seq
	skb.Len = f.Len
	skb.Consumed = 0
	rx.rcvNxt += uint64(f.Len)
	rx.rcvQ = append(rx.rcvQ, skb)
	rx.rcvQBytes += skbTruesize
	s.stat().segsIn++
	env.Run(p.skbQueue, func(x *cpu.Exec) {
		x.Instr(75, 0.18, 0.012).Store(ctl.sockAddr, 32).Store(skb.HeadAddr, 16)
	})
	rx.segsSinceAck++
	if rx.segsSinceAck >= st.Cfg.DelAckSegs {
		s.sendAck(env)
	} else if !ctl.delackArmed {
		ctl.delackArmed = true
		env.Run(p.modTimer, func(x *cpu.Exec) {
			x.Instr(95, 0.16, 0.01).Store(ctl.ctxAddr, 16)
		})
		st.K.ModTimer(ctl.delackTimer, st.K.Now()+400_000) // 200 µs
	}
	if ctl.rcvWait.Len() > 0 {
		env.Run(p.sockReadable, func(x *cpu.Exec) {
			x.Instr(75, 0.2, 0.02).Overhead(325).Load(ctl.sockAddr, 64)
		})
		st.K.Trace.SockWake(st.K.Now(), env.CPU().ID(), s.Conn, "rcvbuf", ctl.rcvWait.Len())
		ctl.rcvWait.WakeAll(st.K, env)
	}
}

// rcvAck is tcp_ack: advance snd_una, free acknowledged retransmit-queue
// skbs, manage the retransmit timer, push a Nagle-held tail, and wake a
// writer waiting for buffer space.
func (s *Socket) rcvAck(env *kern.Env, f netdev.WireFrame) {
	st := s.st
	p := &st.p
	tx, ctl := s.tx(), s.ctl()
	s.stat().acksIn++
	freed := 0
	env.Run(p.tcpAck, func(x *cpu.Exec) {
		x.Instr(155, 0.17, 0.008).Overhead(155).
			Load(ctl.ctxAddr, 448).Store(ctl.ctxAddr, 128).
			Store(ctl.sockAddr, 64)
	})
	if f.Ack == tx.sndUna && s.InFlight() > 0 && f.Len == 0 {
		// Duplicate ACK: three in a row trigger go-back-N retransmission
		// of the outstanding window (the receiver dropped everything past
		// the gap), once per recovery episode.
		tx.dupAcks++
		if tx.dupAcks >= 3 && tx.sndUna >= tx.recoverSeq {
			tx.dupAcks = 0
			s.stat().fastRetrans++
			s.goBackN(env)
		}
	}
	if f.Ack > tx.sndUna {
		tx.dupAcks = 0
		tx.rtoBackoff = 0
		tx.sndUna = f.Ack
		for len(tx.retransQ) > 0 {
			head := tx.retransQ[0]
			if head.Seq+uint64(head.Len) > tx.sndUna {
				break
			}
			tx.retransQ = slices.Delete(tx.retransQ, 0, 1)
			tx.sndBufBytes -= skbTruesize
			st.Pool.FreeSKB(env, head)
			freed++
		}
		if s.InFlight() == 0 {
			env.Run(p.delTimer, func(x *cpu.Exec) {
				x.Instr(60, 0.15, 0.008).Store(ctl.ctxAddr, 16)
			})
			st.K.DelTimer(ctl.retransTimer)
		} else {
			env.Run(p.modTimer, func(x *cpu.Exec) {
				x.Instr(95, 0.16, 0.01).Store(ctl.ctxAddr, 16)
			})
			st.K.ModTimer(ctl.retransTimer, st.K.Now()+s.rto())
		}
	}
	tx.sndWnd = f.Window
	// Nagle: a held tail goes out once everything else is acknowledged.
	if s.InFlight() == 0 && tx.tail != nil && tx.tail.Len > 0 {
		t := tx.tail
		tx.tail = nil
		s.queueAndTransmit(env, t)
	}
	if freed > 0 && ctl.sndWait.Len() > 0 && tx.sndBufBytes+skbTruesize <= st.Cfg.SndBuf {
		env.Run(p.writeSpace, func(x *cpu.Exec) {
			x.Instr(70, 0.2, 0.02).Overhead(320).Load(ctl.sockAddr, 64)
		})
		st.K.Trace.SockWake(st.K.Now(), env.CPU().ID(), s.Conn, "sndbuf", ctl.sndWait.Len())
		ctl.sndWait.WakeAll(st.K, env)
	}
}

// --- receive path (process context) ---

// Read is the recvmsg fast path: syscall entry, socket lock, draining
// the receive queue through the 2.4 `rep movl` copy-and-checksum (or the
// 2.6 integer copy under the ablation), freeing drained skbs, sending
// window updates as the window reopens, and blocking while the queue is
// empty. It returns when size bytes have been delivered.
func (s *Socket) Read(env *kern.Env, userBuf mem.Addr, size int) {
	if env.Task() == nil {
		panic("tcp: Read from softirq context")
	}
	st := s.st
	p := &st.p
	rx, ctl := s.rx(), s.ctl()
	env.Run(p.systemCall, func(x *cpu.Exec) {
		x.Instr(125, 0.2, 0.01).Overhead(825)
	})
	env.Run(p.sysRead, func(x *cpu.Exec) {
		x.Instr(190, 0.19, 0.012).Overhead(890).
			Load(ctl.fileAddr, 768).Store(ctl.fileAddr, 64).
			Load(ctl.sockAddr, 64)
	})
	env.Run(p.inetRecvmsg, func(x *cpu.Exec) {
		x.Instr(55, 0.17, 0.01).Overhead(55).Load(ctl.sockAddr, 32)
	})
	s.lockSock(env)
	env.Run(p.tcpRecvmsg, func(x *cpu.Exec) {
		x.Instr(165, 0.15, 0.009).Overhead(165).
			Load(ctl.sockAddr, 128).
			Load(ctl.ctxAddr, 128).Store(ctl.ctxAddr, 32)
	})
	copied := 0
	for copied < size {
		if len(rx.rcvQ) == 0 {
			s.releaseSock(env)
			env.Run(p.sockWait, func(x *cpu.Exec) {
				x.Instr(115, 0.22, 0.03).Overhead(615).Store(ctl.sockAddr, 64)
			})
			for len(rx.rcvQ) == 0 {
				st.K.Trace.SockBlock(st.K.Now(), env.CPU().ID(), s.Conn, "rcvbuf")
				env.Sleep(ctl.rcvWait)
			}
			s.lockSock(env)
			continue
		}
		skb := rx.rcvQ[0]
		env.Run(p.tcpRecvmsg, func(x *cpu.Exec) {
			x.Instr(30, 0.15, 0.009).Overhead(30).Load(skb.HeadAddr, 128)
		})
		chunk := size - copied
		if rem := skb.Remaining(); chunk > rem {
			chunk = rem
		}
		copyProc := p.csumCopyUser
		if st.Cfg.RxIntCopy {
			copyProc = p.intCopyUser
		}
		env.Run(copyProc, func(x *cpu.Exec) {
			instr := uint64(chunk / 4)
			overhead := uint64(3 * chunk) // rep-mov microcode + checksum
			if st.Cfg.RxIntCopy {
				instr = uint64(chunk)        // explicit integer moves
				overhead = uint64(chunk / 2) // far less microcode stall
			}
			if instr == 0 {
				instr = 1
			}
			x.Instr(instr, 0.02, 0.005).
				Overhead(overhead).
				Load(skb.DataAddr+mem.Addr(skb.Consumed), chunk).
				Store(userBuf+mem.Addr(copied), chunk)
		})
		skb.Consumed += chunk
		copied += chunk
		if skb.Remaining() == 0 {
			rx.rcvQ = slices.Delete(rx.rcvQ, 0, 1)
			rx.rcvQBytes -= skbTruesize
			env.Run(p.sockRfree, func(x *cpu.Exec) {
				x.Instr(70, 0.18, 0.012).Store(ctl.sockAddr, 32)
			})
			st.Pool.FreeSKB(env, skb)
			// tcp_cleanup_rbuf: advertise reopened space as soon as it is
			// worth a frame (2×MSS hysteresis) — mid-read, or a sender
			// blocked on a zero window could deadlock against a reader
			// blocked on an empty queue.
			if s.rcvWindow()-rx.lastWndAdv >= 2*st.Cfg.MSS {
				s.sendAck(env)
			}
		}
		env.Run(p.tcpRecvmsg, func(x *cpu.Exec) {
			x.Instr(80, 0.15, 0.009).Overhead(80).Load(ctl.ctxAddr, 64)
		})
	}
	s.releaseSock(env)
	s.stat().appBytesIn += uint64(size)
}

// --- timers ---

// onRetransTimer retransmits the oldest unacknowledged segment. In the
// paper's loss-free LAN it never fires; with a lossy link (a fault
// schedule's loss or burst events) it is the recovery of last resort
// behind fast retransmit.
func (s *Socket) onRetransTimer(env *kern.Env) {
	tx, ctl := s.tx(), s.ctl()
	env.Run(s.st.p.tcpWriteTimer, func(x *cpu.Exec) {
		x.Instr(180, 0.18, 0.015).Load(ctl.ctxAddr, 64)
	})
	ctl.slock.Lock(env)
	if ctl.ownedByUser {
		// The user owns the socket; retry shortly (real kernels defer
		// similarly rather than spin on the lock in timer context).
		ctl.slock.Unlock(env)
		s.st.K.ModTimer(ctl.retransTimer, s.st.K.Now()+sim.Time(2_000_000))
		return
	}
	if len(tx.retransQ) > 0 {
		// A timer expiry means the estimate was wrong or the path is
		// down: back off before retransmitting (transmitSkb re-arms with
		// the doubled value), so a dead link decays to sparse probes
		// instead of a fixed-rate retransmission storm.
		tx.rtoBackoff++
		s.goBackN(env)
	}
	ctl.slock.Unlock(env)
}

// rto is the current retransmission timeout: the configured initial
// value doubled once per consecutive timer expiry, saturating at the
// configured cap. Zero-valued config fields fall back to the defaults
// so pre-existing configs keep their 200 ms behaviour.
func (s *Socket) rto() sim.Time {
	init, max := s.st.Cfg.RTOInitCycles, s.st.Cfg.RTOMaxCycles
	if init == 0 {
		init = DefaultRTOInitCycles
	}
	if max == 0 {
		max = DefaultRTOMaxCycles
	}
	if max < init {
		max = init
	}
	rto := init
	for i := uint(0); i < s.tx().rtoBackoff; i++ {
		rto <<= 1
		if rto >= max || rto < init { // saturate, and guard shift overflow
			return sim.Time(max)
		}
	}
	if rto > max {
		rto = max
	}
	return sim.Time(rto)
}

// goBackN retransmits every outstanding segment and marks the recovery
// point. The receiver is go-back-N (it dropped everything past the first
// gap), so resending the window is both necessary and sufficient.
func (s *Socket) goBackN(env *kern.Env) {
	tx := s.tx()
	tx.recoverSeq = tx.sndNxt
	for _, skb := range tx.retransQ {
		s.stat().retransmits++
		s.transmitSkb(env, skb)
	}
}

// onDelackTimer flushes a pending delayed ACK.
func (s *Socket) onDelackTimer(env *kern.Env) {
	ctl := s.ctl()
	ctl.delackArmed = false
	env.Run(s.st.p.tcpDelackTimer, func(x *cpu.Exec) {
		x.Instr(150, 0.18, 0.015).Load(ctl.ctxAddr, 64)
	})
	ctl.slock.Lock(env)
	if !ctl.ownedByUser && s.rx().segsSinceAck > 0 {
		s.sendAck(env)
	}
	ctl.slock.Unlock(env)
}
