package netdev

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
)

// Hooks connects the driver to the protocol stack above it.
type Hooks struct {
	// RxUp delivers one received packet to the protocol layer in softirq
	// context. Required.
	RxUp func(env *kern.Env, pkt RxPacket)
	// TxDone releases a transmitted frame's cookie (the stack frees its
	// skb clone) in softirq context. Required.
	TxDone func(env *kern.Env, cookie any)
	// AllocRxBuf refills one receive-ring slot from the stack's buffer
	// pool in softirq context, returning the buffer address and a cookie.
	// Required.
	AllocRxBuf func(env *kern.Env) (mem.Addr, any)
}

// pollEntry is one (device, queue) pair awaiting softirq service.
type pollEntry struct {
	nic *NIC
	q   *rxQueue
}

// Driver is the e1000-class driver shared by all NICs: common procedure
// symbols, the NET_RX/NET_TX softirq handlers, and per-CPU poll lists
// that keep bottom halves on the processor that took the top half.
type Driver struct {
	k     *kern.Kernel
	hooks Hooks
	nics  []*NIC

	// Per-CPU lists of queues/devices with pending work, and the spare
	// list each softirq pass swaps in while it works through the old
	// one, so the lists keep their storage from pass to pass.
	rxPoll, rxSpare [][]pollEntry
	txPoll, txSpare [][]*NIC

	procNetRxAction kern.Proc
	procCleanRx     kern.Proc
	procCleanTx     kern.Proc
	procXmit        kern.Proc
	procNetifRx     kern.Proc
}

// NewDriver registers the driver's procedures and softirq handlers with
// the kernel.
func NewDriver(k *kern.Kernel, hooks Hooks) *Driver {
	if hooks.RxUp == nil || hooks.TxDone == nil || hooks.AllocRxBuf == nil {
		panic("netdev: all driver hooks are required")
	}
	d := &Driver{
		k:       k,
		hooks:   hooks,
		rxPoll:  make([][]pollEntry, len(k.CPUs)),
		rxSpare: make([][]pollEntry, len(k.CPUs)),
		txPoll:  make([][]*NIC, len(k.CPUs)),
		txSpare: make([][]*NIC, len(k.CPUs)),

		procNetRxAction: k.NewProc("net_rx_action", perf.BinDriver, 768),
		procCleanRx:     k.NewProc("e1000_clean_rx_irq", perf.BinDriver, 1536),
		procCleanTx:     k.NewProc("e1000_clean_tx_irq", perf.BinDriver, 1024),
		procXmit:        k.NewProc("e1000_xmit_frame", perf.BinDriver, 1536),
		procNetifRx:     k.NewProc("netif_rx", perf.BinDriver, 512),
	}
	k.RegisterSoftirq(kern.SoftirqNetRx, d.netRxAction)
	k.RegisterSoftirq(kern.SoftirqNetTx, d.netTxAction)
	return d
}

// AddNIC creates a NIC and registers one top half per queue (a classic
// device has exactly one queue on cfg.Vector; RSS devices register one
// vector per queue). Vectors follow the paper's Table 4 numbering
// (IRQ0x19_interrupt and friends).
func (d *Driver) AddNIC(cfg NICConfig) *NIC {
	n := newNIC(d, len(d.nics), cfg)
	d.nics = append(d.nics, n)
	for _, q := range n.queues {
		q := q
		d.k.RegisterIRQ(q.vec, &kern.IRQAction{
			Proc: q.procISR,
			Build: func(c *kern.KCPU, x *cpu.Exec) {
				// Read the interrupt cause register (uncached MMIO), ack
				// it, touch the device's irq bookkeeping.
				x.Instr(180, 0.18, 0.03).Uncached(2)
			},
			Effect: func(c *kern.KCPU) { d.irqEffect(c, n, q) },
		})
	}
	return n
}

// NICs returns the attached devices.
func (d *Driver) NICs() []*NIC { return d.nics }

// irqEffect runs when a queue's top half completes on c: the queue joins
// c's poll lists and the matching softirqs are raised locally.
func (d *Driver) irqEffect(c *kern.KCPU, n *NIC, q *rxQueue) {
	q.irqPending = false
	if n.cfg.NAPI {
		// Mask the queue: the poll owns it until the rings drain.
		q.masked = true
	}
	id := c.ID()
	if q.ring.pendingClean() > 0 {
		if !containsEntry(d.rxPoll[id], n, q) {
			d.rxPoll[id] = append(d.rxPoll[id], pollEntry{nic: n, q: q})
		}
		c.RaiseSoftirq(kern.SoftirqNetRx)
	}
	if q.index == 0 && n.txRing.pendingClean() > 0 {
		if !contains(d.txPoll[id], n) {
			d.txPoll[id] = append(d.txPoll[id], n)
		}
		c.RaiseSoftirq(kern.SoftirqNetTx)
	}
	if n.cfg.NAPI && q.ring.pendingClean() == 0 &&
		(q.index != 0 || n.txRing.pendingClean() == 0) {
		// Spurious interrupt: nothing to poll, so unmask immediately or
		// the queue would stay silent forever.
		q.masked = false
	}
}

// repoll re-enlists a NAPI queue on the processor's poll lists without a
// fresh interrupt.
func (d *Driver) repoll(c *kern.KCPU, n *NIC, q *rxQueue) {
	id := c.ID()
	if q.ring.pendingClean() > 0 {
		if !containsEntry(d.rxPoll[id], n, q) {
			d.rxPoll[id] = append(d.rxPoll[id], pollEntry{nic: n, q: q})
		}
		c.RaiseSoftirq(kern.SoftirqNetRx)
	}
	if q.index == 0 && n.txRing.pendingClean() > 0 {
		if !contains(d.txPoll[id], n) {
			d.txPoll[id] = append(d.txPoll[id], n)
		}
		c.RaiseSoftirq(kern.SoftirqNetTx)
	}
}

func contains(list []*NIC, n *NIC) bool {
	for _, x := range list {
		if x == n {
			return true
		}
	}
	return false
}

func containsEntry(list []pollEntry, n *NIC, q *rxQueue) bool {
	for _, x := range list {
		if x.nic == n && x.q == q {
			return true
		}
	}
	return false
}

// netRxAction is the NET_RX softirq: drain each polled NIC's receive
// ring, refill it, and push packets up the stack.
func (d *Driver) netRxAction(env *kern.Env) {
	id := env.CPU().ID()
	list := d.rxPoll[id]
	d.rxPoll[id], d.rxSpare[id] = d.rxSpare[id], nil
	env.Run(d.procNetRxAction, func(x *cpu.Exec) {
		x.Instr(150, 0.2, 0.02)
	})
	for _, e := range list {
		d.cleanRx(env, e.nic, e.q)
	}
	d.rxSpare[id] = list[:0]
}

func (d *Driver) cleanRx(env *kern.Env, n *NIC, q *rxQueue) {
	for {
		slot, ok := q.ring.nextClean()
		if !ok {
			break
		}
		pkt := RxPacket{Frame: slot.frame, Data: slot.buf, Cookie: slot.cookie, NIC: n.id}
		// Walk the descriptor (DMA-written, so cold) and the skb header;
		// then refill the slot from the buffer pool.
		env.Run(d.procCleanRx, func(x *cpu.Exec) {
			x.Instr(160, 0.15, 0.02).Load(slot.descAddr, descBytes).Store(slot.descAddr, 8)
		})
		buf, cookie := d.hooks.AllocRxBuf(env)
		q.ring.refill(slot.index, buf, cookie)
		env.Run(d.procNetifRx, func(x *cpu.Exec) {
			x.Instr(90, 0.18, 0.02)
		})
		d.hooks.RxUp(env, pkt)
	}
	// Ring drained: new arrivals will raise a fresh interrupt.
	n.rxDrained(env, q)
}

// netTxAction is the NET_TX softirq: reclaim completed transmit
// descriptors and hand their cookies back to the stack.
func (d *Driver) netTxAction(env *kern.Env) {
	id := env.CPU().ID()
	list := d.txPoll[id]
	d.txPoll[id], d.txSpare[id] = d.txSpare[id], nil
	for _, n := range list {
		d.cleanTx(env, n)
		n.rxDrained(env, n.queues[0])
	}
	d.txSpare[id] = list[:0]
}

func (d *Driver) cleanTx(env *kern.Env, n *NIC) {
	for {
		// Lock per descriptor, as the driver does, so a transmitter on
		// another processor is not held off for a whole clean pass.
		n.txLock.Lock(env)
		slot, ok := n.txRing.nextClean()
		if !ok {
			n.txLock.Unlock(env)
			break
		}
		env.Run(d.procCleanTx, func(x *cpu.Exec) {
			x.Instr(120, 0.15, 0.02).Load(slot.descAddr, descBytes).Store(slot.descAddr, 8)
		})
		cookie := slot.cookie
		n.txRing.release(slot.index)
		n.txLock.Unlock(env)
		d.hooks.TxDone(env, cookie)
	}
	if n.txWait != nil && n.txRing.free() > 0 {
		n.txWait.WakeAll(d.k, env)
	}
}

// Xmit queues one frame on n for transmission from env's context: the
// driver writes a descriptor, rings the doorbell (uncached MMIO) and the
// NIC serializes the frame onto the wire. It returns false if the
// transmit ring is full (the caller backs off; with the paper's ring
// sizes and window limits this indicates miscalibration, so callers may
// treat it as an error).
func (d *Driver) Xmit(env *kern.Env, n *NIC, req TxReq) bool {
	n.txLock.Lock(env)
	slot, ok := n.txRing.reserve()
	if !ok {
		n.txLock.Unlock(env)
		return false
	}
	env.Run(d.procXmit, func(x *cpu.Exec) {
		x.Instr(260, 0.15, 0.025).Store(slot.descAddr, descBytes).Uncached(1)
	})
	n.txRing.commit(slot.index, req)
	n.txLock.Unlock(env)
	n.kickTransmit()
	return true
}

// XmitBlocking queues a frame, sleeping on the device's ring to open up
// when full. Only task context may use it.
func (d *Driver) XmitBlocking(env *kern.Env, n *NIC, req TxReq) {
	for !d.Xmit(env, n, req) {
		if env.Task() == nil {
			panic(fmt.Sprintf("netdev: tx ring full in softirq on nic %d", n.id))
		}
		env.Sleep(n.txWait)
	}
}
