package netdev

import (
	"fmt"

	"repro/internal/apic"
	"repro/internal/fifo"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// descBytes is the size of one DMA descriptor.
const descBytes = 16

// NICConfig sizes one device.
type NICConfig struct {
	// Vector is the interrupt line (paper numbering: 0x19, 0x1a, …).
	Vector apic.Vector
	// LinkBps is the link speed; the paper's NICs are 1 Gb/s.
	LinkBps uint64
	// TxRing and RxRing are the descriptor ring sizes.
	TxRing, RxRing int
	// CoalesceCycles is the minimum gap between interrupts from this
	// device (interrupt throttling).
	CoalesceCycles uint64
	// WireLatencyCycles is the one-way propagation+switch latency.
	WireLatencyCycles uint64
	// NAPI enables 2.6-style interrupt mitigation: the top half masks
	// the device and the softirq polls the rings until they drain, so
	// sustained load runs nearly interrupt-free. The paper's 2.4 driver
	// interrupts per packet; this is the modern comparison point.
	NAPI bool
	// Coalesce selects the interrupt-coalescing model (coalesce.go).
	// The zero value is the legacy CoalesceCycles throttle above.
	Coalesce CoalesceConfig
	// QueueVectors enables receive-side scaling — the paper's §8 future
	// work ("adapters that ... extract flow information ... and direct
	// connections and interrupts, dynamically, to a specific
	// processor"). Each entry is one RSS queue's interrupt vector; the
	// NIC hashes the connection to a queue, and the kernel routes each
	// queue's vector to its own processor. Empty = single-queue device
	// on Vector.
	QueueVectors []apic.Vector
}

// DefaultNICConfig returns a PRO/1000-class device on the given vector.
func DefaultNICConfig(vec apic.Vector) NICConfig {
	return NICConfig{
		Vector:  vec,
		LinkBps: 1_000_000_000,
		TxRing:  256,
		RxRing:  256,
		// The PRO/1000 drivers of the paper's era defaulted RxIntDelay to
		// zero (interrupt per packet); a 1 µs window only merges true
		// back-to-back completions.
		CoalesceCycles:    2_000,
		WireLatencyCycles: 20_000,
	}
}

// WireFault perturbs frames crossing the wire. The fault layer
// (internal/fault) installs one per NIC when a schedule targets it;
// a nil hook is the clean link. Implementations must draw all
// randomness from the supplied engine RNG so faulted runs stay
// bit-reproducible, and must not schedule events or charge cycles.
type WireFault interface {
	// Drop reports whether the frame entering the wire right now is
	// lost. rx is true for frames toward the SUT.
	Drop(now sim.Time, rng *sim.RNG, rx bool) bool
	// ExtraDelay returns additional propagation delay in cycles for a
	// surviving frame; per-frame jitter here produces (bounded)
	// reordering at the receiver.
	ExtraDelay(now sim.Time, rng *sim.RNG, rx bool) uint64
}

// NIC is one simulated gigabit adapter.
type NIC struct {
	d   *Driver
	id  int
	cfg NICConfig

	procISR kern.Proc
	// regsAddr stands in for the MMIO register block; accesses to it are
	// modelled as uncached bus transactions, never cache fills.
	regsAddr mem.Addr

	txRing *txRing
	// queues holds one receive ring + interrupt state per RSS queue;
	// single-queue devices have exactly one.
	queues []*rxQueue
	// flowQueue is the RSS indirection table: connections steered to an
	// explicit queue (SteerFlow). Absent connections fall back to the
	// hash in queueFor.
	flowQueue map[int]int
	txLock    *kern.SpinLock
	txWait    *kern.WaitQueue

	peer Peer

	txBusyUntil sim.Time
	rxBusyUntil sim.Time
	txActive    bool

	// Frames serialized but whose delivery event has not yet run, per
	// direction (see WireInFlight).
	rxWireInFlight int
	txWireInFlight int

	// Fault state (internal/fault). All zero on a healthy device.
	wireFault  WireFault
	linkDown   bool
	dmaStalled bool
	// stallQ holds frames that finished wire serialization while the DMA
	// engine was stalled; they fill ring slots in arrival order when the
	// stall lifts (overflowing slots count in RxDropped as usual).
	stallQ []stalledFill

	// Stats.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	RxDropped          uint64
	// WireDrops counts frames lost on the link (injected faults,
	// link-down windows).
	WireDrops uint64
	// LinkDownDrops is the subset of WireDrops lost to link flaps.
	LinkDownDrops uint64
	// StallDeferred counts frames parked by a DMA stall.
	StallDeferred uint64
	IRQsRaised    uint64
}

type stalledFill struct {
	q *rxQueue
	f WireFrame
}

// noIRQ marks a queue that has never interrupted. Cycle 0 is a valid
// interrupt time (a frame can complete DMA on the first cycle of a
// run), so the sentinel must be out of band, not zero. sim.Time is
// unsigned; the all-ones value is unreachable as a simulated cycle.
const noIRQ = ^sim.Time(0)

// rxQueue is one RSS queue: its ring, interrupt vector and per-queue
// interrupt state.
type rxQueue struct {
	index   int
	vec     apic.Vector
	ring    *rxRing
	procISR kern.Proc

	lastIRQ    sim.Time
	irqPending bool
	// masked suppresses interrupt generation while the NAPI poll owns
	// the queue.
	masked bool

	// Coalescing state (coalesce.go): whether a deferred raise is
	// armed, a generation token so superseded deferral events die at
	// fire time, events accumulated toward the frames threshold inside
	// the open window, and the adaptive mode's current window width.
	deferArmed     bool
	deferSeq       uint64
	coalesceEvents int
	windowCycles   uint64

	// Per-queue stats.
	rxFrames uint64
	irqs     uint64
}

func newNIC(d *Driver, id int, cfg NICConfig) *NIC {
	if cfg.LinkBps == 0 || cfg.TxRing <= 0 || cfg.RxRing <= 0 {
		panic(fmt.Sprintf("netdev: bad NIC config %+v", cfg))
	}
	k := d.k
	n := &NIC{
		d:        d,
		id:       id,
		cfg:      cfg,
		regsAddr: k.Space.AllocPage(4096, fmt.Sprintf("nic%d_regs", id)),
		txLock:   k.NewSpinLock(fmt.Sprintf("nic%d_tx", id)),
		txWait:   kern.NewWaitQueue(fmt.Sprintf("nic%d_txwait", id)),
	}
	n.txRing = newTxRing(cfg.TxRing, k.Space.AllocPage(cfg.TxRing*descBytes, fmt.Sprintf("nic%d_txdesc", id)))
	vectors := cfg.QueueVectors
	if len(vectors) == 0 {
		vectors = []apic.Vector{cfg.Vector}
	}
	for qi, vec := range vectors {
		name := fmt.Sprintf("IRQ%#x_interrupt", int(vec))
		q := &rxQueue{
			index:   qi,
			vec:     vec,
			lastIRQ: noIRQ,
			procISR: k.NewProc(name, perf.BinDriver, 768),
			ring: newRxRing(cfg.RxRing,
				k.Space.AllocPage(cfg.RxRing*descBytes, fmt.Sprintf("nic%d_q%d_rxdesc", id, qi))),
		}
		if cfg.Coalesce.Mode == CoalesceAdaptive {
			q.windowCycles = n.usecsToCycles(cfg.Coalesce.MinUsecs)
		}
		n.queues = append(n.queues, q)
	}
	n.procISR = n.queues[0].procISR
	return n
}

// Queues reports the number of RSS queues (1 for a classic device).
func (n *NIC) Queues() int { return len(n.queues) }

// SteerFlow programs the RSS indirection table: frames of conn land on
// the given receive queue instead of the hash-selected one — the paper's
// §8 "direct connections and interrupts, dynamically, to a specific
// processor", flow half.
func (n *NIC) SteerFlow(conn, queue int) {
	if queue < 0 || queue >= len(n.queues) {
		panic(fmt.Sprintf("netdev: nic %d has no queue %d", n.id, queue))
	}
	if n.flowQueue == nil {
		n.flowQueue = make(map[int]int)
	}
	n.flowQueue[conn] = queue
}

// queueFor steers a connection to a queue: the indirection table when
// programmed, else a hash (Toeplitz stand-in).
func (n *NIC) queueFor(conn int) *rxQueue {
	if q, ok := n.flowQueue[conn]; ok {
		return n.queues[q]
	}
	return n.queues[conn%len(n.queues)]
}

// QueueVector reports queue qi's interrupt vector.
func (n *NIC) QueueVector(qi int) apic.Vector { return n.queues[qi].vec }

// QueueRxFrames reports frames received on queue qi.
func (n *NIC) QueueRxFrames(qi int) uint64 { return n.queues[qi].rxFrames }

// QueueIRQs reports interrupts raised by queue qi.
func (n *NIC) QueueIRQs(qi int) uint64 { return n.queues[qi].irqs }

// ID reports the device number.
func (n *NIC) ID() int { return n.id }

// Vector reports the device's interrupt line.
func (n *NIC) Vector() apic.Vector { return n.cfg.Vector }

// SetPeer attaches the far end of the link.
func (n *NIC) SetPeer(p Peer) { n.peer = p }

// SetWireFault installs (or, with nil, removes) the per-frame fault
// hook. Loss and delay configuration otherwise comes only from
// NICConfig at construction, so a device's wire behaviour is always
// visible to the result-cache fingerprint.
func (n *NIC) SetWireFault(wf WireFault) { n.wireFault = wf }

// SetLinkUp raises or drops the link carrier. While the link is down
// every frame entering the wire (both directions) is lost; frames
// already propagating were on the wire before the cut and still arrive.
// Coming back up re-kicks interrupt generation for any queue holding
// frames whose deferred raise was suppressed during the outage.
func (n *NIC) SetLinkUp(up bool) {
	wasDown := n.linkDown
	n.linkDown = !up
	if up && wasDown {
		for _, q := range n.queues {
			if !q.irqPending && q.ring.pendingClean() > 0 {
				n.maybeRaiseIRQ(q)
			}
		}
	}
}

// LinkUp reports the carrier state.
func (n *NIC) LinkUp() bool { return !n.linkDown }

// SetDMAStalled freezes (true) or resumes (false) the receive DMA
// engine. Stalled frames that have finished wire serialization queue in
// arrival order and fill ring slots when the stall lifts.
func (n *NIC) SetDMAStalled(stalled bool) {
	if n.dmaStalled == stalled {
		return
	}
	n.dmaStalled = stalled
	if !stalled {
		pend := n.stallQ
		n.stallQ = nil
		for _, s := range pend {
			n.dmaFill(s.q, s.f)
		}
	}
}

// DMAStalled reports whether the receive DMA engine is frozen.
func (n *NIC) DMAStalled() bool { return n.dmaStalled }

// SetCoalesce changes the legacy interrupt-throttle window at runtime
// (ethtool-style tuning).
func (n *NIC) SetCoalesce(cycles uint64) { n.cfg.CoalesceCycles = cycles }

// Coalesce reports the device's coalescing model.
func (n *NIC) Coalesce() CoalesceConfig { return n.cfg.Coalesce }

// PrimeRx posts initial receive buffers into the ring(s) at machine
// setup (outside measured time), striped across RSS queues. The stack
// supplies pool buffers.
func (n *NIC) PrimeRx(bufs []mem.Addr, cookies []any) {
	if len(bufs) != len(cookies) {
		panic("netdev: PrimeRx length mismatch")
	}
	for i := range bufs {
		n.queues[i%len(n.queues)].ring.post(bufs[i], cookies[i])
	}
}

// RxPosted reports how many receive buffers are currently posted across
// all queues.
func (n *NIC) RxPosted() int {
	total := 0
	for _, q := range n.queues {
		total += q.ring.posted()
	}
	return total
}

// RxResident reports every receive buffer the device currently holds:
// posted (awaiting DMA) plus filled (awaiting softirq clean), across
// all queues. Invariant checks use it for buffer conservation.
func (n *NIC) RxResident() int {
	total := 0
	for _, q := range n.queues {
		total += q.ring.posted() + q.ring.pendingClean()
	}
	return total
}

// StallQueued reports frames parked by an active DMA stall.
func (n *NIC) StallQueued() int { return len(n.stallQ) }

// TxResident reports transmit requests still inside the device (queued,
// on the wire, or awaiting clean).
func (n *NIC) TxResident() int {
	r := n.txRing
	return r.queued.Len() + r.doneStage.Len() + r.done.Len()
}

// ForEachTxCookie invokes fn with the caller-supplied cookie of every
// transmit request still resident in the device. Invariant checks use
// it to attribute in-flight buffers to their pools.
func (n *NIC) ForEachTxCookie(fn func(cookie any)) {
	for _, q := range [...]*fifo.Queue[txEntry]{&n.txRing.queued, &n.txRing.doneStage, &n.txRing.done} {
		for i := 0; i < q.Len(); i++ {
			fn(q.At(i).req.Cookie)
		}
	}
}

func (n *NIC) eng() *sim.Engine { return n.d.k.Eng }

// serialCycles converts a wire size to link occupancy in CPU cycles.
func (n *NIC) serialCycles(wireBytes int) sim.Cycles {
	bits := uint64(wireBytes) * 8
	// cycles = bits * clockHz / linkBps
	clock := n.d.k.CPUs[0].Model.Config().ClockHz
	return bits * clock / n.cfg.LinkBps
}

// kickTransmit starts the transmit engine if idle.
func (n *NIC) kickTransmit() {
	if n.txActive {
		return
	}
	n.txActive = true
	n.transmitNext()
}

func (n *NIC) transmitNext() {
	req, ok := n.txRing.popQueued()
	if !ok {
		n.txActive = false
		return
	}
	eng := n.eng()
	start := eng.Now()
	if n.txBusyUntil > start {
		start = n.txBusyUntil
	}
	done := start + sim.Time(n.serialCycles(req.Frame.WireBytes()))
	n.txBusyUntil = done
	eng.At(done, func() {
		// Transmit DMA: flush any dirty CPU copies of the payload.
		if req.Data != 0 && req.Frame.Len > 0 {
			first := mem.LineOf(req.Data)
			last := mem.LineOf(req.Data + mem.Addr(req.Frame.Len) - 1)
			for line := first; ; line += mem.LineSize {
				n.d.k.Dir.DMARead(line)
				if line == last {
					break
				}
			}
		}
		n.txRing.markDone(req)
		n.TxFrames++
		n.TxBytes += uint64(req.Frame.Len)
		n.d.k.Trace.NICDMA(eng.Now(), n.id, false, req.Frame.Len)
		if n.peer != nil {
			if n.dropOnWire(false) {
				n.WireDrops++
			} else {
				f := req.Frame
				delay := n.cfg.WireLatencyCycles
				if n.wireFault != nil {
					delay += n.wireFault.ExtraDelay(eng.Now(), eng.RNG(), false)
				}
				n.txWireInFlight++
				eng.After(delay, func() {
					n.txWireInFlight--
					n.peer.ToPeer(f)
				})
			}
		}
		n.maybeRaiseIRQ(n.queues[0])
		n.transmitNext()
	})
}

// WireInFlight reports frames serialized onto the simulated wire (in
// either direction) whose delivery event has not yet run. The quiesce
// check needs it: a go-back sender's rewound snd_nxt can make both
// endpoints look idle while kilobytes of duplicates are still queued
// against the link.
func (n *NIC) WireInFlight() int { return n.rxWireInFlight + n.txWireInFlight }

// RxPendingClean reports filled receive descriptors awaiting softirq
// service across all queues.
func (n *NIC) RxPendingClean() int {
	total := 0
	for _, q := range n.queues {
		total += q.ring.pendingClean()
	}
	return total
}

// InjectFromWire is called by the peer to send a frame toward the SUT.
// The frame serializes on the link, DMAs into a posted receive buffer
// (invalidating any CPU copies of those lines) and eventually raises the
// device interrupt.
func (n *NIC) InjectFromWire(f WireFrame) {
	eng := n.eng()
	start := eng.Now()
	if n.rxBusyUntil > start {
		start = n.rxBusyUntil
	}
	done := start + sim.Time(n.serialCycles(f.WireBytes()))
	n.rxBusyUntil = done
	if n.dropOnWire(true) {
		n.WireDrops++
		return
	}
	if n.wireFault != nil {
		done += sim.Time(n.wireFault.ExtraDelay(eng.Now(), eng.RNG(), true))
	}
	q := n.queueFor(f.Conn)
	n.rxWireInFlight++
	eng.At(done, func() {
		n.rxWireInFlight--
		n.dmaFill(q, f)
	})
}

// dropOnWire decides the fate of a frame entering the wire: link-down
// windows lose everything, then the installed fault hook. A healthy
// device makes no RNG draw, so the baseline random stream is untouched.
func (n *NIC) dropOnWire(rx bool) bool {
	if n.linkDown {
		n.LinkDownDrops++
		return true
	}
	eng := n.eng()
	return n.wireFault != nil && n.wireFault.Drop(eng.Now(), eng.RNG(), rx)
}

// dmaFill lands a received frame in a ring slot (or the stall queue
// while the DMA engine is frozen) and performs the DMA-write coherence
// traffic.
func (n *NIC) dmaFill(q *rxQueue, f WireFrame) {
	if n.dmaStalled {
		n.StallDeferred++
		n.stallQ = append(n.stallQ, stalledFill{q: q, f: f})
		return
	}
	slot, ok := q.ring.fill(f)
	if !ok {
		n.RxDropped++
		return
	}
	// Receive DMA: descriptor and payload lines now live in memory
	// only; the first CPU touch of each is necessarily a miss.
	n.d.k.Dir.DMAWrite(mem.LineOf(slot.descAddr))
	if f.Len > 0 {
		first := mem.LineOf(slot.buf)
		last := mem.LineOf(slot.buf + mem.Addr(f.Len) - 1)
		for line := first; ; line += mem.LineSize {
			n.d.k.Dir.DMAWrite(line)
			if line == last {
				break
			}
		}
	}
	n.RxFrames++
	n.RxBytes += uint64(f.Len)
	n.d.k.Trace.NICDMA(n.eng().Now(), n.id, true, f.Len)
	q.rxFrames++
	n.maybeRaiseIRQ(q)
}

// RxBusyUntil reports when the inbound link side frees up; peers use it
// to pace their sends to link rate.
func (n *NIC) RxBusyUntil() sim.Time { return n.rxBusyUntil }

// usecsToCycles converts a microsecond coalescing parameter to engine
// cycles at the machine's clock.
func (n *NIC) usecsToCycles(usecs uint64) uint64 {
	clock := n.d.k.CPUs[0].Model.Config().ClockHz
	return usecs * clock / 1_000_000
}

// maybeRaiseIRQ raises a queue's interrupt, honouring the configured
// coalescing model. One interrupt serves all of that queue's pending
// work.
func (n *NIC) maybeRaiseIRQ(q *rxQueue) {
	if q.masked {
		return
	}
	if q.irqPending {
		// More work arrived inside an open coalescing window.
		n.coalesceEvent(q)
		return
	}
	q.irqPending = true
	now := n.eng().Now()
	co := n.cfg.Coalesce
	switch co.Mode {
	case CoalesceTimer:
		n.armDeferred(q, now+sim.Time(n.usecsToCycles(co.Usecs)))
	case CoalesceFrames:
		q.coalesceEvents = 1
		if co.Frames <= 1 {
			n.raiseNow(q)
			return
		}
		n.armDeferred(q, now+sim.Time(n.usecsToCycles(co.Usecs)))
	case CoalesceAdaptive:
		q.coalesceEvents = 1
		n.armDeferred(q, now+sim.Time(q.windowCycles))
	default:
		// Legacy throttle: raise immediately unless the previous
		// interrupt was under CoalesceCycles ago.
		gap := sim.Time(n.cfg.CoalesceCycles)
		if q.lastIRQ == noIRQ || now >= q.lastIRQ+gap {
			n.raiseNow(q)
			return
		}
		n.armDeferred(q, q.lastIRQ+gap)
	}
}

// coalesceEvent accounts one more unit of work (a received frame or a
// TX completion) arriving while an interrupt is already pending. In
// frames mode enough of them closes the window early.
func (n *NIC) coalesceEvent(q *rxQueue) {
	if !q.deferArmed {
		return
	}
	switch n.cfg.Coalesce.Mode {
	case CoalesceFrames:
		q.coalesceEvents++
		if q.coalesceEvents >= n.cfg.Coalesce.Frames {
			n.raiseNow(q)
		}
	case CoalesceAdaptive:
		q.coalesceEvents++
	}
}

// armDeferred schedules the pending interrupt for a future cycle. The
// generation token kills the event if the raise happens some other way
// (frames threshold, link re-kick) before the timer expires.
func (n *NIC) armDeferred(q *rxQueue, at sim.Time) {
	eng := n.eng()
	n.d.k.Trace.NICCoalesce(eng.Now(), n.id, q.index, uint64(at-eng.Now()))
	q.deferArmed = true
	q.deferSeq++
	seq := q.deferSeq
	eng.At(at, func() { n.fireDeferred(q, seq) })
}

// fireDeferred is the deferred raise. Conditions are re-checked at fire
// time: a NAPI poll may have masked the queue in the interim (it owns
// the pending work — raising anyway would deliver a spurious interrupt),
// or the link may have dropped. In either case the pending latch is
// cleared so the next frame re-arms; rxDrained and SetLinkUp restart
// service for work already in the rings.
func (n *NIC) fireDeferred(q *rxQueue, seq uint64) {
	if seq != q.deferSeq || !q.irqPending || !q.deferArmed {
		return
	}
	if q.masked || n.linkDown {
		q.deferArmed = false
		q.irqPending = false
		q.coalesceEvents = 0
		return
	}
	if n.cfg.Coalesce.Mode == CoalesceAdaptive {
		n.adaptWindow(q)
	}
	n.raiseNow(q)
}

// adaptWindow is adaptive-rx moderation: a window that filled with a
// burst doubles (up to MaxUsecs) so the next burst coalesces harder; a
// window that closed nearly empty halves back toward MinUsecs.
func (n *NIC) adaptWindow(q *rxQueue) {
	co := n.cfg.Coalesce
	min, max := n.usecsToCycles(co.MinUsecs), n.usecsToCycles(co.MaxUsecs)
	if q.coalesceEvents >= co.Frames {
		q.windowCycles *= 2
		if q.windowCycles > max {
			q.windowCycles = max
		}
	} else if q.coalesceEvents <= 1 {
		q.windowCycles /= 2
		if q.windowCycles < min {
			q.windowCycles = min
		}
	}
}

func (n *NIC) raiseNow(q *rxQueue) {
	q.lastIRQ = n.eng().Now()
	q.deferArmed = false
	q.deferSeq++ // a superseded deferral event must not double-raise
	q.coalesceEvents = 0
	n.IRQsRaised++
	q.irqs++
	n.d.k.Trace.NICIRQ(q.lastIRQ, n.id, q.index, int(q.vec))
	n.d.k.APIC.Raise(q.vec)
}

// rxDrained is called by the softirq when the ring is empty. Under NAPI
// the poll re-enables the device interrupt here and re-arms if frames
// slipped in during the final check (the classic NAPI race close).
func (n *NIC) rxDrained(env *kern.Env, q *rxQueue) {
	if !n.cfg.NAPI {
		return
	}
	if q.ring.pendingClean() > 0 || (q.index == 0 && n.txRing.pendingClean() > 0) {
		// Work remains (either the other softirq's share, or frames that
		// arrived while polling): stay masked and stay on the poll list.
		n.d.repoll(env.CPU(), n, q)
		return
	}
	q.masked = false
}

// Masked reports whether the device's (first queue's) interrupts are
// masked (NAPI poll in progress).
func (n *NIC) Masked() bool { return n.queues[0].masked }

// SetNAPI toggles NAPI mode at runtime.
func (n *NIC) SetNAPI(on bool) { n.cfg.NAPI = on }

// --- descriptor rings ---

type txEntry struct {
	req      TxReq
	descAddr mem.Addr
}

type txSlot struct {
	index    int
	descAddr mem.Addr
}

// txRing is the transmit descriptor ring: reserve → commit → (wire) →
// done → clean/release. A request holds its reserved slot until release,
// so each stage's FIFO holds at most capacity entries. The stage FIFOs
// start empty and grow on demand: most cells keep a few frames in
// flight, never the ring's full depth.
type txRing struct {
	capacity  int
	descBase  mem.Addr
	seq       int
	inUse     int
	queued    fifo.Queue[txEntry]
	doneStage fifo.Queue[txEntry] // on the wire
	done      fifo.Queue[txEntry]
}

func newTxRing(capacity int, descBase mem.Addr) *txRing {
	return &txRing{capacity: capacity, descBase: descBase}
}

func (r *txRing) free() int { return r.capacity - r.inUse }

func (r *txRing) reserve() (txSlot, bool) {
	if r.inUse >= r.capacity {
		return txSlot{}, false
	}
	idx := r.seq % r.capacity
	r.seq++
	r.inUse++
	return txSlot{index: idx, descAddr: r.descBase + mem.Addr(idx*descBytes)}, true
}

func (r *txRing) commit(index int, req TxReq) {
	r.queued.Push(txEntry{req: req, descAddr: r.descBase + mem.Addr(index*descBytes)})
}

func (r *txRing) popQueued() (TxReq, bool) {
	e, ok := r.queued.Pop()
	if !ok {
		return TxReq{}, false
	}
	r.doneStage.Push(e)
	return e.req, true
}

// markDone moves the oldest in-flight frame to the clean list. The
// transmit engine is strictly serial, so FIFO order is exact.
func (r *txRing) markDone(TxReq) {
	e, ok := r.doneStage.Pop()
	if !ok {
		panic("netdev: tx completion with nothing on the wire")
	}
	r.done.Push(e)
}

func (r *txRing) pendingClean() int { return r.done.Len() }

type txCleanSlot struct {
	index    int
	descAddr mem.Addr
	cookie   any
}

func (r *txRing) nextClean() (txCleanSlot, bool) {
	e, ok := r.done.Pop()
	if !ok {
		return txCleanSlot{}, false
	}
	return txCleanSlot{descAddr: e.descAddr, cookie: e.req.Cookie}, true
}

func (r *txRing) release(int) { r.inUse-- }

// rxBuf is a posted receive buffer: a descriptor slot awaiting DMA.
type rxBuf struct {
	index    int
	descAddr mem.Addr
	buf      mem.Addr
	cookie   any
}

// rxSlot is a filled descriptor: the posted buffer and the frame DMA
// placed in it.
type rxSlot struct {
	rxBuf
	frame WireFrame
}

// rxRing is the receive descriptor ring: post/refill → DMA fill → clean.
// post refuses to hold more than capacity buffers across both FIFOs.
// free is sized for the ring, which PrimeRx fills; filled grows on
// demand, to the depth of the cell's receive backlog.
type rxRing struct {
	capacity int
	descBase mem.Addr
	seq      int
	free     fifo.Queue[rxBuf]
	filled   fifo.Queue[rxSlot]
}

func newRxRing(capacity int, descBase mem.Addr) *rxRing {
	return &rxRing{capacity: capacity, descBase: descBase, free: fifo.New[rxBuf](capacity)}
}

func (r *rxRing) posted() int { return r.free.Len() }

func (r *rxRing) post(buf mem.Addr, cookie any) {
	if r.free.Len()+r.filled.Len() >= r.capacity {
		panic("netdev: rx ring over-posted")
	}
	idx := r.seq % r.capacity
	r.seq++
	r.free.Push(rxBuf{
		index:    idx,
		descAddr: r.descBase + mem.Addr(idx*descBytes),
		buf:      buf,
		cookie:   cookie,
	})
}

func (r *rxRing) refill(index int, buf mem.Addr, cookie any) {
	r.post(buf, cookie)
}

func (r *rxRing) fill(f WireFrame) (rxSlot, bool) {
	b, ok := r.free.Pop()
	if !ok {
		return rxSlot{}, false
	}
	s := rxSlot{rxBuf: b, frame: f}
	r.filled.Push(s)
	return s, true
}

func (r *rxRing) pendingClean() int { return r.filled.Len() }

func (r *rxRing) nextClean() (rxSlot, bool) { return r.filled.Pop() }
