package netdev

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// fakeStack is a minimal protocol layer: a trivial buffer pool, received
// packet capture and freed-cookie capture.
type fakeStack struct {
	k        *kern.Kernel
	bufs     []mem.Addr
	received []RxPacket
	freed    []any
}

func newFakeStack(k *kern.Kernel) *fakeStack {
	fs := &fakeStack{k: k}
	for i := 0; i < 1024; i++ {
		fs.bufs = append(fs.bufs, k.Space.AllocPage(2048, "rxbuf"))
	}
	return fs
}

func (fs *fakeStack) hooks() Hooks {
	return Hooks{
		RxUp:   func(env *kern.Env, pkt RxPacket) { fs.received = append(fs.received, pkt) },
		TxDone: func(env *kern.Env, cookie any) { fs.freed = append(fs.freed, cookie) },
		AllocRxBuf: func(env *kern.Env) (mem.Addr, any) {
			b := fs.bufs[0]
			fs.bufs = fs.bufs[1:]
			return b, b
		},
	}
}

type fakePeer struct {
	got []WireFrame
}

func (p *fakePeer) ToPeer(f WireFrame) { p.got = append(p.got, f) }

type rig struct {
	eng  *sim.Engine
	k    *kern.Kernel
	d    *Driver
	n    *NIC
	fs   *fakeStack
	peer *fakePeer
	ctr  *perf.Counters
	tab  *perf.SymbolTable
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 2)
	k := kern.New(kern.Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
	})
	t.Cleanup(k.Shutdown)
	fs := newFakeStack(k)
	d := NewDriver(k, fs.hooks())
	n := d.AddNIC(DefaultNICConfig(0x19))
	peer := &fakePeer{}
	n.SetPeer(peer)

	// Prime the receive ring.
	var bufs []mem.Addr
	var cookies []any
	for i := 0; i < 64; i++ {
		b := fs.bufs[0]
		fs.bufs = fs.bufs[1:]
		bufs = append(bufs, b)
		cookies = append(cookies, b)
	}
	n.PrimeRx(bufs, cookies)
	return &rig{eng: eng, k: k, d: d, n: n, fs: fs, peer: peer, ctr: ctr, tab: tab}
}

func TestRxFrameReachesStackOnCPU0(t *testing.T) {
	r := newRig(t)
	f := WireFrame{Conn: 1, Seq: 0, Len: 1460, Flags: FlagPsh}
	r.eng.At(1000, func() { r.n.InjectFromWire(f) })
	r.eng.Run(50_000_000)
	if len(r.fs.received) != 1 {
		t.Fatalf("received %d packets, want 1", len(r.fs.received))
	}
	got := r.fs.received[0]
	if got.Frame.Conn != 1 || got.Frame.Len != 1460 {
		t.Fatalf("frame mangled: %+v", got.Frame)
	}
	if got.Data == 0 {
		t.Fatal("no DMA buffer attached")
	}
	// Default affinity mask delivers to CPU0.
	isr := r.tab.Lookup("IRQ0x19_interrupt")
	if c := r.ctr.Get(0, isr, perf.IRQsReceived); c != 1 {
		t.Fatalf("CPU0 handler irqs = %d, want 1", c)
	}
	if r.n.RxFrames != 1 || r.n.RxBytes != 1460 {
		t.Fatalf("stats: %d frames %d bytes", r.n.RxFrames, r.n.RxBytes)
	}
}

func TestRxDMAInvalidatesCPUCopies(t *testing.T) {
	r := newRig(t)
	// Pre-warm the buffer that will receive the first frame on CPU1.
	buf := r.n.queues[0].ring.free.At(0).buf
	r.k.CPUs[1].Model.Hierarchy().WarmRange(buf, 1460)
	if !r.k.Dir.HasCopy(1, mem.LineOf(buf)) {
		t.Fatal("warmup did not install copies")
	}
	r.eng.At(1000, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	r.eng.Run(50_000_000)
	if r.k.Dir.HasCopy(1, mem.LineOf(buf)) {
		t.Fatal("receive DMA left a stale CPU copy — RX payload must be uncached")
	}
}

func TestRingRefillAfterClean(t *testing.T) {
	r := newRig(t)
	posted := r.n.RxPosted()
	for i := 0; i < 10; i++ {
		d := uint64(1000 + i*50_000)
		r.eng.At(sim.Time(d), func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	}
	r.eng.Run(100_000_000)
	if len(r.fs.received) != 10 {
		t.Fatalf("received %d, want 10", len(r.fs.received))
	}
	if r.n.RxPosted() != posted {
		t.Fatalf("ring not refilled: %d posted, want %d", r.n.RxPosted(), posted)
	}
	if r.n.RxDropped != 0 {
		t.Fatalf("dropped %d frames", r.n.RxDropped)
	}
}

func TestTxSerializationAtLinkRate(t *testing.T) {
	r := newRig(t)
	payload := r.k.Space.AllocPage(2048, "txbuf")
	var sent int
	p := r.k.NewProc("sender_fn", perf.BinOther, 256)
	r.k.Spawn("sender", 0, 0, func(e *kern.Env) {
		for i := 0; i < 5; i++ {
			e.Run(p, func(x *cpu.Exec) { x.Instr(100, 0, 0) })
			ok := r.d.Xmit(e, r.n, TxReq{
				Frame:  WireFrame{Conn: 1, Seq: uint64(i * 1460), Len: 1460, Flags: FlagPsh},
				Data:   payload,
				Cookie: i,
			})
			if !ok {
				t.Error("xmit failed")
			}
			sent++
		}
	})
	r.eng.Run(500_000_000)
	if sent != 5 || len(r.peer.got) != 5 {
		t.Fatalf("sent %d, peer got %d", sent, len(r.peer.got))
	}
	// 5 × 1526-byte wire frames at 1 Gb/s on a 2 GHz clock ≈ 24.4 µs ≈
	// 122k cycles minimum between first xmit and last delivery.
	if r.n.TxBytes != 5*1460 {
		t.Fatalf("TxBytes = %d", r.n.TxBytes)
	}
	// Every clone cookie must come back through NET_TX.
	if len(r.fs.freed) != 5 {
		t.Fatalf("freed %d cookies, want 5", len(r.fs.freed))
	}
	for i, c := range r.fs.freed {
		if c.(int) != i {
			t.Fatalf("cookies out of order: %v", r.fs.freed)
		}
	}
}

func TestTxDMAFlushesDirtyPayload(t *testing.T) {
	r := newRig(t)
	payload := r.k.Space.AllocPage(2048, "txbuf")
	p := r.k.NewProc("sender_fn", perf.BinOther, 256)
	r.k.Spawn("sender", 0, 0, func(e *kern.Env) {
		// Dirty the payload from CPU0, then transmit it.
		e.Run(p, func(x *cpu.Exec) { x.Instr(100, 0, 0).Store(payload, 1460) })
		r.d.Xmit(e, r.n, TxReq{Frame: WireFrame{Conn: 1, Len: 1460}, Data: payload, Cookie: "c"})
	})
	r.eng.Run(100_000_000)
	if len(r.peer.got) != 1 {
		t.Fatal("frame not delivered")
	}
	// After transmit DMA the line must be clean everywhere.
	if r.k.Dir.DirtyElsewhere(1, mem.LineOf(payload)) {
		t.Fatal("payload line still dirty after transmit DMA")
	}
	// The default chipset model invalidates on DMA read, so the CPU copy
	// is gone; with invalidation disabled it must survive.
	if r.k.Dir.HasCopy(0, mem.LineOf(payload)) {
		t.Fatal("invalidating transmit DMA left a CPU copy")
	}
}

func TestTxDMAKeepsCopyWithoutInvalidation(t *testing.T) {
	r := newRig(t)
	r.k.Dir.DMAReadInvalidates = false
	payload := r.k.Space.AllocPage(2048, "txbuf")
	p := r.k.NewProc("sender_fn2", perf.BinOther, 256)
	r.k.Spawn("sender", 0, 0, func(e *kern.Env) {
		e.Run(p, func(x *cpu.Exec) { x.Instr(100, 0, 0).Store(payload, 1460) })
		r.d.Xmit(e, r.n, TxReq{Frame: WireFrame{Conn: 1, Len: 1460}, Data: payload, Cookie: "c"})
	})
	r.eng.Run(100_000_000)
	if !r.k.Dir.HasCopy(0, mem.LineOf(payload)) {
		t.Fatal("non-invalidating transmit DMA should keep the CPU copy")
	}
}

func TestIRQCoalescingBatchesArrivals(t *testing.T) {
	r := newRig(t)
	// Widen the throttle window beyond a full-MTU serialization time so
	// back-to-back arrivals coalesce (the default window is per-packet,
	// as the paper-era driver behaved).
	r.n.cfg.CoalesceCycles = 80_000
	// 20 frames arriving back-to-back: far fewer than 20 interrupts.
	r.eng.At(1000, func() {
		for i := 0; i < 20; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	r.eng.Run(200_000_000)
	if len(r.fs.received) != 20 {
		t.Fatalf("received %d, want 20", len(r.fs.received))
	}
	if r.n.IRQsRaised >= 20 {
		t.Fatalf("%d interrupts for 20 back-to-back frames — no coalescing", r.n.IRQsRaised)
	}
	if r.n.IRQsRaised == 0 {
		t.Fatal("no interrupts at all")
	}
}

func TestIRQAffinityMovesHandlerAndSoftirq(t *testing.T) {
	r := newRig(t)
	if err := r.k.APIC.SetAffinity(0x19, 1<<1); err != nil {
		t.Fatal(err)
	}
	r.eng.At(1000, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	r.eng.Run(50_000_000)
	if len(r.fs.received) != 1 {
		t.Fatal("frame lost")
	}
	isr := r.tab.Lookup("IRQ0x19_interrupt")
	clean := r.tab.Lookup("e1000_clean_rx_irq")
	if got := r.ctr.Get(1, isr, perf.IRQsReceived); got != 1 {
		t.Fatalf("CPU1 top halves = %d, want 1", got)
	}
	// The bottom half must have followed the top half to CPU1.
	if got := r.ctr.Get(1, clean, perf.Instructions); got == 0 {
		t.Fatal("rx clean did not run on CPU1")
	}
	if got := r.ctr.Get(0, clean, perf.Instructions); got != 0 {
		t.Fatalf("rx clean leaked onto CPU0 (%d instructions)", got)
	}
}

func TestRxRingOverflowDropsFrames(t *testing.T) {
	r := newRig(t)
	// Only 64 buffers primed; injecting 80 back-to-back with interrupts
	// suppressed long enough means the tail must drop. Stall CPU0 with a
	// long-running task so cleaning cannot keep up.
	p := r.k.NewProc("hog", perf.BinOther, 256)
	r.k.Spawn("hog", 0, 1, func(e *kern.Env) {
		e.Run(p, func(x *cpu.Exec) { x.Instr(100_000_000, 0, 0) })
	})
	r.eng.At(1000, func() {
		for i := 0; i < 80; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	r.eng.Run(1_000_000_000)
	if r.n.RxDropped == 0 {
		t.Fatal("expected drops with overcommitted ring")
	}
	if len(r.fs.received)+int(r.n.RxDropped) != 80 {
		t.Fatalf("received %d + dropped %d != 80", len(r.fs.received), r.n.RxDropped)
	}
}

func TestWireBytesIncludesHeaders(t *testing.T) {
	f := WireFrame{Len: 1460}
	if f.WireBytes() != 1460+66 {
		t.Fatalf("WireBytes = %d", f.WireBytes())
	}
	ack := WireFrame{Len: 0, Flags: FlagAck}
	if ack.WireBytes() != 66 {
		t.Fatalf("pure ACK WireBytes = %d", ack.WireBytes())
	}
}

// Link serialization must be cycle-exact: a 1526-byte wire frame at
// 1 Gb/s on a 2 GHz clock occupies 1526*8*2 = 24416 cycles, and
// back-to-back frames serialize strictly end-to-end.
func TestSerializationTimingExact(t *testing.T) {
	r := newRig(t)
	var arrivals []sim.Time
	hook := func() { arrivals = append(arrivals, r.eng.Now()) }
	// Inject two frames at t=1000; they must complete at
	// 1000+24416 and 1000+2*24416.
	r.eng.At(1000, func() {
		r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
	})
	r.eng.At(1000+24416, hook)
	r.eng.At(1000+2*24416, hook)
	r.eng.Run(100_000_000)
	if r.n.RxFrames != 2 {
		t.Fatalf("frames = %d", r.n.RxFrames)
	}
	if got := r.n.RxBusyUntil(); got != 1000+2*24416 {
		t.Fatalf("rx link busy until %d, want %d", got, 1000+2*24416)
	}
}

// XmitBlocking parks a task until the ring opens up.
func TestXmitBlockingSleepsUntilRingSpace(t *testing.T) {
	r := newRig(t)
	// Tiny ring to force blocking quickly.
	small := DefaultNICConfig(0x20)
	small.TxRing = 4
	n2 := r.d.AddNIC(small)
	n2.SetPeer(&fakePeer{})
	payload := r.k.Space.AllocPage(2048, "buf")
	sent := 0
	p := r.k.NewProc("blocker", perf.BinOther, 256)
	r.k.Spawn("b", 0, 0, func(e *kern.Env) {
		for i := 0; i < 12; i++ {
			e.Run(p, func(x *cpu.Exec) { x.Instr(10, 0, 0) })
			r.d.XmitBlocking(e, n2, TxReq{
				Frame:  WireFrame{Conn: 9, Seq: uint64(i), Len: 1460},
				Data:   payload,
				Cookie: i,
			})
			sent++
		}
	})
	r.eng.Run(2_000_000_000)
	if sent != 12 {
		t.Fatalf("sent %d frames through a 4-slot ring, want 12", sent)
	}
	if n2.TxFrames != 12 {
		t.Fatalf("nic transmitted %d", n2.TxFrames)
	}
}

// dropAll is a wire fault that loses every frame in both directions.
type dropAll struct{}

func (dropAll) Drop(sim.Time, *sim.RNG, bool) bool         { return true }
func (dropAll) ExtraDelay(sim.Time, *sim.RNG, bool) uint64 { return 0 }

// Wire loss: dropped frames are counted and never reach the stack or
// the peer.
func TestWireLossCountsAndDrops(t *testing.T) {
	r := newRig(t)
	r.n.SetWireFault(dropAll{})
	r.eng.At(1000, func() {
		for i := 0; i < 5; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	r.eng.Run(50_000_000)
	if len(r.fs.received) != 0 {
		t.Fatalf("stack received %d frames across a fully lossy link", len(r.fs.received))
	}
	if r.n.WireDrops != 5 {
		t.Fatalf("WireDrops = %d, want 5", r.n.WireDrops)
	}
	// Transmit direction too.
	payload := r.k.Space.AllocPage(2048, "txbuf")
	p := r.k.NewProc("s", perf.BinOther, 256)
	r.k.Spawn("s", 0, 0, func(e *kern.Env) {
		e.Run(p, func(x *cpu.Exec) { x.Instr(10, 0, 0) })
		r.d.Xmit(e, r.n, TxReq{Frame: WireFrame{Conn: 1, Len: 1460}, Data: payload, Cookie: "c"})
	})
	r.eng.Run(r.eng.Now() + 50_000_000)
	if len(r.peer.got) != 0 {
		t.Fatalf("peer got %d frames across a fully lossy link", len(r.peer.got))
	}
	// The clone must still be reclaimed (TX completion is local).
	if len(r.fs.freed) != 1 {
		t.Fatalf("tx cookie not freed under loss: %d", len(r.fs.freed))
	}
}

// NAPI: everything is delivered and the device is never left masked.
// (Interrupt mitigation only shows under processing pressure; the
// machine-level comparison lives in internal/core.)
func TestNAPIDeliversAndUnmasks(t *testing.T) {
	r := newRig(t)
	r.n.SetNAPI(true)
	for i := 0; i < 60; i++ {
		d := uint64(1000 + i*30_000)
		r.eng.At(sim.Time(d), func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	}
	r.eng.Run(200_000_000)
	if r.n.Masked() {
		t.Fatal("device left masked after drain")
	}
	if len(r.fs.received) != 60 {
		t.Fatalf("delivered %d frames, want 60", len(r.fs.received))
	}
}

// NAPI never deadlocks on a spurious interrupt (no pending work).
func TestNAPISpuriousIRQUnmasks(t *testing.T) {
	r := newRig(t)
	r.n.SetNAPI(true)
	r.eng.At(1000, func() { r.k.APIC.Raise(0x19) }) // nothing pending
	r.eng.At(5_000_000, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	r.eng.Run(100_000_000)
	if len(r.fs.received) != 1 {
		t.Fatal("frame after spurious irq never delivered (mask stuck)")
	}
}
