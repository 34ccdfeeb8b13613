package netdev

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/perf"
	"repro/internal/sim"
)

// loopBuf is a receive buffer of loopRig's pool; its pointer is the
// buffer's cookie, so handing it around allocates nothing.
type loopBuf struct{ addr mem.Addr }

// loopRig is a device whose peer echoes every frame back into it, and
// whose stack recycles receive buffers: each transmitted frame
// serializes, completes, crosses the wire, returns, is DMA-filled and
// cleaned, with nothing growing from round to round.
type loopRig struct {
	eng  *sim.Engine
	n    *NIC
	free []*loopBuf
	data mem.Addr
	rx   int
	tx   int
}

func (l *loopRig) ToPeer(f WireFrame) { l.n.InjectFromWire(f) }

func newLoopRig(t *testing.T) *loopRig {
	t.Helper()
	eng := sim.NewEngine(1)
	tab := perf.NewSymbolTable()
	k := kern.New(kern.Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: perf.NewCounters(tab, 2),
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
	})
	t.Cleanup(k.Shutdown)
	l := &loopRig{eng: eng, data: k.Space.AllocPage(4096, "txdata")}
	d := NewDriver(k, Hooks{
		RxUp: func(env *kern.Env, pkt RxPacket) {
			l.rx++
			l.free = append(l.free, pkt.Cookie.(*loopBuf))
		},
		TxDone: func(env *kern.Env, cookie any) { l.tx++ },
		AllocRxBuf: func(env *kern.Env) (mem.Addr, any) {
			b := l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			return b.addr, b
		},
	})
	l.n = d.AddNIC(DefaultNICConfig(0x19))
	l.n.SetPeer(l)
	var bufs []mem.Addr
	var cookies []any
	for i := 0; i < 64; i++ {
		b := &loopBuf{addr: k.Space.AllocPage(2048, "rxbuf")}
		bufs, cookies = append(bufs, b.addr), append(cookies, b)
	}
	for i := 0; i < 8; i++ {
		l.free = append(l.free, &loopBuf{addr: k.Space.AllocPage(2048, "rxbuf")})
	}
	l.n.PrimeRx(bufs, cookies)
	return l
}

// round transmits two frames from engine context, as Xmit's commit
// would, and runs until both have come back and been cleaned.
func (l *loopRig) round() {
	for i := 0; i < 2; i++ {
		slot, ok := l.n.txRing.reserve()
		if !ok {
			panic("tx ring full")
		}
		l.n.txRing.commit(slot.index, TxReq{Frame: WireFrame{Conn: 1, Len: 1460, Flags: FlagPsh}, Data: l.data})
	}
	l.n.kickTransmit()
	l.eng.Run(l.eng.Now() + 1_000_000)
}

// TestWireRoundTripAllocatesNothing pins the per-packet device path at
// steady state at zero heap allocations: the TX completion, the wire
// delivery to the peer, the peer's frame crossing back, its receive DMA,
// and the interrupts and softirq passes that clean both rings. The
// completion is bound once per NIC, each frame on the wire rides a
// reused slot, and the poll lists keep their storage.
func TestWireRoundTripAllocatesNothing(t *testing.T) {
	l := newLoopRig(t)
	for i := 0; i < 4; i++ {
		l.round() // warm: slots, ring FIFOs and poll lists reach their size
	}
	rx, tx := l.rx, l.tx
	if allocs := testing.AllocsPerRun(200, l.round); allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
	if l.rx-rx != 2*201 || l.tx-tx != 2*201 {
		t.Fatalf("%d frames received and %d transmit completions cleaned in 201 rounds, want %d each",
			l.rx-rx, l.tx-tx, 2*201)
	}
}
