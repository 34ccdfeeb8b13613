package tcp

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/netdev"
	"repro/internal/perf"
	"repro/internal/sim"
)

type rig struct {
	eng *sim.Engine
	k   *kern.Kernel
	st  *Stack
	nic *netdev.NIC
	s   *Socket
	c   *Client
	tab *perf.SymbolTable
	ctr *perf.Counters
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine(7)
	tab := perf.NewSymbolTable()
	ctr := perf.NewCounters(tab, 2)
	k := kern.New(kern.Config{
		Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
		NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
	})
	t.Cleanup(k.Shutdown)
	st := New(k, cfg)
	nic := st.AddNICWithConfig(netdev.DefaultNICConfig(0x19))
	s, c := st.NewConn(1, nic)
	k.StartTicks()
	return &rig{eng: eng, k: k, st: st, nic: nic, s: s, c: c, tab: tab, ctr: ctr}
}

// bernoulliLoss is a wire fault that loses each frame, in either
// direction, with the given probability drawn from the engine's random
// stream.
type bernoulliLoss float64

func (l bernoulliLoss) Drop(_ sim.Time, rng *sim.RNG, _ bool) bool {
	return rng.Bernoulli(float64(l))
}

func (bernoulliLoss) ExtraDelay(sim.Time, *sim.RNG, bool) uint64 { return 0 }

// newLossyRig is newRig over a link that loses each frame with
// probability loss.
func newLossyRig(t *testing.T, cfg Config, loss float64) *rig {
	r := newRig(t, cfg)
	r.nic.SetWireFault(bernoulliLoss(loss))
	return r
}

func TestTransmitDeliversInOrder(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	const writes, size = 8, 16 << 10
	done := false
	r.k.Spawn("ttcp_tx", 0, 0, func(e *kern.Env) {
		for i := 0; i < writes; i++ {
			r.s.Write(e, userBuf, size)
		}
		done = true
	})
	r.eng.Run(4_000_000_000)
	if !done {
		t.Fatal("writer did not finish")
	}
	// Writer returns once data is queued; drain the wire.
	r.eng.Run(r.eng.Now() + 100_000_000)
	if got := r.c.BytesReceived; got != writes*size {
		t.Fatalf("client received %d bytes, want %d", got, writes*size)
	}
	if r.nic.RxDropped != 0 {
		t.Fatalf("dropped %d frames", r.nic.RxDropped)
	}
	if r.s.InFlight() != 0 {
		t.Fatalf("still %d bytes in flight after drain", r.s.InFlight())
	}
}

func TestReceiveDeliversToReader(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	const reads, size = 16, 8 << 10
	var got int
	r.k.Spawn("ttcp_rx", 0, 0, func(e *kern.Env) {
		for i := 0; i < reads; i++ {
			r.s.Read(e, userBuf, size)
			got += size
		}
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(4_000_000_000)
	if got != reads*size {
		t.Fatalf("read %d bytes, want %d", got, reads*size)
	}
	if r.s.AppBytesIn() != reads*size {
		t.Fatalf("socket counted %d bytes", r.s.AppBytesIn())
	}
}

func TestClientRespectsAdvertisedWindow(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg)
	// No reader: the client must stall once the SUT's receive buffer
	// fills (win <= RcvBuf means in-flight can never exceed it).
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(2_000_000_000)
	if r.c.InFlight() > cfg.RcvBuf {
		t.Fatalf("client has %d in flight, window is %d", r.c.InFlight(), cfg.RcvBuf)
	}
	if r.s.RcvQueued() > cfg.RcvBuf {
		t.Fatalf("receive queue %d exceeds buffer %d", r.s.RcvQueued(), cfg.RcvBuf)
	}
	if r.c.BytesSent == 0 {
		t.Fatal("client never sent (window machinery broken)")
	}
	if r.nic.RxDropped != 0 {
		t.Fatalf("flow control failed: %d drops", r.nic.RxDropped)
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(4096, "userbuf")
	const writes = 200
	r.k.Spawn("ttcp_small", 0, 0, func(e *kern.Env) {
		for i := 0; i < writes; i++ {
			r.s.Write(e, userBuf, 128)
		}
	})
	r.eng.Run(4_000_000_000)
	r.eng.Run(r.eng.Now() + 200_000_000)
	if got := r.c.BytesReceived; got != writes*128 {
		t.Fatalf("client received %d, want %d", got, writes*128)
	}
	if r.s.SegsOut() >= writes {
		t.Fatalf("%d segments for %d writes — Nagle not coalescing", r.s.SegsOut(), writes)
	}
}

func TestPoolBalancedAfterDrain(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	freeSKB0 := r.st.Pool.FreeSKBCount()
	freeClone0 := r.st.Pool.FreeCloneCount()
	r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 4; i++ {
			r.s.Write(e, userBuf, 32<<10)
		}
	})
	r.eng.Run(4_000_000_000)
	r.eng.Run(r.eng.Now() + 500_000_000)
	if err := r.st.Pool.check(); err != nil {
		t.Fatal(err)
	}
	if got := r.st.Pool.FreeSKBCount(); got != freeSKB0 {
		t.Fatalf("skb leak: %d free, started with %d", got, freeSKB0)
	}
	if got := r.st.Pool.FreeCloneCount(); got != freeClone0 {
		t.Fatalf("clone leak: %d free, started with %d", got, freeClone0)
	}
}

func TestBacklogDefersWhileUserOwnsSocket(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	var total int
	r.k.Spawn("rx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 30; i++ {
			r.s.Read(e, userBuf, 16<<10)
			total += 16 << 10
		}
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(8_000_000_000)
	if total != 30*(16<<10) {
		t.Fatalf("read %d", total)
	}
	if r.s.BacklogDeferrals() == 0 {
		t.Fatal("no packets ever hit the socket backlog — lock_sock window never overlapped softirq")
	}
}

func TestRxCopyIsUncachedTxCopyIsNot(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	r.k.Spawn("rx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 8; i++ {
			r.s.Read(e, userBuf, 16<<10)
		}
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(8_000_000_000)

	rxCopy := r.tab.Lookup("csum_and_copy_to_user")
	instr := r.ctr.SymbolTotal(rxCopy, perf.Instructions)
	misses := r.ctr.SymbolTotal(rxCopy, perf.LLCMisses)
	if instr == 0 {
		t.Fatal("rx copy never ran")
	}
	// DMA'd payload: essentially every payload line must miss. 128 KiB
	// is 2048 lines; allow headroom for alignment.
	if misses < 1500 {
		t.Fatalf("rx copy took only %d LLC misses — DMA invalidation broken", misses)
	}
	// CPI of the rep-mov copy should be enormous (paper: 66).
	cyc := r.ctr.SymbolTotal(rxCopy, perf.Cycles)
	if cpi := float64(cyc) / float64(instr); cpi < 10 {
		t.Fatalf("rx copy CPI %.1f, want >> base (rep-mov semantics)", cpi)
	}
}

func TestRxIntCopyAblationLowersCPI(t *testing.T) {
	run := func(intCopy bool) (cpi float64) {
		cfg := DefaultConfig()
		cfg.RxIntCopy = intCopy
		r := newRig(t, cfg)
		userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
		r.k.Spawn("rx", 0, 0, func(e *kern.Env) {
			for i := 0; i < 8; i++ {
				r.s.Read(e, userBuf, 16<<10)
			}
			r.c.StopSource()
		})
		r.eng.At(1000, func() { r.c.StartSource() })
		r.eng.Run(8_000_000_000)
		name := "csum_and_copy_to_user"
		if intCopy {
			name = "copy_to_user_int"
		}
		sym := r.tab.Lookup(name)
		return float64(r.ctr.SymbolTotal(sym, perf.Cycles)) /
			float64(r.ctr.SymbolTotal(sym, perf.Instructions))
	}
	old := run(false)
	niu := run(true)
	if niu >= old {
		t.Fatalf("integer copy CPI %.1f not below rep-mov CPI %.1f", niu, old)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() (uint64, uint64) {
		eng := sim.NewEngine(21)
		tab := perf.NewSymbolTable()
		ctr := perf.NewCounters(tab, 2)
		k := kern.New(kern.Config{
			Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
			NumCPUs: 2, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
		})
		defer k.Shutdown()
		st := New(k, DefaultConfig())
		nic := st.AddNIC(0x19)
		s, _ := st.NewConn(1, nic)
		k.StartTicks()
		userBuf := k.Space.AllocPage(64<<10, "userbuf")
		k.Spawn("tx", 0, 0, func(e *kern.Env) {
			for i := 0; i < 6; i++ {
				s.Write(e, userBuf, 16<<10)
			}
		})
		end := eng.Run(3_000_000_000)
		return uint64(end), ctr.Total(perf.Cycles)
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("runs diverged: (%d,%d) vs (%d,%d)", a1, a2, b1, b2)
	}
}

func TestTimersArmedAndDisarmed(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
		r.s.Write(e, userBuf, 16<<10)
	})
	r.eng.Run(2_000_000_000)
	r.eng.Run(r.eng.Now() + 500_000_000)
	if r.s.InFlight() != 0 {
		t.Fatal("data not fully acknowledged")
	}
	// All data ACKed: the retransmit timer must be disarmed.
	if r.s.RetransTimerActive() {
		t.Fatal("retransmit timer still armed after full ACK")
	}
	// mod_timer cost must have been charged in the Timers bin.
	if got := r.ctr.BinTotal(perf.BinTimers, perf.Cycles); got == 0 {
		t.Fatal("no Timers-bin cycles recorded")
	}
}

func TestGettimeofdayChargedOnRxPath(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	r.k.Spawn("rx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 4; i++ {
			r.s.Read(e, userBuf, 16<<10)
		}
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(8_000_000_000)
	sym := r.tab.Lookup("do_gettimeofday")
	if got := r.ctr.SymbolTotal(sym, perf.Instructions); got == 0 {
		t.Fatal("do_gettimeofday never charged on receive path")
	}
}

func TestBidirectionalEcho(t *testing.T) {
	// Writer and reader on the same socket: SUT transmits while the
	// client echoes source data back — exercises piggybacked ACKs.
	r := newRig(t, DefaultConfig())
	txBuf := r.k.Space.AllocPage(64<<10, "txbuf")
	rxBuf := r.k.Space.AllocPage(64<<10, "rxbuf")
	var wrote, read bool
	r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 4; i++ {
			r.s.Write(e, txBuf, 8<<10)
		}
		wrote = true
	})
	r.k.Spawn("rx", 1, 0, func(e *kern.Env) {
		for i := 0; i < 4; i++ {
			r.s.Read(e, rxBuf, 8<<10)
		}
		read = true
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(8_000_000_000)
	if !wrote || !read {
		t.Fatalf("bidirectional stall: wrote=%v read=%v", wrote, read)
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{MSS: 0, SndBuf: 1, RcvBuf: 1, PoolSKBs: 64, PoolHeaders: 64},
		{MSS: 1460, SndBuf: 0, RcvBuf: 1, PoolSKBs: 64, PoolHeaders: 64},
		{MSS: 4096, SndBuf: 65536, RcvBuf: 65536, PoolSKBs: 64, PoolHeaders: 64}, // MSS > skb buffer
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v accepted", bad)
				}
			}()
			eng := sim.NewEngine(1)
			tab := perf.NewSymbolTable()
			ctr := perf.NewCounters(tab, 1)
			k := kern.New(kern.Config{
				Engine: eng, Space: mem.NewSpace(), Table: tab, Ctr: ctr,
				NumCPUs: 1, CPU: cpu.DefaultConfig(), Tune: kern.DefaultTuning(),
			})
			defer k.Shutdown()
			New(k, bad)
		}()
	}
}

func TestDuplicateConnPanics(t *testing.T) {
	r := newRig(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("duplicate connection id accepted")
		}
	}()
	r.st.NewConn(1, r.nic) // conn 1 exists from newRig
}
