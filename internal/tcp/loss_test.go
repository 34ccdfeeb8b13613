package tcp

import (
	"testing"

	"repro/internal/kern"
)

// A transfer over a lossy link must still deliver every byte, exactly
// once, in order — via duplicate ACKs, fast retransmit and the
// retransmission timer.
func TestLossyTransmitRecoversExactly(t *testing.T) {
	r := newLossyRig(t, DefaultConfig(), 0.02)
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	const total = 40 * 16 << 10
	done := false
	r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 40; i++ {
			r.s.Write(e, userBuf, 16<<10)
		}
		done = true
	})
	r.eng.Run(30_000_000_000) // loss recovery includes 200 ms RTOs
	r.eng.Run(r.eng.Now() + 2_000_000_000)
	if !done {
		t.Fatalf("writer stalled: %d bytes delivered of %d, %d wire drops, %d rexmits",
			r.c.BytesReceived, total, r.nic.WireDrops, r.s.Retransmits())
	}
	if r.c.BytesReceived != total {
		t.Fatalf("client received %d bytes, want exactly %d", r.c.BytesReceived, total)
	}
	if r.nic.WireDrops == 0 {
		t.Fatal("loss rate had no effect")
	}
	if r.s.Retransmits() == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	if err := r.st.Pool.check(); err != nil {
		t.Fatal(err)
	}
}

// The receive direction recovers too: the client source goes back to
// snd_una on duplicate ACKs or its watchdog.
func TestLossyReceiveRecoversExactly(t *testing.T) {
	r := newLossyRig(t, DefaultConfig(), 0.02)
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	const reads, size = 30, 8 << 10
	got := 0
	r.k.Spawn("rx", 0, 0, func(e *kern.Env) {
		for i := 0; i < reads; i++ {
			r.s.Read(e, userBuf, size)
			got += size
		}
		r.c.StopSource()
	})
	r.eng.At(1000, func() { r.c.StartSource() })
	r.eng.Run(30_000_000_000)
	if got != reads*size {
		t.Fatalf("read %d bytes of %d (drops=%d, client rexmits=%d, sut ooo=%d)",
			got, reads*size, r.nic.WireDrops, r.c.Retransmits, r.s.OutOfOrderDrops())
	}
	if r.s.AppBytesIn() != uint64(reads*size) {
		t.Fatalf("socket delivered %d", r.s.AppBytesIn())
	}
	if r.nic.WireDrops == 0 {
		t.Fatal("loss rate had no effect")
	}
}

// Loss costs throughput: a lossy link must move fewer bytes in the same
// window than a clean one.
func TestLossReducesGoodput(t *testing.T) {
	run := func(loss float64) uint64 {
		r := newLossyRig(t, DefaultConfig(), loss)
		userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
		r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
			for {
				r.s.Write(e, userBuf, 16<<10)
			}
		})
		r.eng.Run(2_000_000_000)
		return r.c.BytesReceived
	}
	clean := run(0)
	lossy := run(0.05)
	if lossy >= clean {
		t.Fatalf("5%% loss did not reduce goodput: %d vs %d", lossy, clean)
	}
}

// Zero-loss behaviour is untouched: no retransmissions, no out-of-order
// drops on a clean link.
func TestNoSpuriousRetransmitsOnCleanLink(t *testing.T) {
	r := newRig(t, DefaultConfig())
	userBuf := r.k.Space.AllocPage(64<<10, "userbuf")
	r.k.Spawn("tx", 0, 0, func(e *kern.Env) {
		for i := 0; i < 20; i++ {
			r.s.Write(e, userBuf, 32<<10)
		}
	})
	r.eng.Run(4_000_000_000)
	if r.s.Retransmits() != 0 {
		t.Fatalf("%d spurious retransmissions on a clean link", r.s.Retransmits())
	}
	if r.c.OutOfOrder != 0 {
		t.Fatalf("%d out-of-order frames on a clean link", r.c.OutOfOrder)
	}
}
