package netdev

import (
	"testing"

	"repro/internal/mem"
)

// TestTxRingFIFOsWrap cycles many more requests than the ring holds
// through reserve → commit → wire → done → clean, at varying depths, and
// checks every stage hands them on in commit order without its FIFO
// outgrowing the ring.
func TestTxRingFIFOsWrap(t *testing.T) {
	const capacity = 4
	r := newTxRing(capacity, 0x10000)
	next, cleaned := 0, 0
	for round := 0; round < 6*capacity; round++ {
		depth := round%capacity + 1
		for r.free() > 0 && next-cleaned < depth {
			slot, ok := r.reserve()
			if !ok {
				t.Fatal("reserve failed with free slots")
			}
			r.commit(slot.index, TxReq{Cookie: next})
			next++
		}
		for {
			req, ok := r.popQueued()
			if !ok {
				break
			}
			r.markDone(req)
		}
		if got, want := r.pendingClean(), next-cleaned; got != want {
			t.Fatalf("round %d: %d awaiting clean, want %d", round, got, want)
		}
		for {
			s, ok := r.nextClean()
			if !ok {
				break
			}
			if s.cookie != cleaned {
				t.Fatalf("round %d: cleaned request %v, want %d", round, s.cookie, cleaned)
			}
			r.release(0)
			cleaned++
		}
	}
	if next <= 2*capacity || cleaned != next {
		t.Fatalf("%d committed, %d cleaned: the ring did not wrap", next, cleaned)
	}
	for name, q := range map[string]int{"queued": r.queued.Cap(), "doneStage": r.doneStage.Cap(), "done": r.done.Cap()} {
		if q != capacity {
			t.Errorf("%s FIFO capacity %d, want the ring's %d", name, q, capacity)
		}
	}
}

// TestRxRingFIFOsWrap posts, fills and cleans many more buffers than the
// ring holds and checks they come back in post order without either
// FIFO outgrowing the ring.
func TestRxRingFIFOsWrap(t *testing.T) {
	const capacity = 4
	r := newRxRing(capacity, 0x20000)
	posted, cleaned := 0, 0
	for round := 0; round < 6*capacity; round++ {
		for r.posted()+r.pendingClean() < capacity {
			r.post(mem.Addr(0x100000+posted*2048), posted)
			posted++
		}
		for i := 0; i <= round%capacity; i++ {
			if _, ok := r.fill(WireFrame{Conn: i}); !ok {
				t.Fatalf("round %d: fill found no posted buffer", round)
			}
		}
		for {
			s, ok := r.nextClean()
			if !ok {
				break
			}
			if s.cookie != cleaned || s.buf != mem.Addr(0x100000+cleaned*2048) {
				t.Fatalf("round %d: cleaned buffer %v at %#x, want %d", round, s.cookie, s.buf, cleaned)
			}
			cleaned++
		}
	}
	if cleaned <= 2*capacity {
		t.Fatalf("only %d buffers cleaned: the ring did not wrap", cleaned)
	}
	if r.free.Cap() != capacity || r.filled.Cap() != capacity {
		t.Fatalf("FIFO capacities %d/%d, want the ring's %d", r.free.Cap(), r.filled.Cap(), capacity)
	}
}
