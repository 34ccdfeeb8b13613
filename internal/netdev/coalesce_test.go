package netdev

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestParseCoalesceSpecs(t *testing.T) {
	nilCfg, err := ParseCoalesce("")
	if err != nil || nilCfg != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", nilCfg, err)
	}
	good := map[string]CoalesceConfig{
		"legacy":                           {Mode: CoalesceLegacy},
		"timer":                            {Mode: CoalesceTimer, Usecs: 50},
		"timer,usecs=100":                  {Mode: CoalesceTimer, Usecs: 100},
		"frames,frames=16":                 {Mode: CoalesceFrames, Usecs: 200, Frames: 16},
		"frames,usecs=80,frames=4":         {Mode: CoalesceFrames, Usecs: 80, Frames: 4},
		"adaptive":                         {Mode: CoalesceAdaptive, MinUsecs: 5, MaxUsecs: 250, Frames: 8},
		"adaptive,min=20,max=400,frames=4": {Mode: CoalesceAdaptive, MinUsecs: 20, MaxUsecs: 400, Frames: 4},
		// A parameter the mode does not read is reset, so an inert
		// spelling parses to its canonical config.
		"legacy,usecs=5":         {Mode: CoalesceLegacy},
		"timer,usecs=100,min=3":  {Mode: CoalesceTimer, Usecs: 100},
		"frames,frames=16,max=9": {Mode: CoalesceFrames, Usecs: 200, Frames: 16},
		"adaptive,usecs=7":       {Mode: CoalesceAdaptive, MinUsecs: 5, MaxUsecs: 250, Frames: 8},
	}
	for spec, want := range good {
		got, err := ParseCoalesce(spec)
		if err != nil {
			t.Errorf("ParseCoalesce(%q): %v", spec, err)
			continue
		}
		if *got != want {
			t.Errorf("ParseCoalesce(%q) = %+v, want %+v", spec, *got, want)
		}
	}
	bad := []string{
		"warp",                 // unknown mode
		"timer,window=5",       // unknown key
		"timer,usecs=fast",     // non-numeric value
		"timer,usecs",          // not key=value
		"adaptive,min=9,max=3", // inverted bounds
	}
	for _, spec := range bad {
		if _, err := ParseCoalesce(spec); err == nil {
			t.Errorf("ParseCoalesce(%q) accepted an invalid spec", spec)
		}
	}
}

func TestCoalesceConfigString(t *testing.T) {
	c, err := ParseCoalesce("adaptive,min=20,max=400,frames=4")
	if err != nil {
		t.Fatal(err)
	}
	s := c.String()
	for _, want := range []string{"adaptive", "min=20", "max=400", "frames=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// newCoalesceRig is newRig with a coalescing model installed.
func newCoalesceRig(t *testing.T, spec string) *rig {
	t.Helper()
	co, err := ParseCoalesce(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t)
	r.n.cfg.Coalesce = *co
	if co.Mode == CoalesceAdaptive {
		for _, q := range r.n.queues {
			q.windowCycles = r.n.usecsToCycles(co.MinUsecs)
		}
	}
	return r
}

// Timer mode: one absolute window per idle period — a back-to-back
// burst that the legacy per-frame throttle would split across several
// interrupts is served by exactly one.
func TestCoalesceTimerBatchesBurstIntoOneIRQ(t *testing.T) {
	r := newCoalesceRig(t, "timer,usecs=100")
	r.eng.At(1000, func() {
		for i := 0; i < 5; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	r.eng.Run(3_000_000)
	if len(r.fs.received) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(r.fs.received))
	}
	if r.n.IRQsRaised != 1 {
		t.Fatalf("timer mode raised %d interrupts for one burst, want 1", r.n.IRQsRaised)
	}
}

// Frames mode: the count threshold closes the window early, so the
// burst is interrupt-served long before the (deliberately huge) timer
// would expire.
func TestCoalesceFramesThresholdFiresEarly(t *testing.T) {
	r := newCoalesceRig(t, "frames,frames=3,usecs=5000") // 10 ms timer at 2 GHz
	r.eng.At(1000, func() {
		for i := 0; i < 3; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	// Run far less than the timer window: only the frame threshold can
	// have fired the interrupt.
	r.eng.Run(1_000_000)
	if len(r.fs.received) != 3 {
		t.Fatalf("delivered %d frames inside the timer window, want 3 (threshold fire)", len(r.fs.received))
	}
	if r.n.IRQsRaised != 1 {
		t.Fatalf("IRQs = %d, want 1", r.n.IRQsRaised)
	}
}

// Adaptive mode: a window that fills with a burst widens; idle windows
// narrow back toward the floor.
func TestCoalesceAdaptiveWidensUnderBurstNarrowsWhenIdle(t *testing.T) {
	r := newCoalesceRig(t, "adaptive,min=50,max=400,frames=4")
	q := r.n.queues[0]
	floor := r.n.usecsToCycles(50)
	if q.windowCycles != floor {
		t.Fatalf("initial window %d, want floor %d", q.windowCycles, floor)
	}
	// Burst: 8 back-to-back frames serialize 24416 cycles apart, so a
	// 100k-cycle window sees ≥4 of them and must widen.
	r.eng.At(1000, func() {
		for i := 0; i < 8; i++ {
			r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460})
		}
	})
	r.eng.Run(5_000_000)
	widened := q.windowCycles
	if widened <= floor {
		t.Fatalf("window %d did not widen above floor %d after a burst", widened, floor)
	}
	// Idle: lone frames close their windows nearly empty; the window
	// must narrow again.
	for i := 0; i < 4; i++ {
		at := r.eng.Now() + sim.Time(1+i)*2_000_000
		r.eng.At(at, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	}
	r.eng.Run(r.eng.Now() + 20_000_000)
	if q.windowCycles >= widened {
		t.Fatalf("window %d did not narrow from %d after idle traffic", q.windowCycles, widened)
	}
	if len(r.fs.received) != 12 {
		t.Fatalf("delivered %d frames, want 12", len(r.fs.received))
	}
}

// Regression (PR 8 bugfix): a coalesce-deferred interrupt must re-check
// the mask at fire time. A NAPI poll that masked the queue in the
// interim owns the pending work; firing anyway delivers a spurious
// interrupt.
func TestDeferredIRQRechecksMaskAtFire(t *testing.T) {
	r := newRig(t)
	q := r.n.queues[0]
	r.eng.At(1000, func() { r.n.maybeRaiseIRQ(q) }) // raises immediately
	r.eng.At(1100, func() {
		q.irqPending = false // top half accepted
		r.n.maybeRaiseIRQ(q) // within the 2000-cycle gap → deferred to 3000
	})
	r.eng.At(1200, func() { q.masked = true }) // poll takes ownership
	r.eng.Run(50_000)
	if r.n.IRQsRaised != 1 {
		t.Fatalf("deferred raise fired through a masked queue: %d IRQs, want 1", r.n.IRQsRaised)
	}
	if q.irqPending {
		t.Fatal("suppressed deferral left the pending latch set (queue wedged)")
	}
	// Once unmasked, new work interrupts again.
	r.eng.At(60_000, func() {
		q.masked = false
		r.n.maybeRaiseIRQ(q)
	})
	r.eng.Run(100_000)
	if r.n.IRQsRaised != 2 {
		t.Fatalf("queue did not recover after unmask: %d IRQs, want 2", r.n.IRQsRaised)
	}
}

// Regression (PR 8 bugfix): lastIRQ == 0 used to mean "never raised",
// so an interrupt raised at cycle 0 bypassed the coalescing window for
// the next one. The sentinel keeps cycle 0 a real interrupt time.
func TestCycleZeroIRQStillCoalesces(t *testing.T) {
	r := newRig(t)
	r.n.SetCoalesce(2_000_000) // wide window: the first IRQ is fully serviced inside it
	q := r.n.queues[0]
	r.eng.At(0, func() { r.n.maybeRaiseIRQ(q) }) // interrupt at cycle 0
	r.eng.At(1_000_000, func() {
		q.irqPending = false
		r.n.maybeRaiseIRQ(q) // inside the window → must defer to 2_000_000
	})
	var atGapEdge uint64
	r.eng.At(1_999_999, func() { atGapEdge = r.n.IRQsRaised })
	r.eng.Run(5_000_000)
	if atGapEdge != 1 {
		t.Fatalf("second IRQ fired inside the coalescing window after a cycle-0 interrupt (%d raised by the window edge)", atGapEdge)
	}
	if r.n.IRQsRaised != 2 {
		t.Fatalf("deferred IRQ never fired: %d raised", r.n.IRQsRaised)
	}
	if q.lastIRQ != 2_000_000 {
		t.Fatalf("deferred IRQ fired at %d, want the window edge 2000000", q.lastIRQ)
	}
}

// A deferral suppressed by a link outage must not strand frames already
// DMA'd into the ring: carrier-up re-kicks interrupt generation.
func TestLinkUpRekicksSuppressedIRQ(t *testing.T) {
	r := newRig(t)
	r.n.SetCoalesce(10_000_000) // huge gap so the second frame defers
	r.eng.At(1000, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	r.eng.At(30_000, func() { r.n.InjectFromWire(WireFrame{Conn: 1, Len: 1460}) })
	r.eng.At(100_000, func() { r.n.SetLinkUp(false) })
	var beforeUp int
	r.eng.At(11_900_000, func() { beforeUp = len(r.fs.received) })
	r.eng.At(12_000_000, func() { r.n.SetLinkUp(true) })
	r.eng.Run(20_000_000)
	if beforeUp != 1 {
		t.Fatalf("%d frames delivered while the link was down, want 1 (pre-outage only)", beforeUp)
	}
	if len(r.fs.received) != 2 {
		t.Fatalf("frame stranded in the ring after link recovery: delivered %d, want 2", len(r.fs.received))
	}
}
