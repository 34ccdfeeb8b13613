// Package fault is the deterministic fault-injection subsystem: a
// validated schedule of typed degradation events — link flaps, bursty
// (Gilbert-Elliott) loss, wire delay with jitter, NIC DMA stalls,
// per-CPU interrupt storms — executed by the simulation engine at
// configured virtual times. Every random decision draws from the run's
// seeded RNG, so a faulted run is bit-reproducible across the serial
// and parallel runners and the result cache.
//
// The paper's LAN is loss-free and its runs are steady-state; this
// layer exists to characterize how the affinity modes degrade when the
// network is not cooperating, and to drive the post-run resource
// invariant checks (no leaked buffers, no armed retransmission timers)
// that a clean run never exercises.
package fault

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/spec"
)

// Kind names one fault type.
type Kind string

const (
	// KindLoss drops each wire frame independently with probability
	// Rate during the window (both directions).
	KindLoss Kind = "loss"
	// KindBurst is Gilbert-Elliott two-state loss: a per-frame Markov
	// chain moves between a good state (drop probability Rate, usually
	// zero) and a bad state (drop probability BadRate) with transition
	// probabilities PEnterBad and PExitBad, producing correlated drop
	// bursts rather than independent losses.
	KindBurst Kind = "burst"
	// KindFlap takes the link down at From and back up at Until; every
	// frame reaching the wire while down is dropped and counted.
	KindFlap Kind = "flap"
	// KindDelay adds DelayCycles plus a uniform jitter in
	// [0, JitterCycles] to each frame's wire propagation during the
	// window; unequal jitter draws reorder frames within that bound.
	KindDelay Kind = "delay"
	// KindStall freezes the NIC's receive DMA engine from From to
	// Until: frames arriving off the wire are held (or overflow the
	// ring) and flushed in FIFO order on resume.
	KindStall Kind = "stall"
	// KindStorm injects a spurious delivery of NIC's interrupt vector
	// directly to CPU every PeriodCycles during the window, bypassing
	// the affinity mask; the handler finds no work, so the cost is pure
	// interrupt overhead on the victim processor.
	KindStorm Kind = "storm"
)

// Event is one scheduled fault. Which fields matter depends on Kind;
// Validate rejects nonsense combinations. All times are virtual cycles
// from the start of the run (warmup included).
type Event struct {
	Kind Kind `json:"kind"`
	// NIC is the target device. -1 targets every NIC (wire faults
	// only); KindStorm names the device whose vector is injected.
	NIC int `json:"nic"`
	// CPU is the storm's victim processor; ignored by other kinds.
	CPU int `json:"cpu"`
	// From and Until bound the active window in cycles. Until == 0
	// means "until the end of the run".
	From  uint64 `json:"from"`
	Until uint64 `json:"until"`
	// Rate is the drop probability (loss; burst good state).
	Rate float64 `json:"rate"`
	// BadRate, PEnterBad, PExitBad parameterize the burst chain.
	BadRate   float64 `json:"bad_rate"`
	PEnterBad float64 `json:"p_enter_bad"`
	PExitBad  float64 `json:"p_exit_bad"`
	// DelayCycles and JitterCycles parameterize KindDelay.
	DelayCycles  uint64 `json:"delay_cycles"`
	JitterCycles uint64 `json:"jitter_cycles"`
	// PeriodCycles is the storm's injection interval.
	PeriodCycles uint64 `json:"period_cycles"`
}

// Schedule is a validated list of fault events. A nil or empty
// schedule is the clean baseline: nothing is installed, nothing is
// scheduled, and no random numbers are drawn, so runs with an empty
// schedule are byte-identical to runs before this package existed.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// wireKind reports whether k acts on the wire path of a NIC.
func wireKind(k Kind) bool {
	switch k {
	case KindLoss, KindBurst, KindDelay:
		return true
	}
	return false
}

func probRange(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("%s %g outside [0,1]", name, p)
	}
	return nil
}

// Validate checks every event against the machine shape and run
// horizon (total cycles; 0 = unknown). It returns the first problem
// found, prefixed with the offending event's index.
func (s *Schedule) Validate(numNICs, numCPUs int, horizonCycles uint64) error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.validate(numNICs, numCPUs, horizonCycles); err != nil {
			return fmt.Errorf("fault event %d (%s): %w", i, e.Kind, err)
		}
	}
	return nil
}

func (e *Event) validate(numNICs, numCPUs int, horizonCycles uint64) error {
	switch e.Kind {
	case KindLoss:
		if err := probRange("rate", e.Rate); err != nil {
			return err
		}
		if e.Rate == 0 {
			return fmt.Errorf("loss with rate 0 does nothing")
		}
	case KindBurst:
		for _, p := range []struct {
			name string
			v    float64
		}{{"rate", e.Rate}, {"bad_rate", e.BadRate}, {"p_enter_bad", e.PEnterBad}, {"p_exit_bad", e.PExitBad}} {
			if err := probRange(p.name, p.v); err != nil {
				return err
			}
		}
		if e.PEnterBad == 0 && e.Rate == 0 {
			return fmt.Errorf("burst never enters the bad state and good-state rate is 0")
		}
	case KindFlap, KindStall:
		// Window-only faults; checked below.
	case KindDelay:
		if e.DelayCycles == 0 && e.JitterCycles == 0 {
			return fmt.Errorf("delay with no delay_cycles or jitter_cycles")
		}
		// The draw is uniform in [delay, delay+jitter], so delay+jitter+1
		// must be a cycle count, and a frame must be able to arrive
		// within the run.
		end, carry := bits.Add64(e.DelayCycles, e.JitterCycles, 1)
		if carry != 0 {
			return fmt.Errorf("delay %d + jitter %d overflows a cycle count", e.DelayCycles, e.JitterCycles)
		}
		if horizonCycles != 0 && end > horizonCycles {
			return fmt.Errorf("delay %d + jitter %d reaches beyond the %d-cycle run", e.DelayCycles, e.JitterCycles, horizonCycles)
		}
	case KindStorm:
		if e.PeriodCycles == 0 {
			return fmt.Errorf("storm needs period_cycles > 0")
		}
		if e.CPU < 0 || e.CPU >= numCPUs {
			return fmt.Errorf("cpu %d outside machine (0..%d)", e.CPU, numCPUs-1)
		}
		if e.NIC < 0 || e.NIC >= numNICs {
			return fmt.Errorf("storm nic %d must name one device (0..%d)", e.NIC, numNICs-1)
		}
	default:
		return fmt.Errorf("unknown fault kind %q", e.Kind)
	}
	if e.Kind != KindStorm {
		if e.NIC < -1 || e.NIC >= numNICs {
			return fmt.Errorf("nic %d outside machine (-1 for all, 0..%d)", e.NIC, numNICs-1)
		}
	}
	if e.Until != 0 && e.Until <= e.From {
		return fmt.Errorf("window [%d, %d) is empty", e.From, e.Until)
	}
	if horizonCycles != 0 && e.From >= horizonCycles {
		return fmt.Errorf("window starts at %d, beyond the %d-cycle run", e.From, horizonCycles)
	}
	return nil
}

// Parse builds a schedule from a spec in the internal/spec grammar:
// "@file.json" for a JSON Schedule, or inline events separated by
// semicolons, each a kind followed by ",key=value" fields, e.g.
//
//	flap,nic=0,from=1e9,until=1.5e9;loss,rate=0.01
//
// Keys: nic, cpu, from, until, rate, bad, penter, pexit, delay,
// jitter, period. An omitted nic means every NIC (device 0 for a
// storm). The result is not validated — callers hold the machine
// shape.
func Parse(s string) (*Schedule, error) {
	var sched Schedule
	if spec.IsFile(s) {
		if err := spec.ReadFile(s, &sched); err != nil {
			return nil, fmt.Errorf("fault: %w", err)
		}
		return &sched, nil
	}
	for _, part := range strings.Split(s, ";") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		// An omitted nic means every NIC, or device 0 for a storm; an
		// explicit nic=-1 on a storm is left for Validate to refuse.
		ev := Event{Kind: Kind(spec.Kind(part)), NIC: -1}
		if ev.Kind == KindStorm {
			ev.NIC = 0
		}
		_, err := spec.Inline(part, spec.Keys{
			"nic": &ev.NIC, "cpu": &ev.CPU, "from": &ev.From, "until": &ev.Until,
			"rate": &ev.Rate, "bad": &ev.BadRate, "penter": &ev.PEnterBad, "pexit": &ev.PExitBad,
			"delay": &ev.DelayCycles, "jitter": &ev.JitterCycles, "period": &ev.PeriodCycles,
		})
		if err != nil {
			return nil, fmt.Errorf("fault: event %q: %w", strings.TrimSpace(part), err)
		}
		sched.Events = append(sched.Events, ev)
	}
	return &sched, nil
}
