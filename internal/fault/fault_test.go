package fault

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestValidateRejectsBadEvents(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string // substring of the error
	}{
		{"unknown kind", Event{Kind: "gremlin"}, "unknown fault kind"},
		{"loss rate high", Event{Kind: KindLoss, NIC: -1, Rate: 1.5}, "outside [0,1]"},
		{"loss rate zero", Event{Kind: KindLoss, NIC: -1}, "does nothing"},
		{"burst inert", Event{Kind: KindBurst, NIC: -1, BadRate: 1}, "never enters"},
		{"burst bad prob", Event{Kind: KindBurst, NIC: -1, PEnterBad: -0.1}, "outside [0,1]"},
		{"nic out of range", Event{Kind: KindFlap, NIC: 4, From: 1, Until: 2}, "outside machine"},
		{"nic below -1", Event{Kind: KindLoss, NIC: -2, Rate: 0.1}, "outside machine"},
		{"empty window", Event{Kind: KindFlap, NIC: 0, From: 10, Until: 10}, "is empty"},
		{"inverted window", Event{Kind: KindFlap, NIC: 0, From: 10, Until: 5}, "is empty"},
		{"beyond horizon", Event{Kind: KindFlap, NIC: 0, From: 2000, Until: 3000}, "beyond"},
		{"delay inert", Event{Kind: KindDelay, NIC: 0}, "no delay_cycles"},
		{"jitter max", Event{Kind: KindDelay, NIC: -1, JitterCycles: math.MaxUint64}, "overflows"},
		{"delay+jitter overflow", Event{Kind: KindDelay, NIC: -1, DelayCycles: 10, JitterCycles: math.MaxUint64 - 5}, "overflows"},
		{"delay at horizon", Event{Kind: KindDelay, NIC: -1, DelayCycles: 1000}, "reaches beyond"},
		{"delay+jitter at horizon", Event{Kind: KindDelay, NIC: -1, DelayCycles: 600, JitterCycles: 400}, "reaches beyond"},
		{"storm no period", Event{Kind: KindStorm, NIC: 0, CPU: 0}, "period_cycles"},
		{"storm cpu range", Event{Kind: KindStorm, NIC: 0, CPU: 7, PeriodCycles: 5}, "cpu 7 outside"},
		{"storm nic wildcard", Event{Kind: KindStorm, NIC: -1, CPU: 0, PeriodCycles: 5}, "must name one device"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.ev}}
		err := s.Validate(4, 4, 1000)
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestValidateAcceptsGoodSchedule(t *testing.T) {
	s := &Schedule{Events: []Event{
		{Kind: KindLoss, NIC: -1, Rate: 0.01},
		{Kind: KindBurst, NIC: 0, PEnterBad: 0.01, PExitBad: 0.3, BadRate: 0.9},
		{Kind: KindFlap, NIC: 1, From: 100, Until: 200},
		{Kind: KindDelay, NIC: -1, DelayCycles: 500, JitterCycles: 100},
		{Kind: KindDelay, NIC: 3, DelayCycles: 600, JitterCycles: 399},
		{Kind: KindStall, NIC: 2, From: 50, Until: 60},
		{Kind: KindStorm, NIC: 0, CPU: 3, From: 10, PeriodCycles: 1000},
	}}
	if err := s.Validate(4, 4, 1000); err != nil {
		t.Fatal(err)
	}
	var nilSched *Schedule
	if err := nilSched.Validate(0, 0, 0); err != nil {
		t.Fatalf("nil schedule: %v", err)
	}
	if !nilSched.Empty() || !(&Schedule{}).Empty() {
		t.Fatal("empty schedules not Empty")
	}
}

func TestParseInlineSpec(t *testing.T) {
	s, err := Parse("flap,nic=0,from=1e9,until=1.5e9; loss,rate=0.01 ;storm,cpu=1,period=250000,until=2e9")
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: KindFlap, NIC: 0, From: 1_000_000_000, Until: 1_500_000_000},
		{Kind: KindLoss, NIC: -1, Rate: 0.01},
		{Kind: KindStorm, NIC: 0, CPU: 1, PeriodCycles: 250_000, Until: 2_000_000_000},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("parsed %+v, want %+v", s.Events, want)
	}
	for _, bad := range []string{"loss,rate", "loss,rate=x", "loss,zorp=1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) did not fail", bad)
		}
	}
	if s, err := Parse("  "); err != nil || len(s.Events) != 0 {
		t.Fatalf("blank spec: %v, %+v", err, s)
	}
}

// TestParsedSpecsValidate runs inline specs through Parse and Validate
// as a run does: a jitter whose draw bound overflows, a delay the run
// cannot outlast and an explicit storm nic=-1 are refused, whatever the
// horizon, while an omitted storm nic still names device 0.
func TestParsedSpecsValidate(t *testing.T) {
	const horizon = 7_000_000
	for _, c := range []struct {
		spec    string
		horizon uint64
		want    string // substring of the error; "" accepts
	}{
		{"delay,jitter=18446744073709551615", horizon, "overflows"},
		{"delay,jitter=18446744073709551615", 0, "overflows"},
		{"delay,delay=1,jitter=18446744073709551614", 0, "overflows"},
		{"delay,delay=1e12", horizon, "reaches beyond"},
		{"delay,jitter=1e19", horizon, "reaches beyond"},
		{"delay,delay=4e3,jitter=8e3", horizon, ""},
		{"storm,cpu=0,period=1e5,nic=-1", horizon, "must name one device"},
		{"storm,cpu=0,period=1e5", horizon, ""},
		{"storm,cpu=0,period=1e5,nic=1", horizon, ""},
	} {
		s, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		err = s.Validate(2, 4, c.horizon)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q (horizon %d): %v", c.spec, c.horizon, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q (horizon %d): error %v, want %q", c.spec, c.horizon, err, c.want)
		}
	}
	s, err := Parse("storm,cpu=0,period=1e5")
	if err != nil || s.Events[0].NIC != 0 {
		t.Fatalf("storm without nic: %v, %+v; want device 0", err, s)
	}
}

func TestParseJSONFile(t *testing.T) {
	want := &Schedule{Events: []Event{
		{Kind: KindBurst, NIC: 1, PEnterBad: 0.02, PExitBad: 0.25, BadRate: 0.8, From: 5},
	}}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip %+v, want %+v", got, want)
	}
	if _, err := Parse("@" + path + ".missing"); err == nil {
		t.Fatal("missing file did not fail")
	}
}

// The Gilbert-Elliott chain must be deterministic under a seed and
// actually bursty: drops cluster while the chain sits in the bad
// state instead of scattering independently.
func TestBurstLossIsDeterministicAndBursty(t *testing.T) {
	run := func(seed uint64) []bool {
		rng := sim.NewRNG(seed)
		w := &nicFaults{events: []*wireEvent{{ev: &Event{
			Kind: KindBurst, PEnterBad: 0.02, PExitBad: 0.2, BadRate: 1.0,
		}}}}
		out := make([]bool, 5000)
		for i := range out {
			out[i] = w.Drop(sim.Time(i), rng, true)
		}
		return out
	}
	a, b := run(11), run(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different drop sequences")
	}
	drops, runs := 0, 0
	for i, d := range a {
		if d {
			drops++
			if i == 0 || !a[i-1] {
				runs++
			}
		}
	}
	if drops == 0 {
		t.Fatal("chain never dropped")
	}
	// BadRate 1.0 and mean bad-state dwell of 5 frames: far fewer
	// distinct runs than drops means the losses are correlated.
	if runs*2 >= drops {
		t.Fatalf("%d drops in %d runs — not bursty", drops, runs)
	}
	if c := run(12); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestDelayJitterBounded(t *testing.T) {
	rng := sim.NewRNG(3)
	w := &nicFaults{events: []*wireEvent{{ev: &Event{
		Kind: KindDelay, DelayCycles: 1000, JitterCycles: 400, From: 10, Until: 20,
	}}}}
	varied := false
	var prev uint64
	for i := 0; i < 200; i++ {
		d := w.ExtraDelay(15, rng, false)
		if d < 1000 || d > 1400 {
			t.Fatalf("delay %d outside [1000, 1400]", d)
		}
		if i > 0 && d != prev {
			varied = true
		}
		prev = d
	}
	if !varied {
		t.Fatal("jitter never varied")
	}
	if d := w.ExtraDelay(25, rng, false); d != 0 {
		t.Fatalf("delay %d outside window", d)
	}
	if w.Drop(15, rng, true) {
		t.Fatal("delay event dropped a frame")
	}
}

// Outside every window the composite consumes no randomness, so a
// schedule whose windows have passed perturbs nothing downstream.
func TestInactiveWindowDrawsNothing(t *testing.T) {
	rng := sim.NewRNG(5)
	w := &nicFaults{events: []*wireEvent{
		{ev: &Event{Kind: KindLoss, Rate: 1.0, From: 100, Until: 200}},
		{ev: &Event{Kind: KindBurst, PEnterBad: 1, PExitBad: 0, BadRate: 1, From: 100, Until: 200}},
	}}
	before := rng.Uint64()
	_ = before
	probe := sim.NewRNG(5)
	probe.Uint64()
	if w.Drop(50, probe, true) {
		t.Fatal("dropped outside window")
	}
	if got, want := probe.Uint64(), rng.Uint64(); got != want {
		t.Fatal("inactive window consumed randomness")
	}
}
