package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
)

// FuzzRunRequestConfig feeds arbitrary bodies through the /v1/run
// resolution: strict JSON decoding as the handlers do it, then
// RunRequest.Config. Resolving must never panic; an accepted config
// must place (PlanFor) and carry a fault schedule valid for its shape
// and windows, whose cycle counts are the numbers the spec wrote; one
// body must always resolve to one cache key; and no "@file" spec may be
// accepted, since a parser would open the file.
func FuzzRunRequestConfig(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"mode":"full","dir":"rx","size":128,"seed":7}`,
		`{"cpus":4,"nics":4,"queues":2,"conns":8,"policy":"rss"}`,
		`{"policy":"rotate","quick":true}`,
		`{"cpus":1,"nics":1,"queues":1,"conns":1}`,
		`{"size":-5,"nics":2}`,
		`{"conns":-1,"queues":3}`,
		`{"warmup_cycles":1000000,"measure_cycles":4000000,"faults":"loss,rate=0.01;stall,nic=0,from=2e6,until=2.5e6"}`,
		`{"workload":"openloop,conns=300","coalesce":"adaptive"}`,
		// Shapes that once crashed the shape builder or mis-keyed.
		`{"nics":-1}`,
		`{"queues":-2}`,
		// CLI-only file specs.
		`{"faults":"@/etc/hostname","coalesce":" @x.json"}`,
		// Cycle counts outside uint64, which once converted to
		// host-dependent values.
		`{"faults":"delay,delay=-3"}`,
		`{"faults":"flap,nic=0,from=1e6,until=1e20"}`,
		// A jitter whose draw bound overflows, which once divided by zero.
		`{"faults":"delay,jitter=18446744073709551615"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var rq RunRequest
		resolve := func() (core.Config, error) {
			rq = RunRequest{}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&rq); err != nil {
				return core.Config{}, err
			}
			return rq.Config()
		}
		cfg, err := resolve()
		if err != nil {
			return
		}
		for _, spec := range []string{rq.Faults, rq.Workload, rq.Coalesce} {
			if strings.HasPrefix(strings.TrimSpace(spec), "@") {
				t.Fatalf("accepted %s, whose spec %q names a file", body, spec)
			}
		}
		if _, err := core.PlanFor(cfg); err != nil {
			t.Fatalf("accepted %s, but PlanFor fails: %v", body, err)
		}
		if !cfg.Faults.Empty() {
			tp := cfg.Topology
			if err := cfg.Faults.Validate(len(tp.NICs), tp.NumCPUs, cfg.WarmupCycles+cfg.MeasureCycles); err != nil {
				t.Fatalf("accepted %s, but its fault schedule is invalid: %v", body, err)
			}
			checkCycleCounts(t, rq.Faults, cfg.Faults.Events)
		}
		again, err := resolve()
		if err != nil {
			t.Fatalf("%s resolved once, then failed: %v", body, err)
		}
		if cache.Fingerprint(cfg) != cache.Fingerprint(again) {
			t.Fatalf("%s resolves to two cache keys", body)
		}
	})
}

// checkCycleCounts fails t unless every cycle count written in an
// accepted inline fault spec is held as written: an integer literal
// exactly, float notation truncated toward zero. These are the fault
// spec's only integers Validate does not range-check, and Go leaves a
// float conversion outside uint64 implementation-defined, so a count
// that differs here could key differently on another host.
func checkCycleCounts(t *testing.T, faults string, events []fault.Event) {
	t.Helper()
	i := 0
	for _, part := range strings.Split(faults, ";") {
		fields := strings.Split(part, ",")
		if strings.TrimSpace(part) == "" {
			continue
		}
		ev := &events[i]
		i++
		held := map[string]uint64{"from": ev.From, "until": ev.Until, "delay": ev.DelayCycles, "jitter": ev.JitterCycles, "period": ev.PeriodCycles}
		written := map[string]string{}
		for _, f := range fields[1:] {
			if key, val, ok := strings.Cut(f, "="); ok {
				written[strings.ToLower(strings.TrimSpace(key))] = strings.TrimSpace(val)
			}
		}
		for key, got := range held {
			val, ok := written[key]
			if !ok {
				continue
			}
			want, ok := new(big.Int).SetString(val, 10)
			if !ok {
				x, err := strconv.ParseFloat(val, 64)
				if err != nil || math.IsInf(x, 0) || math.IsNaN(x) {
					t.Fatalf("fault spec %q accepted %s=%s as %d", faults, key, val, got)
				}
				want, _ = big.NewFloat(x).Int(nil)
			}
			if want.Cmp(new(big.Int).SetUint64(got)) != 0 {
				t.Fatalf("fault spec %q holds %s=%s as %d", faults, key, val, got)
			}
		}
	}
}
