package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// FuzzRunRequestConfig feeds arbitrary bodies through the /v1/run
// resolution: strict JSON decoding as the handlers do it, then
// RunRequest.Config. Resolving must never panic; an accepted config
// must place (PlanFor) and carry a fault schedule valid for its shape
// and windows; one body must always resolve to one cache key; and no
// "@file" spec may be accepted, since a parser would open the file.
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
		// Operator-only file specs.
		`{"faults":"@/etc/hostname","coalesce":" @x.json"}`,
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
