package cache

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/workload"
)

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/fingerprint_golden.txt from this build")

const fingerprintGolden = "testdata/fingerprint_golden.txt"

// setTopology gives cfg an explicit machine shape.
func setTopology(cfg *core.Config, t topo.Topology) { cfg.Topology = t }

// goldenConfig builds the config one golden line names: the cell-shape
// product's eight coordinates over 1M+4M-cycle windows.
func goldenConfig(t *testing.T, tp, mode, dir, size, pol, wl, co, f string) core.Config {
	t.Helper()
	m, err := core.ParseMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.ParseDirection(dir)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := strconv.Atoi(size)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(m, d, sz)
	cfg.WarmupCycles = 1_000_000
	cfg.MeasureCycles = 4_000_000
	if tp == "paper" {
		setTopology(&cfg, topo.Paper())
	} else {
		setTopology(&cfg, topo.Uniform(4, 4, 2))
	}
	if pol != "default" {
		if cfg.Policy, err = core.ParsePolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	if wl != "bulk" {
		if cfg.Workload, err = workload.Parse(wl); err != nil {
			t.Fatal(err)
		}
	}
	if co != "legacy" {
		if cfg.Coalesce, err = netdev.ParseCoalesce(co); err != nil {
			t.Fatal(err)
		}
	}
	switch f {
	case "loss":
		cfg.Faults, err = fault.Parse("loss,rate=0.01")
	case "stall":
		cfg.Faults, err = fault.Parse("stall,nic=0,from=2e6,until=2.5e6")
	}
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// goldenCells calls visit with a label and a config for every
// combination of topology × mode × dir × size × policy × workload ×
// coalesce × faults (the cell-shape product), then for a few seed,
// window, Tune and TCP variants of one cell.
func goldenCells(t *testing.T, visit func(label string, cfg core.Config)) {
	for _, tp := range []string{"paper", "uniform-4-4-2"} {
		for _, mode := range []string{"none", "full"} {
			for _, dir := range []string{"tx", "rx"} {
				for _, size := range []string{"128", "65536"} {
					for _, pol := range []string{"default", "rss", "flowdirector", "rotate"} {
						for _, wl := range []string{"bulk", "rpc", "openloop,conns=300"} {
							for _, co := range []string{"legacy", "adaptive", "timer,usecs=100"} {
								for _, f := range []string{"none", "loss", "stall"} {
									cfg := goldenConfig(t, tp, mode, dir, size, pol, wl, co, f)
									visit(strings.Join([]string{tp, mode, dir, size, pol, wl, co, f}, "/"), cfg)
								}
							}
						}
					}
				}
			}
		}
	}
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"seed=7", func(c *core.Config) { c.Seed = 7 }},
		{"seed=2^63", func(c *core.Config) { c.Seed = 1 << 63 }},
		{"window=default", func(c *core.Config) {
			d := core.DefaultConfig(c.Mode, c.Dir, c.Size)
			c.WarmupCycles, c.MeasureCycles = d.WarmupCycles, d.MeasureCycles
		}},
		{"window=0+1", func(c *core.Config) { c.WarmupCycles, c.MeasureCycles = 0, 1 }},
		{"tune.wakeaffinity", func(c *core.Config) { c.Tune.WakeAffinity = !c.Tune.WakeAffinity }},
		{"tune.quantum=1e6", func(c *core.Config) { c.Tune.QuantumCycles = 1_000_000 }},
		{"tcp.mss=576", func(c *core.Config) { c.TCP.MSS = 576 }},
		{"tcp.delack=1", func(c *core.Config) { c.TCP.DelAckSegs = 1 }},
		{"gauge=1e6", func(c *core.Config) { c.GaugeCycles = 1_000_000 }},
	}
	for _, v := range variants {
		for _, mode := range []string{"none", "full"} {
			cfg := goldenConfig(t, "paper", mode, "tx", "65536", "default", "bulk", "legacy", "none")
			v.mutate(&cfg)
			visit(fmt.Sprintf("paper/%s/tx/65536/%s", mode, v.name), cfg)
		}
	}
}

// goldenFingerprints lists "label fingerprint" for every golden cell.
func goldenFingerprints(t *testing.T) []string {
	var out []string
	goldenCells(t, func(label string, cfg core.Config) { out = append(out, label+" "+Fingerprint(cfg)) })
	return out
}

// TestFingerprintGolden pins the cache key of every cell shape to the
// value recorded from a reference build, so disk caches and coordinator
// journals written by an earlier build stay valid. A mismatch means a
// key changed: either bump fingerprintVersion (the scheme changed) or
// fix the change that moved it. Regenerate with -update-fingerprints
// only together with a fingerprintVersion bump.
func TestFingerprintGolden(t *testing.T) {
	got := goldenFingerprints(t)
	if *updateFingerprints {
		if err := os.WriteFile(fingerprintGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, the product has %d", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("fingerprint moved:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more", bad-10)
	}
}
