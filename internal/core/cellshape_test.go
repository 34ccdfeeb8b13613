package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

var updateCellShapes = flag.Bool("update-cell-shapes", false, "rewrite testdata/cell_shapes_golden.txt from this build")

const (
	cellShapesGolden = "testdata/cell_shapes_golden.txt"
	// cellShapeStride samples the product: every cellShapeStride-th
	// combination in enumeration order is simulated.
	cellShapeStride = 7
	// cellShapeShortStride thins the golden further under -short.
	cellShapeShortStride = 4
	// cellShapeBudget caps a cell's virtual time, invariant drain
	// included, at half a simulated second: a lossy open-loop cell
	// aborts (and its abort state is pinned) instead of waiting out its
	// one-second give-up timers.
	cellShapeBudget = 1_000_000_000
)

// cellShape is one point of the cell-shape product, by the names the
// golden file records.
type cellShape struct {
	topology, mode, dir, size, policy, workload, coalesce, faults string
}

func (s cellShape) label() string {
	return strings.Join([]string{s.topology, s.mode, s.dir, s.size, s.policy, s.workload, s.coalesce, s.faults}, "/")
}

// cellShapes enumerates topology × mode × dir × size × policy ×
// workload × coalesce × faults in a fixed order.
func cellShapes() []cellShape {
	var out []cellShape
	for _, tp := range []string{"paper", "uniform-4-4-2"} {
		for _, mode := range []string{"none", "full"} {
			for _, dir := range []string{"tx", "rx"} {
				for _, size := range []string{"128", "65536"} {
					for _, pol := range []string{"default", "rss", "flowdirector", "rotate"} {
						for _, wl := range []string{"bulk", "rpc", "openloop,conns=300"} {
							for _, co := range []string{"legacy", "adaptive", "timer,usecs=100"} {
								for _, f := range []string{"none", "loss", "stall"} {
									out = append(out, cellShape{tp, mode, dir, size, pol, wl, co, f})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// config builds the cell's Config over 1M+4M-cycle windows.
func (s cellShape) config(t *testing.T) Config {
	t.Helper()
	mode, err := ParseMode(s.mode)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := ParseDirection(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	size, err := strconv.Atoi(s.size)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mode, dir, size)
	cfg.WarmupCycles = 1_000_000
	cfg.MeasureCycles = 4_000_000
	if s.topology != "paper" {
		shape := topo.Uniform(4, 4, 2)
		cfg.Topology = &shape
	}
	if s.policy != "default" {
		if cfg.Policy, err = ParsePolicy(s.policy); err != nil {
			t.Fatal(err)
		}
	}
	if s.workload != "bulk" {
		if cfg.Workload, err = ParseWorkload(s.workload); err != nil {
			t.Fatal(err)
		}
	}
	if s.coalesce != "legacy" {
		if cfg.Coalesce, err = ParseCoalesce(s.coalesce); err != nil {
			t.Fatal(err)
		}
	}
	switch s.faults {
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

// cellDigest is what the golden pins for one cell: the exported JSON,
// the engine's scheduling counters and the abort state.
func cellDigest(t *testing.T, r *Result) string {
	t.Helper()
	js, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\naborted=%v reason=%q\n", js, r.Engine, r.Aborted, r.AbortReason)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCellShapesMatchGolden pins a sample of the whole cell-shape
// product — every topology, mode, direction, size, policy, workload,
// coalescing model and fault kind appears — to digests recorded from a
// reference build. Any change to the simulated trajectory of any shape,
// including the engine's own event counts, shows up as a mismatch. Each
// quiescible unfaulted cell is also re-run and drained through
// CheckInvariants (faulted ones are checked by the run itself).
//
// Regenerate with -update-cell-shapes only when a change is meant to
// alter results.
func TestCellShapesMatchGolden(t *testing.T) {
	shapes := cellShapes()
	var lines []string
	if !*updateCellShapes {
		data, err := os.ReadFile(cellShapesGolden)
		if err != nil {
			t.Fatal(err)
		}
		lines = strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	}
	var out []string
	n := 0
	for i := 0; i < len(shapes); i += cellShapeStride {
		line := n
		n++
		if !*updateCellShapes && testing.Short() && line%cellShapeShortStride != 0 {
			continue
		}
		s := shapes[i]
		cfg := s.config(t)
		r := RunControlled(cfg, nil, cellShapeBudget)
		got := fmt.Sprintf("%d %s %s", i, s.label(), cellDigest(t, r))
		out = append(out, got)
		if r.InvariantViolation != "" {
			t.Errorf("%s: invariant violation: %s", s.label(), r.InvariantViolation)
		}
		if !r.Aborted && cfg.Faults.Empty() {
			checkCellInvariants(t, s, cfg)
		}
		if *updateCellShapes {
			continue
		}
		if line >= len(lines) {
			t.Fatalf("golden has %d lines, the product samples more", len(lines))
		}
		if got != lines[line] {
			t.Errorf("cell diverged from the golden:\n got  %s\n want %s", got, lines[line])
		}
	}
	if *updateCellShapes {
		if err := os.WriteFile(cellShapesGolden, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if n != len(lines) {
		t.Errorf("golden has %d lines, the product samples %d", len(lines), n)
	}
}

// checkCellInvariants re-runs an unfaulted cell the way Run does and,
// if its workload can quiesce, drains it through CheckInvariants.
func checkCellInvariants(t *testing.T, s cellShape, cfg Config) {
	t.Helper()
	m := NewMachine(cfg)
	defer m.Shutdown()
	if !m.WL.Quiescible() {
		return
	}
	m.Eng.Run(sim.Time(cfg.WarmupCycles))
	m.Measure(cfg.MeasureCycles)
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("%s: %v", s.label(), err)
	}
}
