package core

import (
	"strings"
	"testing"

	"repro/internal/topo"
	"repro/internal/ttcp"
)

func TestDumpStateContents(t *testing.T) {
	cfg := DefaultConfig(ModeIRQ, ttcp.TX, 65536)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 0
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Measure(5_000_000)

	dump := m.DumpState()
	for _, want := range []string{
		"machine @",
		"IRQ Aff",
		"cpu0:", "cpu1:",
		"conn0", "conn7",
		"nic0", "nic7",
		"vec 0x19", "vec 0x27",
		"pool:",
		"sched:",
		"events:",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "cpu2:") || strings.Contains(dump, "conn8") {
		t.Errorf("dump lists hardware beyond the 2P × 8NIC shape:\n%s", dump)
	}
}

// DumpState must follow the configured topology, not the paper's shape.
func TestDumpStateCustomTopology(t *testing.T) {
	cfg := DefaultConfig(ModeNone, ttcp.TX, 65536)
	cfg.WarmupCycles = 0
	cfg.MeasureCycles = 0
	cfg.Topology = topo.Uniform(4, 3, 1)
	m := NewMachine(cfg)
	defer m.Shutdown()
	m.Measure(1_000_000)

	dump := m.DumpState()
	for _, want := range []string{"cpu3:", "nic2", "conn2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
	if strings.Contains(dump, "nic3") || strings.Contains(dump, "cpu4:") {
		t.Errorf("dump lists hardware beyond the 4P × 3NIC shape:\n%s", dump)
	}
}
