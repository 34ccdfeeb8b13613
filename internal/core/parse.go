package core

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/netdev"
	"repro/internal/topo"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// ParseMode resolves an affinity mode from its common spellings,
// case-insensitively: none|no|noaff, proc|process, irq|int|interrupt,
// full, partition|part. CLI flags and the HTTP API share this parser, so
// both accept identical vocabularies.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "no", "noaff":
		return ModeNone, nil
	case "proc", "process":
		return ModeProc, nil
	case "irq", "int", "interrupt":
		return ModeIRQ, nil
	case "full":
		return ModeFull, nil
	case "partition", "part":
		return ModePartition, nil
	}
	return 0, fmt.Errorf("unknown affinity mode %q (none|proc|irq|full|partition)", s)
}

// ParseDirection resolves a transfer direction: tx|send|transmit or
// rx|recv|receive, case-insensitively.
func ParseDirection(s string) (ttcp.Direction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "tx", "send", "transmit":
		return ttcp.TX, nil
	case "rx", "recv", "receive":
		return ttcp.RX, nil
	}
	return 0, fmt.Errorf("unknown direction %q (tx|rx)", s)
}

// ParsePolicy resolves a built-in placement policy, accepting the same
// aliases ParseMode does for the mode-shaped policies (proc, int,
// interrupt, part) on top of the canonical names
// none|process|irq|full|partition|rotate|rss|flowdirector.
func ParsePolicy(s string) (topo.PlacementPolicy, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	switch name {
	case "proc":
		name = "process"
	case "int", "interrupt":
		name = "irq"
	case "part":
		name = "partition"
	case "fd", "ntuple":
		name = "flowdirector"
	}
	pol, err := topo.PolicyByName(name)
	if err != nil {
		return nil, fmt.Errorf("unknown placement policy %q (none|process|irq|full|partition|rotate|rss|flowdirector)", s)
	}
	return pol, nil
}

// FieldError is a failure attributable to one named input: a request's
// JSON field, or the spec a flag carries.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Err.Error() }
func (e *FieldError) Unwrap() error { return e.Err }

// ApplySpecs resolves the fault-schedule, workload and coalescing specs
// (the internal/spec grammar) onto c, after its topology and windows
// are set: the CLI and the HTTP API both resolve their specs here. An
// empty spec leaves its field as it is. The fault schedule is validated
// against c's shape and its WarmupCycles+MeasureCycles horizon, and a
// schedule with no events is dropped, so it keys as the clean baseline.
// A failure is a *FieldError naming "faults", "workload" or "coalesce".
func (c *Config) ApplySpecs(faults, wl, coalesce string) error {
	if faults != "" {
		sched, err := fault.Parse(faults)
		if err == nil {
			err = sched.Validate(len(c.Topology.NICs), c.Topology.NumCPUs, c.WarmupCycles+c.MeasureCycles)
		}
		if err != nil {
			return &FieldError{Field: "faults", Err: err}
		}
		if !sched.Empty() {
			c.Faults = sched
		}
	}
	if wl != "" {
		w, err := workload.Parse(wl)
		if err != nil {
			return &FieldError{Field: "workload", Err: err}
		}
		c.Workload = w
	}
	if coalesce != "" {
		co, err := netdev.ParseCoalesce(coalesce)
		if err != nil {
			return &FieldError{Field: "coalesce", Err: err}
		}
		c.Coalesce = co
	}
	return nil
}
