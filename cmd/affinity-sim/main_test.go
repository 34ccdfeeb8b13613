package main

import (
	"reflect"
	"testing"

	"repro/affinity"
)

// A non-positive CPU, NIC or queue count, or more NICs than interrupt
// vectors, is a usage error (exit 2), not a crash in the shape builder
// or a shape that simulates as one thing and hashes as another.
func TestTopologyRejectsNonPositiveCounts(t *testing.T) {
	for _, c := range []struct{ cpus, nics, queues int }{
		{0, 8, 1}, {-1, 8, 1}, {2, 0, 8}, {2, -1, 1}, {2, 8, 0}, {2, 8, -2},
		{2, 1_000_000_000, 1},
	} {
		if _, err := topology(c.cpus, c.nics, c.queues, 0); err == nil {
			t.Errorf("-cpus %d -nics %d -queues %d accepted", c.cpus, c.nics, c.queues)
		}
	}
	got, err := topology(2, 8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, affinity.PaperTopology()) {
		t.Errorf("default flags give %+v, want the paper's shape", got)
	}
}

// An empty measured window (-measure 0) has no rates to report: it is a
// usage error, not a util=[NaN% NaN%] result, like a non-positive size.
func TestRunRejectsEmptyWindowAndSize(t *testing.T) {
	for _, c := range []struct {
		size    int
		measure uint64
	}{{65536, 0}, {0, 240_000_000}, {-1, 240_000_000}} {
		if err := checkRun(c.size, c.measure); err == nil {
			t.Errorf("-size %d -measure %d accepted", c.size, c.measure)
		}
	}
	if err := checkRun(1, 1); err != nil {
		t.Errorf("-size 1 -measure 1: %v", err)
	}
}
