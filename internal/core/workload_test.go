package core

import (
	"testing"

	"repro/internal/ttcp"
	"repro/internal/workload"
)

// mustWorkload parses a workload spec or fails the test.
func mustWorkload(t *testing.T, spec string) *workload.Spec {
	t.Helper()
	s, err := workload.Parse(spec)
	if err != nil {
		t.Fatalf("workload.Parse(%q): %v", spec, err)
	}
	return s
}

// TestExplicitBulkSpecMatchesNil pins the workload layer's compatibility
// contract: Config.Workload = &Spec{Kind: bulk} must simulate
// bit-identically to the pre-workload-layer nil default — same goodput,
// same counters, same exported JSON.
func TestExplicitBulkSpecMatchesNil(t *testing.T) {
	base := runnerTestConfig(ModeFull, ttcp.TX, 65536)

	explicit := base
	explicit.Workload = mustWorkload(t, "bulk")

	rNil := Run(base)
	rBulk := Run(explicit)
	jNil, err := rNil.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jBulk, err := rBulk.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if jNil != jBulk {
		t.Errorf("explicit bulk spec diverged from nil default:\nnil:  %s\nbulk: %s", jNil, jBulk)
	}
	if rBulk.Requests != 0 || rBulk.Latency != nil || rBulk.ConnsGenerated != 0 {
		t.Error("bulk run populated open-loop/latency fields")
	}
}

// TestRPCWorkloadRecordsLatency sanity-checks the closed-loop
// request/response workload: transactions complete, per-request latency
// is recorded, and the quantiles are ordered.
func TestRPCWorkloadRecordsLatency(t *testing.T) {
	cfg := runnerTestConfig(ModeFull, ttcp.TX, 65536)
	cfg.Workload = mustWorkload(t, "rpc,req=384,rsp=8192,mix=fixed")

	r := Run(cfg)
	if r.Transactions == 0 {
		t.Fatal("rpc run completed no transactions")
	}
	if r.Requests == 0 {
		t.Fatal("rpc run recorded no request latencies")
	}
	if r.LatencyP50Cycles == 0 ||
		r.LatencyP50Cycles > r.LatencyP99Cycles ||
		r.LatencyP99Cycles > r.LatencyP999Cycles {
		t.Errorf("latency quantiles disordered: p50=%d p99=%d p999=%d",
			r.LatencyP50Cycles, r.LatencyP99Cycles, r.LatencyP999Cycles)
	}
	if r.Bytes == 0 {
		t.Error("rpc run reports no delivered bytes")
	}
}

// TestOpenLoopCellAccounting runs a small connection-churn cell to
// completion and checks the books: every generated connection becomes
// terminal, completions carry latency samples, and the cell halts before
// the run-to-completion horizon.
func TestOpenLoopCellAccounting(t *testing.T) {
	cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
	cfg.Workload = mustWorkload(t, "openloop,conns=2000")

	r := Run(cfg)
	if r.ConnsGenerated != 2000 {
		t.Fatalf("generated %d connections, want 2000", r.ConnsGenerated)
	}
	if r.Transactions+r.ConnsAbandoned < r.ConnsGenerated {
		t.Fatalf("cell not terminal: completed=%d abandoned=%d generated=%d",
			r.Transactions, r.ConnsAbandoned, r.ConnsGenerated)
	}
	if r.Requests != r.Transactions {
		t.Errorf("latency samples %d != completions %d", r.Requests, r.Transactions)
	}
	if r.Transactions > 0 && r.LatencyP50Cycles == 0 {
		t.Error("completions recorded but p50 is zero")
	}
	if r.ElapsedCycles >= openLoopHorizon {
		t.Error("cell did not halt before the run-to-completion horizon")
	}
	// At the default offered load this small cell is uncontended: every
	// connection should complete.
	if r.ConnsAbandoned != 0 || r.SynDrops != 0 {
		t.Errorf("uncontended cell dropped work: abandoned=%d syndrops=%d",
			r.ConnsAbandoned, r.SynDrops)
	}
}

// TestParallelOpenLoopChurnDeterminism pins connection-churn determinism
// across runner parallelism: a batch of open-loop cells must export the
// same JSON whether simulated serially or on four workers.
func TestParallelOpenLoopChurnDeterminism(t *testing.T) {
	configs := make([]Config, 0, 4)
	for _, spec := range []string{
		"openloop,conns=1500",
		"openloop,conns=1500,arrival=pareto",
		"openloop,conns=1500,mix=short",
		"openloop,conns=1500,interval=10000",
	} {
		cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
		cfg.Workload = mustWorkload(t, spec)
		configs = append(configs, cfg)
	}

	serial := NewRunner(1).RunConfigs(configs)
	parallel := NewRunner(4).RunConfigs(configs)
	for i := range configs {
		js, err := serial[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		jp, err := parallel[i].JSON()
		if err != nil {
			t.Fatal(err)
		}
		if js != jp {
			t.Errorf("config %d diverged across parallelism:\nserial:   %s\nparallel: %s", i, js, jp)
		}
	}
}
