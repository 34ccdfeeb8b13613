package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// longBody is a deliberately huge cell — a 10-billion-cycle window takes
// minutes of wall clock, so a watchdog always fires long before it
// completes naturally.
const longBody = `{"mode":"full","size":65536,"seed":11,"warmup_cycles":2000000000,"measure_cycles":8000000000}`

// TestTimeoutCancelsSimulation is the fix for the old leak: a request
// that times out must cancel its simulation — the run aborts, the
// limiter slot frees, and affinity_sims_cancelled_total ticks. Before
// this, the 503 went out while the sim burned a slot to completion.
func TestTimeoutCancelsSimulation(t *testing.T) {
	// The timeout must beat the (minutes-long) longBody cell by a wide
	// margin but still leave the tiny follow-up cell room to finish even
	// under the race detector's slowdown.
	srv := New(Options{
		Runner:      core.NewRunner(1),
		MaxInflight: 1,
		Timeout:     2 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts.URL+"/v1/run", longBody)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "cancelled") {
		t.Fatalf("timed-out run: status %d body %q, want 503 mentioning cancellation", code, body)
	}
	waitUntil(t, "cancelled simulation to abort and free its slot", func() bool {
		return srv.simsCancelled.Load() >= 1 && len(srv.sem) == 0
	})

	// The freed slot serves real work again (retried: on a loaded
	// machine even the tiny cell can brush the request timeout).
	waitUntil(t, "freed slot to serve a fresh run", func() bool {
		code, _ := post(t, ts.URL+"/v1/run", tinyBody(""))
		return code == http.StatusOK
	})

	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "affinity_sims_cancelled_total") {
		t.Error("metrics missing affinity_sims_cancelled_total")
	}
	if strings.Contains(metricsBody, "affinity_sims_cancelled_total 0\n") {
		t.Error("cancelled-sim counter stuck at zero in /metrics")
	}
	if strings.Contains(metricsBody, "affinity_sims_inflight 1") {
		t.Error("in-flight gauge still counts the cancelled simulation")
	}
}

// TestSimBudgetFreesHungSlot: the wall-clock watchdog aborts a cell that
// exceeds its budget even though the client is still waiting — the
// request gets a clean 503 and the worker slot is free for the next
// cell, instead of hanging until the request timeout.
func TestSimBudgetFreesHungSlot(t *testing.T) {
	srv := New(Options{
		Runner:      core.NewRunner(1),
		MaxInflight: 1,
		SimBudget:   time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	start := time.Now()
	code, body := post(t, ts.URL+"/v1/run", longBody)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "aborted") {
		t.Fatalf("over-budget run: status %d body %q, want 503 abort", code, body)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("watchdog took %s to abort; the slot effectively hung", elapsed)
	}
	if got := srv.budgetAborts.Load(); got != 1 {
		t.Errorf("budget aborts = %d, want 1", got)
	}
	waitUntil(t, "aborted cell to release its slot", func() bool { return len(srv.sem) == 0 })

	// A cell that fits the budget runs normally on the freed slot.
	code, _ = post(t, ts.URL+"/v1/run", tinyBody(""))
	if code != http.StatusOK {
		t.Fatalf("in-budget run after abort: status %d, want 200", code)
	}
	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "affinity_sim_budget_aborts_total") {
		t.Error("metrics missing affinity_sim_budget_aborts_total")
	}
}

// TestMaxSimCyclesAborts: the virtual-clock cap is the deterministic
// budget — a cell whose windows exceed it aborts with the cycle-budget
// reason regardless of wall-clock speed.
func TestMaxSimCyclesAborts(t *testing.T) {
	srv := New(Options{
		Runner:       core.NewRunner(1),
		MaxSimCycles: 1_000_000, // below the tiny 2M-cycle warmup
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := post(t, ts.URL+"/v1/run", tinyBody(""))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, core.AbortCycleBudget) {
		t.Fatalf("over-cycle-cap run: status %d body %q, want 503 %q", code, body, core.AbortCycleBudget)
	}
	if got := srv.budgetAborts.Load(); got != 1 {
		t.Errorf("budget aborts = %d, want 1", got)
	}
	if got := srv.Cache().Stats().Aborts; got != 1 {
		t.Errorf("cache refused %d aborted results, want 1", got)
	}
}

// verifyQuery is a scorecard over tiny windows.
var verifyQuery = fmt.Sprintf("/v1/verify?warmup_cycles=%d&measure_cycles=%d", tinyWarmup, tinyMeasure)

// TestVerifyHonoursMaxSimCycles: the scorecard's cells run under the
// same cycle cap as /v1/run, and an aborted cell fails the request
// instead of scoring its partial metrics.
func TestVerifyHonoursMaxSimCycles(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(1), MaxSimCycles: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := get(t, ts.URL+verifyQuery)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, core.AbortCycleBudget) {
		t.Fatalf("over-cycle-cap verify: status %d body %q, want 503 %q", code, body, core.AbortCycleBudget)
	}
	if got := srv.budgetAborts.Load(); got == 0 {
		t.Error("budget aborts stuck at zero")
	}
	if got := srv.Cache().Stats().Entries; got != 0 {
		t.Errorf("%d aborted verify cells entered the cache", got)
	}
}

// TestVerifyTimeoutCancelsCells: a scorecard whose request times out
// cancels the cell it is simulating, which frees its limiter slot.
func TestVerifyTimeoutCancelsCells(t *testing.T) {
	srv := New(Options{
		Runner:      core.NewRunner(1),
		MaxInflight: 1,
		Timeout:     2 * time.Second,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := get(t, ts.URL+"/v1/verify?warmup_cycles=2000000000&measure_cycles=8000000000")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "cancelled") {
		t.Fatalf("timed-out verify: status %d body %q, want 503 mentioning cancellation", code, body)
	}
	waitUntil(t, "cancelled verify cell to abort and free its slot", func() bool {
		return srv.simsCancelled.Load() >= 1 && len(srv.sem) == 0
	})
	if got := srv.Cache().Stats().Entries; got != 0 {
		t.Errorf("%d cancelled verify cells entered the cache", got)
	}
}

// TestVerifyPanicIs500: a panic on the verify path — in a cell, or in
// scoring a result that lacks its counters — is one failed request, as
// under /v1/run: a 500 and a tick of affinity_panics_total, and the
// server keeps serving.
func TestVerifyPanicIs500(t *testing.T) {
	for name, stub := range map[string]func(context.Context, core.Config) *core.Result{
		"cell":    func(context.Context, core.Config) *core.Result { panic("injected verify panic") },
		"scoring": func(context.Context, core.Config) *core.Result { return &core.Result{} },
	} {
		ts := newTestServer(t, Options{Runner: core.NewRunner(1), Run: stub})
		code, body := get(t, ts.URL+verifyQuery)
		if code != http.StatusInternalServerError || !strings.Contains(body, "panicked") {
			t.Errorf("%s: panicking verify: status %d body %q, want 500 naming the panic", name, code, body)
			continue
		}
		if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
			t.Errorf("%s: /healthz after a verify panic: status %d", name, code)
		}
		_, metricsBody := get(t, ts.URL+"/metrics")
		for _, want := range []string{
			`affinity_panics_total{path="/v1/verify"} 1`,
			`affinity_requests_total{path="/v1/verify",code="500"} 1`,
		} {
			if !strings.Contains(metricsBody, want) {
				t.Errorf("%s: metrics missing %q", name, want)
			}
		}
	}
}
