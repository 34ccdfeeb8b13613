package coord

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// failAfter fronts a worker and serves only the first n sweep dispatches;
// everything after fails — the coordinator-visible shape of a worker (or
// fleet) dying partway through a sweep.
type failAfter struct {
	h http.Handler
	n atomic.Int64
}

func (f *failAfter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/sweep") && f.n.Add(-1) < 0 {
		http.Error(w, "injected crash", http.StatusServiceUnavailable)
		return
	}
	f.h.ServeHTTP(w, r)
}

// TestCrashRestartResumesFromJournal is the tentpole acceptance: a
// coordinator that dies mid-sweep leaves its completed cells in the
// journal; a restarted coordinator on the same journal dir serves those
// cells without dispatching anything and re-dispatches only the
// remainder — and the merged stream is byte-identical to a run that was
// never interrupted.
func TestCrashRestartResumesFromJournal(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(7))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}
	dir := t.TempDir()

	// Epoch A: the worker dies after 3 cells; retries and hedging are off
	// so each lost cell fails fast and the sweep truncates. Both epochs
	// rely on register marking the worker healthy and never probe it: a
	// missed heartbeat under CPU load would evict the worker while its
	// cells are in flight and fail them for the wrong reason.
	dying := &failAfter{h: serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2})}
	dying.n.Store(3)
	dyingTS := httptest.NewServer(dying)
	t.Cleanup(dyingTS.Close)

	ctsA, cA := newCoord(t, Options{
		Heartbeat:   time.Hour,
		Retries:     -1,
		HedgeAfter:  -1,
		JournalDir:  dir,
		JournalSync: time.Millisecond,
	})
	register(t, ctsA.URL, dyingTS.URL, 2)
	code, partial := post(t, ctsA.URL+"/v1/sweep", sweepBody(7))
	if code != http.StatusOK {
		t.Fatalf("interrupted sweep: status %d", code)
	}
	if partial == want {
		t.Fatal("sweep was supposed to be interrupted but completed fully")
	}
	journaled, _ := cA.store.Size()
	if journaled == 0 || journaled > 3 {
		t.Fatalf("journaled cells = %d, want 1..3 (the cells the dying worker served)", journaled)
	}
	// Crash: no Shutdown, no checkpoint — recovery must come from the
	// wal alone. (Close only releases the file handle.)
	cA.Close()

	// Epoch B: fresh coordinator, same journal dir, healthy worker.
	wts, wrk := newWorker(t)
	ctsB, cB := newCoord(t, Options{
		Heartbeat:   time.Hour,
		HedgeAfter:  -1,
		JournalDir:  dir,
		JournalSync: time.Millisecond,
	})
	register(t, ctsB.URL, wts.URL, 2)
	if st := cB.health().Journal; st.Resumed != journaled {
		t.Fatalf("restarted coordinator resumed %d cells, want %d", st.Resumed, journaled)
	}

	code, got := post(t, ctsB.URL+"/v1/sweep", sweepBody(7))
	if code != http.StatusOK {
		t.Fatalf("resumed sweep: status %d", code)
	}
	if got != want {
		t.Fatalf("resumed merge differs from the uninterrupted stream:\n--- resumed ---\n%s--- golden ---\n%s", got, want)
	}
	if hits := cB.metrics.resumeHits.Load(); int(hits) != journaled {
		t.Errorf("resume hits = %d, want %d (every journaled cell served without dispatch)", hits, journaled)
	}
	if d := cB.metrics.dispatched.Load(); int(d) != 8-journaled {
		t.Errorf("restarted coordinator dispatched %d cells, want exactly the %d missing ones", d, 8-journaled)
	}
	if sims := wrk.Cache().Stats().Sims; int(sims) != 8-journaled {
		t.Errorf("worker simulated %d cells, want %d — journaled cells must not re-dispatch", sims, 8-journaled)
	}

	// The exposition carries the resume accounting.
	_, metricsBody := get(t, ctsB.URL+"/metrics")
	if !strings.Contains(metricsBody, fmt.Sprintf("affinity_coord_journal_resume_hits_total %d", journaled)) {
		t.Error("metrics missing the journal resume-hit count")
	}
}

// TestShutdownCheckpointsJournal: a graceful drain compacts the wal into
// the checkpoint file, and the next epoch replays the checkpoint.
func TestShutdownCheckpointsJournal(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(9))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}
	dir := t.TempDir()

	wts, _ := newWorker(t)
	ctsA, cA := newCoord(t, Options{Heartbeat: 50 * time.Millisecond, JournalDir: dir})
	register(t, ctsA.URL, wts.URL, 2)
	if code, _ := post(t, ctsA.URL+"/v1/sweep", sweepBody(9)); code != http.StatusOK {
		t.Fatalf("sweep: status %d", code)
	}
	if err := cA.Shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// The restarted epoch serves the whole sweep from the checkpoint:
	// zero dispatches, no workers even needed.
	ctsB, cB := newCoord(t, Options{Heartbeat: time.Hour, JournalDir: dir})
	st := cB.health().Journal
	if st.Resumed != 8 {
		t.Fatalf("resumed %d cells from checkpoint, want 8", st.Resumed)
	}
	code, got := post(t, ctsB.URL+"/v1/sweep", sweepBody(9))
	if code != http.StatusOK || got != want {
		t.Fatalf("journal-only sweep diverged (status %d)", code)
	}
	if d := cB.metrics.dispatched.Load(); d != 0 {
		t.Errorf("journal-only sweep dispatched %d cells, want 0", d)
	}
}

// flaky fronts a worker with deterministic connection chaos: every third
// sweep dispatch has its TCP connection severed mid-request, and the
// survivors are delayed — resets and latency, the chaos harness's
// network leg. Heartbeats pass untouched.
type flaky struct {
	h     http.Handler
	count atomic.Int64
	delay time.Duration
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/sweep") {
		if f.count.Add(1)%3 == 0 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				http.Error(w, "injected reset", http.StatusBadGateway)
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // client sees a connection reset
			}
			return
		}
		time.Sleep(f.delay)
	}
	f.h.ServeHTTP(w, r)
}

// TestFlakyNetworkConvergesByteIdentical: under connection resets and
// injected latency the retry loop must still converge every cell, with
// the merged bytes identical to a calm single node and zero failed
// cells.
func TestFlakyNetworkConvergesByteIdentical(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(8))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	chaotic := &flaky{
		h:     serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2}),
		delay: 20 * time.Millisecond,
	}
	chaoticTS := httptest.NewServer(chaotic)
	t.Cleanup(chaoticTS.Close)

	cts, c := newCoord(t, Options{
		Heartbeat:  50 * time.Millisecond,
		RetryBase:  10 * time.Millisecond,
		HedgeAfter: -1,
		// Threshold above the chaos pattern's worst consecutive-failure
		// streak, so the breaker stays out of this test's way.
		BreakerThreshold: 8,
	})
	register(t, cts.URL, chaoticTS.URL, 2)

	code, got := post(t, cts.URL+"/v1/sweep", sweepBody(8))
	if code != http.StatusOK {
		t.Fatalf("chaotic sweep: status %d", code)
	}
	if got != want {
		t.Fatalf("merge under connection chaos differs from the calm stream:\n--- chaos ---\n%s--- calm ---\n%s", got, want)
	}
	if f := c.metrics.failed.Load(); f != 0 {
		t.Errorf("%d cells failed; chaos must cost retries, not results", f)
	}
	if r := c.metrics.retried.Load(); r == 0 {
		t.Error("no retries recorded; the chaos injector did not bite")
	}
}

// TestBreakerShieldsSickWorker: a worker that answers heartbeats but
// fails every cell opens its breaker (visible in /healthz and /metrics);
// once it recovers, the half-open probe re-admits it and the fleet
// converges to byte-identical output.
func TestBreakerShieldsSickWorker(t *testing.T) {
	body := fmt.Sprintf(`{"seed":6,"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024],"modes":["none"]}`,
		tinyWarmup, tinyMeasure)
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	sick := &killable{h: serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2})}
	sick.dead.Store(true)
	sickTS := httptest.NewServer(sick)
	t.Cleanup(sickTS.Close)

	cts, c := newCoord(t, Options{
		Heartbeat:        time.Hour, // pings would 502 too; isolate the breaker path
		Retries:          1,
		RetryBase:        5 * time.Millisecond,
		HedgeAfter:       -1,
		BreakerThreshold: 2,
		BreakerCooloff:   50 * time.Millisecond,
	})
	register(t, cts.URL, sickTS.URL, 2)

	// While sick: the cell exhausts its retries and the breaker opens.
	code, got := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || got != "" {
		t.Fatalf("sick-fleet sweep: status %d body %q, want an empty truncated stream", code, got)
	}
	if opens := c.metrics.breakerOpens.Load(); opens == 0 {
		t.Error("breaker never opened against the sick worker")
	}
	if ws := c.reg.snapshot()[0]; ws.Breaker == "closed" {
		t.Errorf("breaker = %s after consecutive failures, want open or half-open", ws.Breaker)
	}
	_, metricsBody := get(t, cts.URL+"/metrics")
	if !strings.Contains(metricsBody, "affinity_coord_breaker_opens_total") {
		t.Error("metrics missing affinity_coord_breaker_opens_total")
	}

	// Recovery: the next probe succeeds, the breaker closes, bytes match.
	sick.dead.Store(false)
	code, got = post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || got != want {
		t.Fatalf("recovered sweep diverged (status %d):\n%s\nvs\n%s", code, got, want)
	}
	waitFor(t, "breaker to close after the successful probe", func() bool {
		return c.reg.snapshot()[0].Breaker == "closed"
	})
}
