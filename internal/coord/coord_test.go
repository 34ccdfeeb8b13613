package coord

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// tiny are the smallest windows that still measure something.
const (
	tinyWarmup  = 2_000_000
	tinyMeasure = 5_000_000
)

// newWorker brings up a real single-node server — the same handler a
// production affinity-serve hosts.
func newWorker(t *testing.T) (*httptest.Server, *serve.Server) {
	t.Helper()
	srv := serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func newCoord(t *testing.T, opts Options) (*httptest.Server, *Coordinator) {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return ts, c
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func register(t *testing.T, coordURL, workerURL string, concurrency int) {
	t.Helper()
	code, resp := post(t, coordURL+"/v1/register",
		fmt.Sprintf(`{"url":%q,"version":"test","concurrency":%d}`, workerURL, concurrency))
	if code != http.StatusOK {
		t.Fatalf("register %s: status %d: %s", workerURL, code, resp)
	}
}

// sweepBody is an 8-cell grid (2 sizes × the 4 default modes) with tiny
// windows.
func sweepBody(seed uint64) string {
	return fmt.Sprintf(`{"seed":%d,"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024,65536]}`,
		seed, tinyWarmup, tinyMeasure)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetSweepMatchesSingleNode is the tentpole acceptance: the
// coordinator's merged NDJSON over two workers must be byte-identical
// to one worker answering the same request, a warm repeat must dedup
// 100% of cells without touching the fleet, and /v1/run through the
// fleet must match a worker's /v1/run byte for byte.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(1))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	wtsA, wA := newWorker(t)
	wtsB, wB := newWorker(t)
	cts, c := newCoord(t, Options{Heartbeat: 100 * time.Millisecond})
	register(t, cts.URL, wtsA.URL, 2)
	register(t, cts.URL, wtsB.URL, 2)

	code, got := post(t, cts.URL+"/v1/sweep", sweepBody(1))
	if code != http.StatusOK {
		t.Fatalf("fleet sweep: status %d: %s", code, got)
	}
	if got != want {
		t.Fatalf("fleet merge differs from single-node stream:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	for _, ws := range c.reg.snapshot() {
		if ws.Dispatched == 0 {
			t.Errorf("worker %s received no cells; the shard plan did not spread", ws.URL)
		}
	}

	// Warm repeat: byte-identical again, all 8 cells deduped from the
	// fleet memo, zero new simulations anywhere.
	fleetSims := wA.Cache().Stats().Sims + wB.Cache().Stats().Sims
	dispatchedCold := c.metrics.dispatched.Load()
	code, warm := post(t, cts.URL+"/v1/sweep", sweepBody(1))
	if code != http.StatusOK || warm != want {
		t.Fatalf("warm fleet sweep diverged (status %d)", code)
	}
	if deduped := c.metrics.deduped.Load(); deduped < 8 {
		t.Errorf("warm repeat deduped %d cells, want all 8", deduped)
	}
	if d := c.metrics.dispatched.Load(); d != dispatchedCold {
		t.Errorf("warm repeat dispatched %d new cells to workers, want 0", d-dispatchedCold)
	}
	if s := wA.Cache().Stats().Sims + wB.Cache().Stats().Sims; s != fleetSims {
		t.Errorf("warm repeat re-simulated %d cells", s-fleetSims)
	}

	// /v1/run through the fleet: byte-identical to a worker's own
	// /v1/run, and served from the memo since the sweep covered it.
	runBody := fmt.Sprintf(`{"mode":"full","size":65536,"seed":1,"warmup_cycles":%d,"measure_cycles":%d}`,
		tinyWarmup, tinyMeasure)
	code, wantRun := post(t, soloURL.URL+"/v1/run", runBody)
	if code != http.StatusOK {
		t.Fatalf("single-node run: status %d", code)
	}
	code, gotRun := post(t, cts.URL+"/v1/run", runBody)
	if code != http.StatusOK {
		t.Fatalf("fleet run: status %d: %s", code, gotRun)
	}
	if gotRun != wantRun {
		t.Errorf("fleet /v1/run differs from worker /v1/run:\n%s\nvs\n%s", gotRun, wantRun)
	}
}

// killable fronts a worker and, once killed, refuses everything —
// the coordinator-visible behavior of a crashed worker process.
type killable struct {
	h    http.Handler
	dead atomic.Bool
}

func (k *killable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		http.Error(w, "connection refused (worker killed)", http.StatusBadGateway)
		return
	}
	k.h.ServeHTTP(w, r)
}

// TestWorkerKilledMidSweep kills one of two workers after the first
// merged cell arrives: its unfinished shard must reassign to the
// survivor, the merge must stay byte-identical, and the corpse must be
// evicted by missed heartbeats.
func TestWorkerKilledMidSweep(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(2))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	wtsA, _ := newWorker(t)
	victim := &killable{h: serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2})}
	wtsB := httptest.NewServer(victim)
	t.Cleanup(wtsB.Close)

	cts, c := newCoord(t, Options{
		Heartbeat:  50 * time.Millisecond,
		EvictAfter: 2,
		RetryBase:  10 * time.Millisecond,
		HedgeAfter: -1, // isolate the kill path from hedging
	})
	register(t, cts.URL, wtsA.URL, 1)
	register(t, cts.URL, wtsB.URL, 1)

	resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first merged cell: %v", err)
	}
	victim.dead.Store(true) // kill mid-shard
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading merged stream after kill: %v", err)
	}
	if got := first + string(rest); got != want {
		t.Fatalf("merge after worker kill differs from single-node stream:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}

	waitFor(t, "victim eviction", func() bool { return c.health().WorkersHealthy == 1 })
	for _, ws := range c.reg.snapshot() {
		if ws.URL == strings.TrimRight(wtsB.URL, "/") && ws.Healthy {
			t.Error("killed worker still marked healthy")
		}
	}
}

// delayed fronts a worker and holds every sweep dispatch for delay —
// a straggler node. Pings pass through untouched so the worker stays
// heartbeat-healthy, which is what makes it a straggler rather than a
// corpse.
type delayed struct {
	h     http.Handler
	delay time.Duration
}

func (d *delayed) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/sweep") {
		time.Sleep(d.delay)
	}
	d.h.ServeHTTP(w, r)
}

// TestHedgedStragglerDiscarded dispatches a cell to a slow worker,
// lets the hedge fire onto a fast worker that joins mid-flight, and
// requires: the fast result wins, the straggler's duplicate is
// discarded by fingerprint, and the client sees exactly the single-node
// bytes.
func TestHedgedStragglerDiscarded(t *testing.T) {
	body := fmt.Sprintf(`{"seed":3,"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024],"modes":["none"]}`,
		tinyWarmup, tinyMeasure)
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	slow := &delayed{h: serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 2}), delay: 2 * time.Second}
	slowTS := httptest.NewServer(slow)
	t.Cleanup(slowTS.Close)
	fastTS, fast := newWorker(t)

	cts, c := newCoord(t, Options{
		Heartbeat:  50 * time.Millisecond,
		HedgeAfter: 100 * time.Millisecond,
	})
	// Only the slow worker exists at dispatch time, with a single slot:
	// the primary attempt occupies it, so the hedge must wait for the
	// fast worker's arrival — deterministic straggler rescue.
	register(t, cts.URL, slowTS.URL, 1)

	type reply struct {
		code int
		body string
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			done <- reply{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, string(b)}
	}()

	waitFor(t, "primary dispatch to the slow worker", func() bool { return c.metrics.dispatched.Load() >= 1 })
	register(t, cts.URL, fastTS.URL, 2)

	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("hedged sweep: status %d: %s", r.code, r.body)
	}
	if r.body != want {
		t.Fatalf("hedged result differs from single-node bytes:\n%s\nvs\n%s", r.body, want)
	}
	if h := c.metrics.hedged.Load(); h < 1 {
		t.Errorf("no hedge launched against the straggler (hedged=%d)", h)
	}
	if fast.Cache().Stats().Sims == 0 {
		t.Error("fast worker never simulated; the winning result did not come from the hedge")
	}
	// The straggler's answer lands seconds later and must be discarded
	// as a duplicate of the fingerprint the hedge already resolved.
	waitFor(t, "straggler duplicate discard", func() bool { return c.metrics.hedgeDuplicates.Load() >= 1 })
}

// TestRegistrationChurnDuringSweep hammers the membership table while a
// sweep is in flight: a new worker joins mid-sweep, the existing worker
// re-registers repeatedly (re-announce), and a worker that refuses every
// connection joins and gets evicted — the merge must come out
// byte-identical with no failed cells.
func TestRegistrationChurnDuringSweep(t *testing.T) {
	soloURL, _ := newWorker(t)
	code, want := post(t, soloURL.URL+"/v1/sweep", sweepBody(4))
	if code != http.StatusOK {
		t.Fatalf("single-node sweep: status %d", code)
	}

	wtsA, _ := newWorker(t)
	wtsB, _ := newWorker(t)

	// A registered worker with nobody listening: every dispatch fails,
	// every heartbeat misses.
	refused := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	refusedURL := refused.URL
	refused.Close()

	cts, c := newCoord(t, Options{
		Heartbeat:  50 * time.Millisecond,
		EvictAfter: 2,
		RetryBase:  10 * time.Millisecond,
		HedgeAfter: -1,
	})
	register(t, cts.URL, wtsA.URL, 1)

	resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(sweepBody(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 1<<20)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first merged cell: %v", err)
	}

	// Churn while the remaining seven cells are in flight.
	register(t, cts.URL, wtsB.URL, 2)
	register(t, cts.URL, refusedURL, 2)
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; i < 20; i++ {
			register(t, cts.URL, wtsA.URL, 1+i%2)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading merged stream through churn: %v", err)
	}
	<-churnDone
	if got := first + string(rest); got != want {
		t.Fatalf("merge under registration churn differs from single-node stream:\n--- fleet ---\n%s--- single ---\n%s", got, want)
	}
	if f := c.metrics.failed.Load(); f != 0 {
		t.Errorf("%d cells failed; churn must only move work, not lose it", f)
	}
	waitFor(t, "dead-registration eviction", func() bool {
		for _, ws := range c.reg.snapshot() {
			if ws.URL == strings.TrimRight(refusedURL, "/") {
				return !ws.Healthy
			}
		}
		return false
	})
}

// TestCoordinatorRejectsBadRequests mirrors the worker's validation
// surface: same 400s, same error bodies byte for byte, same field
// attribution, one API either way.
func TestCoordinatorRejectsBadRequests(t *testing.T) {
	wts, _ := newWorker(t)
	cts, _ := newCoord(t, Options{Heartbeat: time.Hour})
	for name, body := range map[string]string{
		"unknown mode":     `{"modes":["sideways"]}`,
		"unknown field":    `{"moed":"full"}`,
		"negative size":    `{"sizes":[-5]}`,
		"malformed json":   `{`,
		"impossible shape": `{"cpus":64}`,
		"file faults":      `{"faults":"@/etc/hostname"}`,
		"file workload":    `{"workload":"@/nonexistent"}`,
		"file coalesce":    `{"coalesce":"@/proc/self/environ"}`,
	} {
		code, resp := post(t, cts.URL+"/v1/sweep", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, resp)
		}
		if _, want := post(t, wts.URL+"/v1/sweep", body); resp != want {
			t.Errorf("%s: coordinator body %q, worker body %q", name, resp, want)
		}
	}
	code, resp := post(t, cts.URL+"/v1/register", `{"url":"not-a-url"}`)
	if code != http.StatusBadRequest {
		t.Errorf("bad register URL: status %d (%s), want 400", code, resp)
	}
}

// TestWorkerURLs: seed workers and registrations pass one check. A
// URL that is not absolute http(s) with a host fails coord.New as a
// seed and is a 400 at /v1/register, with the same message; a good one
// is kept without its trailing slashes.
func TestWorkerURLs(t *testing.T) {
	cts, c := newCoord(t, Options{Heartbeat: time.Hour, Workers: []string{"http://127.0.0.1:9/", "https://example.test"}})
	for _, bad := range []string{"localhost:8080", "not-a-url", "", "ftp://host", "http://", "/v1", "http://bad host"} {
		_, err := New(Options{Workers: []string{"http://127.0.0.1:9", bad}})
		if err == nil {
			t.Errorf("seed worker %q accepted", bad)
			continue
		}
		body, _ := json.Marshal(RegisterRequest{URL: bad})
		code, resp := post(t, cts.URL+"/v1/register", string(body))
		if code != http.StatusBadRequest {
			t.Errorf("register %q: status %d (%s), want 400", bad, code, resp)
		}
		_, werr := WorkerURL(bad)
		if want := "coord: seed worker: " + werr.Error(); err.Error() != want {
			t.Errorf("seed worker %q: error %q, want %q", bad, err, want)
		}
		var answer struct{ Error string }
		if json.Unmarshal([]byte(resp), &answer) != nil || answer.Error != "url: "+werr.Error() {
			t.Errorf("register %q: body %s, want the error %q", bad, resp, "url: "+werr.Error())
		}
	}
	var urls []string
	for _, w := range c.reg.snapshot() {
		urls = append(urls, w.URL)
	}
	sort.Strings(urls)
	if want := []string{"http://127.0.0.1:9", "https://example.test"}; !reflect.DeepEqual(urls, want) {
		t.Errorf("seeded workers %q, want %q", urls, want)
	}
}

// TestProbeCountsEveryEviction: a worker evicted because its ping
// request cannot even be built counts in
// affinity_coord_evictions_total like one that stops answering.
func TestProbeCountsEveryEviction(t *testing.T) {
	_, c := newCoord(t, Options{Heartbeat: time.Hour, EvictAfter: 2})
	const bad = "http://bad host" // only a direct upsert gets past WorkerURL
	c.reg.upsert(bad, "", 1)
	for i := 0; i < 2; i++ {
		c.probe(context.Background(), bad)
	}
	if n := c.metrics.evictions.Load(); n != 1 {
		t.Errorf("%d evictions counted, want 1", n)
	}
}

// TestHealthzAggregatesFleet checks the fleet-wide /healthz block:
// summed worker sims and engine counters, per-worker rows, and the
// mixed-version flag.
func TestHealthzAggregatesFleet(t *testing.T) {
	wtsA, wA := newWorker(t)
	wtsB, _ := newWorker(t)
	cts, c := newCoord(t, Options{Heartbeat: 50 * time.Millisecond})
	register(t, cts.URL, wtsA.URL, 2)
	register(t, cts.URL, wtsB.URL, 2)

	code, got := post(t, cts.URL+"/v1/sweep", sweepBody(5))
	if code != http.StatusOK || !strings.Contains(got, "\n") {
		t.Fatalf("fleet sweep: status %d", code)
	}

	// Heartbeats carry the workers' sims and engine aggregates back.
	wantSims := wA.Cache().Stats().Sims
	waitFor(t, "fleet aggregation to include worker sims", func() bool {
		h := c.health()
		return h.Fleet.Sims >= wantSims && h.Fleet.Engine.Runs > 0
	})
	h := c.health()
	if h.WorkersHealthy != 2 || h.WorkersTotal != 2 {
		t.Errorf("healthy/total = %d/%d, want 2/2", h.WorkersHealthy, h.WorkersTotal)
	}
	if h.Version == "" {
		t.Error("coordinator /healthz missing build version")
	}
	if h.MixedVersions {
		t.Error("identical-build fleet flagged as mixed-version")
	}
	if len(h.WorkerTable) != 2 {
		t.Fatalf("worker table has %d rows, want 2", len(h.WorkerTable))
	}

	// A divergent worker version must raise the mixed-fleet flag.
	c.reg.upsert("http://127.0.0.1:1", "other-version", 1)
	if !c.health().MixedVersions {
		t.Error("divergent worker version not flagged as mixed")
	}

	_, metricsBody := get(t, cts.URL+"/metrics")
	for _, want := range []string{
		"affinity_coord_cells_dispatched_total",
		"affinity_coord_cells_deduped_total",
		"affinity_coord_worker_request_seconds_bucket",
		"affinity_coord_build_info",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Errorf("coordinator /metrics missing %s", want)
		}
	}
}
