package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ttcp"
)

// tiny are the smallest windows that still measure something; every
// test request carries them so the suite stays fast.
const (
	tinyWarmup  = 2_000_000
	tinyMeasure = 5_000_000
)

func newTestServer(t *testing.T, opts Options) *httptest.Server {
	t.Helper()
	if opts.Runner == nil {
		opts.Runner = core.NewRunner(0)
	}
	ts := httptest.NewServer(New(opts))
	t.Cleanup(ts.Close)
	return ts
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

func tinyBody(extra string) string {
	return fmt.Sprintf(`{"mode":"full","dir":"tx","size":65536,"warmup_cycles":%d,"measure_cycles":%d%s}`,
		tinyWarmup, tinyMeasure, extra)
}

func TestRunEndpointMatchesDirectSimulation(t *testing.T) {
	ts := newTestServer(t, Options{})
	code, body := post(t, ts.URL+"/v1/run", tinyBody(""))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	cfg.WarmupCycles = tinyWarmup
	cfg.MeasureCycles = tinyMeasure
	want, err := core.Run(cfg).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimRight(body, "\n") != want {
		t.Errorf("HTTP result differs from direct simulation:\n%s\nvs\n%s", body, want)
	}
}

func TestColdAndWarmResponsesByteIdentical(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, cold := post(t, ts.URL+"/v1/run", tinyBody(""))
	_, warm := post(t, ts.URL+"/v1/run", tinyBody(""))
	if cold != warm {
		t.Error("warm (cached) response differs from cold response")
	}
	st := srv.Cache().Stats()
	if st.Sims != 1 {
		t.Errorf("two identical requests ran %d simulations, want 1", st.Sims)
	}
	if st.Hits != 1 {
		t.Errorf("warm request should hit the cache, stats %+v", st)
	}
}

func TestConcurrentIdenticalRequestsSimulateOnce(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const concurrent = 32
	bodies := make([]string, concurrent)
	codes := make([]int, concurrent)
	var wg sync.WaitGroup
	wg.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinyBody("")))
			if err != nil {
				codes[i] = -1
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			codes[i], bodies[i] = resp.StatusCode, string(b)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrent; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d returned a different body", i)
		}
	}
	if sims := srv.Cache().Stats().Sims; sims != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want exactly 1 (singleflight)", concurrent, sims)
	}
}

func TestSweepStreamsDeterministicNDJSON(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body := fmt.Sprintf(`{"dir":"tx","warmup_cycles":%d,"measure_cycles":%d,"sizes":[128,65536],"modes":["none","full"]}`,
		tinyWarmup, tinyMeasure)
	code, cold := post(t, ts.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, cold)
	}

	// Four NDJSON lines in sizes-outer, modes-inner order.
	var rows []core.ResultExport
	sc := bufio.NewScanner(bytes.NewReader([]byte(cold)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row core.ResultExport
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	wantOrder := []struct {
		mode string
		size int
	}{
		{"No Aff", 128}, {"Full Aff", 128}, {"No Aff", 65536}, {"Full Aff", 65536},
	}
	if len(rows) != len(wantOrder) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantOrder))
	}
	for i, w := range wantOrder {
		if rows[i].Mode != w.mode || rows[i].Size != w.size {
			t.Errorf("row %d = (%s, %d), want (%s, %d)", i, rows[i].Mode, rows[i].Size, w.mode, w.size)
		}
	}

	// Replay: byte-identical, no extra simulations.
	simsAfterCold := srv.Cache().Stats().Sims
	code, warm := post(t, ts.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if warm != cold {
		t.Error("warm sweep response not byte-identical to cold response")
	}
	if sims := srv.Cache().Stats().Sims; sims != simsAfterCold {
		t.Errorf("warm sweep simulated %d extra cells", sims-simsAfterCold)
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"unknown mode":     `{"mode":"sideways"}`,
		"unknown dir":      `{"dir":"up"}`,
		"unknown policy":   `{"policy":"chaos"}`,
		"unknown field":    `{"moed":"full"}`,
		"negative size":    `{"size":-5}`,
		"impossible shape": `{"cpus":64}`,
		"malformed json":   `{`,
		// Deleted knobs: think time is a ttcp setting, and rotating
		// delivery is "policy":"rotate".
		"think_cycles": `{"think_cycles":1000}`,
		"rotate_irqs":  `{"rotate_irqs":true}`,
	} {
		code, resp := post(t, ts.URL+"/v1/run", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, resp)
		}
	}
}

func TestVerifyEndpoint(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := get(t, fmt.Sprintf("%s/v1/verify?warmup_cycles=%d&measure_cycles=%d", ts.URL, tinyWarmup, tinyMeasure))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp VerifyResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != len(resp.Checks) || resp.Total < 15 {
		t.Errorf("scorecard has %d checks (total %d), want the full suite", len(resp.Checks), resp.Total)
	}

	// Text format renders the scorecard; the runs are already cached.
	sims := srv.Cache().Stats().Sims
	code, text := get(t, fmt.Sprintf("%s/v1/verify?warmup_cycles=%d&measure_cycles=%d&format=text", ts.URL, tinyWarmup, tinyMeasure))
	if code != http.StatusOK || !strings.Contains(text, "checks passed") {
		t.Errorf("text scorecard: status %d, body %q", code, text)
	}
	if after := srv.Cache().Stats().Sims; after != sims {
		t.Errorf("re-verify simulated %d extra cells, want 0 (cache)", after-sims)
	}
}

// TestVerifyRejectsMalformedQuery pins whole-value parsing of the
// scorecard's numeric parameters: a prefix parse would run 1e9 as a
// 1-cycle window, 12abc as 12, and 0x10 as 0, the default.
func TestVerifyRejectsMalformedQuery(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, q := range []string{
		"measure_cycles=1e9",
		"measure_cycles=12abc",
		"measure_cycles=0x10",
		"measure_cycles=-1",
		"measure_cycles=1.5",
		"warmup_cycles=1e9",
		"warmup_cycles=%2B5",
		"seed=7x",
		"seed=18446744073709551616",
	} {
		code, body := get(t, ts.URL+"/v1/verify?"+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, code, body)
		}
	}
}

func TestHealthzReportsVersionAndCache(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0), Version: "test-build-1"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var h HealthResponse
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "test-build-1" || h.Workers <= 0 || h.Limit <= 0 {
		t.Errorf("healthz payload %+v", h)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(0)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post(t, ts.URL+"/v1/run", tinyBody(""))
	post(t, ts.URL+"/v1/run", tinyBody(""))
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`affinity_requests_total{path="/v1/run",code="200"} 2`,
		"affinity_sims_total 1",
		"affinity_cache_hits_total 1",
		"affinity_request_seconds_count 2",
		"affinity_worker_pool_depth",
		"affinity_build_info",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

func TestLimiterSheds(t *testing.T) {
	// A stub that blocks until released, returning a real (tiny) result
	// so rendering works.
	cfgA := core.DefaultConfig(core.ModeNone, ttcp.TX, 65536)
	cfgA.WarmupCycles, cfgA.MeasureCycles = tinyWarmup, tinyMeasure
	canned := core.Run(cfgA)
	block := make(chan struct{})
	stub := func(context.Context, core.Config) *core.Result { <-block; return canned }
	defer close(block)

	srv := New(Options{
		Runner:      core.NewRunner(1),
		Cache:       cache.New(cache.DefaultMaxBytes, ""),
		Run:         stub,
		MaxInflight: 1,
		Timeout:     300 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// First request occupies the only slot (and eventually times out,
	// since the stub never returns within the budget).
	firstDone := make(chan string, 1)
	go func() {
		_, body := post(t, ts.URL+"/v1/run", `{"seed":1}`)
		firstDone <- body
	}()

	// Give the first request time to take the slot, then saturate.
	time.Sleep(50 * time.Millisecond)
	code, body := post(t, ts.URL+"/v1/run", `{"seed":2}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "capacity") {
		t.Errorf("saturated limiter: status %d body %q, want 503 capacity shed", code, body)
	}
	first := <-firstDone
	if !strings.Contains(first, "timed out") {
		t.Errorf("blocked leader should time out, got %q", first)
	}
}

// TestFieldLevel400s pins the structured validation errors: each bad
// field yields a 400 whose JSON body names the offending field, so
// clients can map the failure back to their input without parsing
// prose.
func TestFieldLevel400s(t *testing.T) {
	ts := newTestServer(t, Options{})
	for name, tc := range map[string]struct {
		body  string
		field string
	}{
		"unknown mode":      {`{"mode":"sideways"}`, "mode"},
		"unknown dir":       {`{"dir":"up"}`, "dir"},
		"unknown policy":    {`{"policy":"chaos"}`, "policy"},
		"negative size":     {`{"size":-5}`, "size"},
		"malformed faults":  {`{"faults":"flap,nic=banana"}`, "faults"},
		"unknown fault":     {`{"faults":"gremlin,rate=0.5"}`, "faults"},
		"fault nic range":   {`{"faults":"flap,nic=99,until=1e6"}`, "faults"},
		"fault past window": {tinyBody(`,"faults":"flap,from=1e12,until=2e12"`), "faults"},
		"empty fault rate":  {`{"faults":"loss,rate=0"}`, "faults"},
		"negative cpus":     {`{"cpus":-1}`, "cpus"},
		"negative nics":     {`{"nics":-1}`, "nics"},
		"negative queues":   {`{"queues":-2}`, "queues"},
		"too many nics":     {`{"nics":1000000000}`, "nics"},
		// "@file" specs are CLI-only: refused before any parser
		// could open the file.
		"file faults":   {`{"faults":"@/etc/hostname"}`, "faults"},
		"file workload": {`{"workload":"@/nonexistent"}`, "workload"},
		"file coalesce": {`{"coalesce":"@/proc/self/environ"}`, "coalesce"},
	} {
		code, resp := post(t, ts.URL+"/v1/run", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, resp)
			continue
		}
		var body struct {
			Error string `json:"error"`
			Field string `json:"field"`
		}
		if err := json.Unmarshal([]byte(resp), &body); err != nil {
			t.Errorf("%s: 400 body is not JSON: %v (%s)", name, err, resp)
			continue
		}
		if body.Field != tc.field {
			t.Errorf("%s: field = %q (%s), want %q", name, body.Field, resp, tc.field)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error message", name)
		}
		if strings.HasPrefix(name, "file ") && body.Error != tc.field+": @file specs are not accepted in requests" {
			t.Errorf("%s: error %q, want the @file refusal", name, body.Error)
		}
	}
}

// TestRunWithFaults exercises the fault plumbing end to end over HTTP:
// a lossy cell must report degradation metrics and a clean invariant
// verdict, and must differ from the clean baseline's result.
func TestRunWithFaults(t *testing.T) {
	ts := newTestServer(t, Options{})
	code, cleanBody := post(t, ts.URL+"/v1/run", tinyBody(""))
	if code != http.StatusOK {
		t.Fatalf("clean run: status %d (%s)", code, cleanBody)
	}
	code, faultBody := post(t, ts.URL+"/v1/run", tinyBody(`,"faults":"loss,rate=0.005"`))
	if code != http.StatusOK {
		t.Fatalf("faulted run: status %d (%s)", code, faultBody)
	}
	if faultBody == cleanBody {
		t.Error("faulted response identical to clean baseline")
	}
	var out struct {
		WireDrops         uint64  `json:"wire_drops"`
		GoodputRatio      float64 `json:"goodput_ratio"`
		InvariantsChecked bool    `json:"invariants_checked"`
		InvariantBad      string  `json:"invariant_violation"`
	}
	if err := json.Unmarshal([]byte(faultBody), &out); err != nil {
		t.Fatal(err)
	}
	if out.WireDrops == 0 {
		t.Error("lossy run reported zero wire drops")
	}
	if !out.InvariantsChecked || out.InvariantBad != "" {
		t.Errorf("invariants: checked=%v violation=%q", out.InvariantsChecked, out.InvariantBad)
	}
	if out.GoodputRatio <= 0 || out.GoodputRatio >= 1 {
		t.Errorf("goodput ratio %g outside (0,1)", out.GoodputRatio)
	}
}

// TestPanicRecovery pins the middleware: a panicking simulation
// becomes a 500 with a JSON error and a tick of affinity_panics_total;
// the server keeps serving afterwards.
func TestPanicRecovery(t *testing.T) {
	stub := func(_ context.Context, cfg core.Config) *core.Result {
		if cfg.Seed == 99 {
			panic("injected test panic")
		}
		cfg.WarmupCycles, cfg.MeasureCycles = tinyWarmup, tinyMeasure
		return core.Run(cfg)
	}
	srv := New(Options{Runner: core.NewRunner(1), Run: stub})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, resp := post(t, ts.URL+"/v1/run", `{"seed":99}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking run: status %d (%s), want 500", code, resp)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(resp), &body); err != nil {
		t.Fatalf("500 body is not JSON: %v (%s)", err, resp)
	}
	if !strings.Contains(body.Error, "injected test panic") {
		t.Errorf("error %q does not surface the panic value", body.Error)
	}

	// The server survives and still serves good requests.
	code, resp = post(t, ts.URL+"/v1/run", tinyBody(""))
	if code != http.StatusOK {
		t.Fatalf("post-panic run: status %d (%s)", code, resp)
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, `affinity_panics_total{path="/v1/run"} 1`) {
		t.Errorf("metrics missing panic counter:\n%s", metricsBody)
	}
	if !strings.Contains(metricsBody, `affinity_requests_total{path="/v1/run",code="500"} 1`) {
		t.Errorf("metrics missing 500 count")
	}
}

// TestAbandonedSweepCancelsUndispatchedCells covers the disconnect
// pathology: a client that walks away from a sweep stream must not keep
// the worker pool simulating cells nobody will read — exactly what a
// coordinator's retries and hedges do to workers routinely.
func TestAbandonedSweepCancelsUndispatchedCells(t *testing.T) {
	srv := New(Options{Runner: core.NewRunner(1)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The full default grid: 7 sizes × 4 modes = 28 tiny cells,
	// serialized on one worker so most are still undispatched when the
	// client abandons the stream after the first line.
	const cells = 28
	body := fmt.Sprintf(`{"warmup_cycles":%d,"measure_cycles":%d}`, tinyWarmup, tinyMeasure)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first cell line: %v", err)
	}
	cancel() // abandon the stream
	resp.Body.Close()

	// The producer drains: every cell either simulated (it was already
	// dispatched) or was cancelled, and cancellation must claim the bulk.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sims := srv.Cache().Stats().Sims
		cancelled := srv.sweepCancelled.Load()
		if sims+cancelled >= cells {
			if cancelled == 0 {
				t.Fatal("no cells were cancelled after the client disconnected")
			}
			if sims >= cells {
				t.Fatalf("all %d cells simulated despite the abandoned stream", cells)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never drained: sims=%d cancelled=%d", sims, cancelled)
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, metricsBody := get(t, ts.URL+"/metrics")
	if !strings.Contains(metricsBody, "affinity_sweep_cells_cancelled_total") {
		t.Error("metrics missing affinity_sweep_cells_cancelled_total")
	}
	if strings.Contains(metricsBody, "affinity_sweep_cells_cancelled_total 0\n") {
		t.Error("cancelled-cell counter stuck at zero in /metrics")
	}
}

// TestMetricsScrapeIsOneSnapshot scrapes /metrics in a loop while cells
// complete, some simulated and some replayed from the journal, and
// checks that every scrape's cache series agree with each other:
// misses = disk hits + simulations.
func TestMetricsScrapeIsOneSnapshot(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	cfg.WarmupCycles, cfg.MeasureCycles = tinyWarmup, tinyMeasure
	canned := core.Run(cfg)
	stub := func(context.Context, core.Config) *core.Result { return canned }
	body := func(seed int) string { return tinyBody(fmt.Sprintf(`,"seed":%d`, seed)) }

	// Journal the even seeds, so the second server replays them.
	dir := t.TempDir()
	const seeds = 32
	first := cache.New(cache.DefaultMaxBytes, dir)
	ts := newTestServer(t, Options{Runner: core.NewRunner(1), Cache: first, Run: stub})
	for seed := 0; seed < seeds; seed += 2 {
		if code, resp := post(t, ts.URL+"/v1/run", body(seed)); code != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, code, resp)
		}
	}
	ts.Close()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	c := cache.New(cache.DefaultMaxBytes, dir)
	t.Cleanup(func() { c.Close() })
	ts = newTestServer(t, Options{Runner: core.NewRunner(1), Cache: c, Run: stub})

	var wg sync.WaitGroup
	codes := make(chan int, 2*seeds)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 2*seeds; i += 4 {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body(i%seeds)))
				if err != nil {
					codes <- -1
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes <- resp.StatusCode
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	value := func(exposition, name string) uint64 {
		for _, line := range strings.Split(exposition, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				var n uint64
				if _, err := fmt.Sscan(v, &n); err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("/metrics has no %s sample", name)
		return 0
	}
	for scrapes, finished := 0, false; !finished; scrapes++ {
		select {
		case <-done:
			finished = true // one last scrape after every cell completed
		default:
		}
		code, exp := get(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics: status %d", code)
		}
		misses := value(exp, "affinity_cache_misses_total")
		diskHits := value(exp, "affinity_cache_disk_hits_total")
		sims := value(exp, "affinity_sims_total")
		if misses != diskHits+sims {
			t.Fatalf("scrape %d: misses %d != disk hits %d + simulations %d", scrapes, misses, diskHits, sims)
		}
		if finished && (diskHits == 0 || sims == 0) {
			t.Fatalf("after every cell: %d disk hits and %d simulations, want some of each", diskHits, sims)
		}
	}
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("a cell request got status %d", code)
		}
	}
}

// TestRunFailureAnswers pins the exact answer /v1/run gives for each way
// a cell can fail: status, content type and body, and the path label on
// the request and panic counters. An aborted result is a 503
// naming the abort reason, a panic a 500 naming the panic, and a cell
// still running at the deadline a 503 even when the simulation ignores
// its context.
func TestRunFailureAnswers(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	for name, tc := range map[string]struct {
		stub   func(context.Context, core.Config) *core.Result
		code   int
		body   string
		panics bool
	}{
		"cycle budget": {
			stub: func(context.Context, core.Config) *core.Result {
				return &core.Result{Aborted: true, AbortReason: core.AbortCycleBudget}
			},
			code: http.StatusServiceUnavailable,
			body: `{"error":"simulation aborted: ` + core.AbortCycleBudget + `"}`,
		},
		"no reason": {
			stub: func(context.Context, core.Config) *core.Result { return &core.Result{Aborted: true} },
			code: http.StatusServiceUnavailable,
			body: `{"error":"simulation aborted: aborted"}`,
		},
		"panic": {
			stub:   func(context.Context, core.Config) *core.Result { panic("boom") },
			code:   http.StatusInternalServerError,
			body:   `{"error":"simulation panicked: boom"}`,
			panics: true,
		},
		"deadline": {
			stub: func(context.Context, core.Config) *core.Result { <-hang; return nil },
			code: http.StatusServiceUnavailable,
			body: `{"error":"request timed out; simulation cancelled"}`,
		},
	} {
		ts := newTestServer(t, Options{Runner: core.NewRunner(1), Run: tc.stub, Timeout: 200 * time.Millisecond})
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tinyBody("")))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || string(b) != tc.body+"\n" || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: status %d, type %q, body %q; want %d, application/json, %q",
				name, resp.StatusCode, resp.Header.Get("Content-Type"), b, tc.code, tc.body+"\n")
		}
		_, metricsBody := get(t, ts.URL+"/metrics")
		want := []string{fmt.Sprintf(`affinity_requests_total{path="/v1/run",code="%d"} 1`, tc.code)}
		if tc.panics {
			want = append(want, `affinity_panics_total{path="/v1/run"} 1`)
		} else if strings.Contains(metricsBody, `affinity_panics_total{path=`) {
			t.Errorf("%s: a panic was counted", name)
		}
		for _, w := range want {
			if !strings.Contains(metricsBody, w) {
				t.Errorf("%s: metrics missing %q", name, w)
			}
		}
	}
}
