package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/serve"
)

// The fleet sweep's cell windows: short, so that dispatch overhead is a
// visible share of the cold pass.
const (
	fleetWarmupCycles  = 2_000_000
	fleetMeasureCycles = 6_000_000
	fleetWorkers       = 2
)

// warmRepeats is how many times each pass re-sends the sweep after the
// cold one. The coordinator's memo answers them without dispatching, so
// they load only the coord, cache and HTTP layers. There are enough that
// this path is a material share of the pass's cpu_s, and that the traced
// run's two untraced passes give a tail percentile with ten samples
// beyond it.
const warmRepeats = 500

// fleetSetupTimeout bounds waiting for the coordinator to report its
// workers healthy.
const fleetSetupTimeout = 10 * time.Second

// sweepBody is the client's request: the paper's seven sizes × four
// modes, TX, at the fleet windows.
func sweepBody(seed uint64) []byte {
	body, err := json.Marshal(serve.SweepRequest{
		RunRequest: serve.RunRequest{Dir: "tx", Seed: seed, WarmupCycles: fleetWarmupCycles, MeasureCycles: fleetMeasureCycles},
		Sizes:      core.Sizes,
		Modes:      []string{"none", "proc", "irq", "full"},
	})
	if err != nil {
		panic(err) // a constant request: only a bug can break it
	}
	return body
}

// singleNode answers the sweep with one worker running one cell at a
// time: the serial single-node reference the fleet merge must equal.
func singleNode(body []byte) ([]byte, error) {
	srv := serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 1})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("single-node sweep: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// fleet is two workers and a journaled coordinator on loopback
// listeners, as affinity-serve and affinity-coord would run them.
type fleet struct {
	workers []*httptest.Server
	coord   *coord.Coordinator
	front   *httptest.Server
	dir     string
	client  *http.Client // the benchmark's own client
	dial    *http.Transport
}

// startFleet starts the workers and the coordinator, registers the
// workers the way a worker announces itself, and waits until the
// coordinator reports both healthy. With spans non-nil, each worker's
// handler and the coordinator's dispatch transport are wrapped to
// record spans.
func startFleet(spans *spanLog) (*fleet, error) {
	dir, err := os.MkdirTemp("", "perfbench-journal-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{}}, dial: &http.Transport{}}
	var limits []int
	for i := 0; i < fleetWorkers; i++ {
		srv := serve.New(serve.Options{Runner: core.NewRunner(1), MaxInflight: 1})
		limits = append(limits, srv.Limit())
		var h http.Handler = srv
		if spans != nil {
			h = spans.handler(srv)
		}
		f.workers = append(f.workers, httptest.NewServer(h))
	}
	var rt http.RoundTripper = f.dial
	if spans != nil {
		rt = spans.transport(f.dial)
	}
	f.coord, err = coord.New(coord.Options{JournalDir: dir, Client: &http.Client{Transport: rt}})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = httptest.NewServer(f.coord)

	ctx, cancel := context.WithTimeout(context.Background(), fleetSetupTimeout)
	defer cancel()
	for i, w := range f.workers {
		if err := coord.Announce(ctx, f.client, f.front.URL, coord.RegisterRequest{URL: w.URL, Concurrency: limits[i]}); err != nil {
			f.close()
			return nil, err
		}
	}
	for {
		var h coord.HealthResponse
		if err := f.getJSON(ctx, "/healthz", &h); err != nil {
			f.close()
			return nil, err
		}
		if h.WorkersHealthy == fleetWorkers {
			return f, nil
		}
		select {
		case <-ctx.Done():
			f.close()
			return nil, fmt.Errorf("coordinator reports %d of %d workers healthy", h.WorkersHealthy, fleetWorkers)
		case <-time.After(time.Millisecond):
		}
	}
}

func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, w := range f.workers {
		w.Close()
	}
	f.client.CloseIdleConnections()
	f.dial.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

func (f *fleet) getJSON(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.front.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(into)
}

// sweep sends one sweep to the coordinator and returns the merged
// NDJSON stream.
func (f *fleet) sweep(body []byte) ([]byte, error) {
	resp, err := f.client.Post(f.front.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads the unlabelled samples of a Prometheus text exposition.
func scrape(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// fleetPass is one fleet lifetime: the cold sweep, then warm repeats.
type fleetPass struct {
	wall        float64 // the cold sweep's wall time
	cpu         float64 // CPU time of the cold sweep and the warm repeats
	warmCPU     float64 // … of which the warm repeats took this much
	scaled      float64 // cpu at the reference speed, when probed (see ref.go)
	rssMB       float64 // the pass's resident-set high-water mark
	allocMB     float64 // allocated during the cold sweep
	gcCycles    uint32
	warmMs      []float64
	coordBefore map[string]float64 // coordinator metrics after the cold sweep
	coordAfter  map[string]float64 // … and after the warm repeats
	workers     []map[string]float64
}

// fleetSetup is the fleet's set-up: it starts a fleet and closes it
// without sending it work.
func fleetSetup() error {
	f, err := startFleet(nil)
	if err != nil {
		return err
	}
	f.close()
	return nil
}

// runFleetPass starts a fleet and runs one pass on it, checking the cold
// stream against want and every warm repeat against the cold stream,
// one operation each. When probed, a speed probe runs beside the pass.
func runFleetPass(rep *report, body []byte, want string, spans *spanLog, probed bool) (*fleetPass, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	f, err := startFleet(spans)
	if err != nil {
		return nil, err
	}
	defer f.close()

	p := &fleetPass{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var pr *probe
	if probed {
		pr = startProbe()
	}
	c0, t0 := cpuSeconds(), time.Now()
	cold, err := f.sweep(body)
	p.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	p.gcCycles = m1.NumGC - m0.NumGC
	if err == nil && digest(cold) != want {
		err = fmt.Errorf("merged stream (%d lines) digest %.12s differs from the single-node reference %.12s",
			bytes.Count(cold, []byte("\n")), digest(cold), want)
	}
	rep.check("cold sweep", err)
	if p.coordBefore, err = scrape(f.client, f.front.URL); err != nil {
		return nil, err
	}

	c1 := cpuSeconds()
	for i := 0; i < warmRepeats; i++ {
		t := time.Now()
		again, err := f.sweep(body)
		p.warmMs = append(p.warmMs, float64(time.Since(t).Microseconds())/1e3)
		if err == nil && !bytes.Equal(again, cold) {
			err = fmt.Errorf("warm repeat differs from the cold stream")
		}
		rep.check("warm sweep", err)
	}
	c2 := cpuSeconds()
	p.cpu, p.warmCPU = c2-c0, c2-c1
	if pr != nil {
		if p.scaled, err = pr.scale(p.cpu); err != nil {
			return nil, err
		}
	}
	if p.coordAfter, err = scrape(f.client, f.front.URL); err != nil {
		return nil, err
	}
	if p.rssMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if n := p.coordAfter[dispatchedMetric] - p.coordBefore[dispatchedMetric]; n != 0 {
		rep.check("warm repeats", fmt.Errorf("%v cells dispatched, want 0 (the memo serves repeats)", n))
	}
	for _, w := range f.workers {
		m, err := scrape(f.client, w.URL)
		if err != nil {
			return nil, err
		}
		p.workers = append(p.workers, m)
	}
	return p, nil
}

const dispatchedMetric = "affinity_coord_cells_dispatched_total"

// runFleet is the fleet workload: each pass starts a fresh fleet, sends
// the sweep cold, then repeats it warm.
func runFleet(b *bench, rep *report) error {
	body := sweepBody(b.seed)
	pins, err := pinned(b)
	if err != nil {
		return err
	}
	want := pins["merged"]
	if pins == nil {
		ref, err := singleNode(body)
		if err != nil {
			return err
		}
		want = digest(ref)
	}
	if b.pin {
		return pin(b, map[string]string{"merged": want})
	}
	if b.trace {
		return traceFleet(rep, body, want)
	}
	var setups, cpus, rss []float64
	err = b.timedPasses(func(i int) error {
		s, err := setupTime(fleetSetup)
		if err != nil {
			return err
		}
		p, err := runFleetPass(rep, body, want, nil, true)
		if err != nil {
			return err
		}
		setups, cpus, rss = append(setups, s), append(cpus, p.scaled), append(rss, p.rssMB)
		fmt.Printf("pass %d: setup %.5fs cold host %.3fs cpu %.3fs (warm %.3fs, with the probe; %.3fs at reference speed) peak rss %.1fMiB warm p50 %.2fms\n",
			i, s, p.wall, p.cpu, p.warmCPU, p.scaled, p.rssMB, median(p.warmMs))
		return nil
	})
	if err != nil {
		return err
	}
	rep.setEndToEnd(setups, median(cpus), rss)
	return nil
}

// traceFleet is the fleet's traced run: one pass under the CPU profiler
// with spans around every dispatch and worker handler, between two
// untraced passes that give the tracing-overhead baseline and the
// warm-latency samples.
func traceFleet(rep *report, body []byte, want string) error {
	base, err := runFleetPass(rep, body, want, nil, false)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := startProfile(&prof); err != nil {
		return err
	}
	s := &spanLog{handled: map[string]time.Duration{}}
	traced, err := runFleetPass(rep, body, want, s, false)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	after, err := runFleetPass(rep, body, want, nil, false)
	if err != nil {
		return err
	}
	if err := setShares(rep, prof.Bytes()); err != nil {
		return err
	}

	var handled, overhead []float64
	var intervals [][2]time.Time
	for _, d := range s.dispatches {
		intervals = append(intervals, [2]time.Time{d.start, d.end})
		h, ok := s.handled[d.id]
		if !ok {
			continue
		}
		handled = append(handled, float64(h.Microseconds())/1e3)
		overhead = append(overhead, float64(d.end.Sub(d.start).Microseconds()-h.Microseconds())/1e3)
	}
	rep.set("serve.handle_ms_p50", median(handled))
	rep.set("coord.overhead_ms_p50", median(overhead))
	rep.set("coord.self_s", traced.wall-union(intervals).Seconds())
	rep.set("host_s", (base.wall+after.wall)/2)

	c := base.coordAfter
	rep.set("coord.dispatches", base.coordBefore[dispatchedMetric])
	rep.set("coord.warm_dispatches", c[dispatchedMetric]-base.coordBefore[dispatchedMetric])
	served := c["affinity_coord_cells_deduped_total"] + c["affinity_coord_journal_resume_hits_total"]
	if total := served + c[dispatchedMetric]; total > 0 {
		rep.set("coord.memo_hit_ratio", served/total)
	}
	rep.set("coord.journal_appends", c["affinity_coord_journal_appends_total"])
	var hits, lookups float64
	for _, w := range base.workers {
		hits += w["affinity_cache_hits_total"] + w["affinity_cache_coalesced_total"] + w["affinity_cache_disk_hits_total"]
		lookups += w["affinity_cache_hits_total"] + w["affinity_cache_coalesced_total"] + w["affinity_cache_misses_total"]
	}
	if lookups > 0 {
		rep.set("serve.cache_hit_ratio", hits/lookups)
	}

	rep.set("runtime.alloc_mb", base.allocMB)
	rep.set("runtime.gc_cycles", float64(base.gcCycles))
	warm := append(base.warmMs, after.warmMs...)
	rep.set("warm_sweep_p50_ms", median(warm))
	pct, tail := tailPercentile(warm)
	rep.set("warm_sweep_tail_ms", tail)
	rep.set("trace_overhead_frac", 2*traced.cpu/(base.cpu+after.cpu)-1)
	fmt.Printf("untraced passes: cpu %.3fs, %.3fs; traced pass: cold host %.3fs cpu %.3fs; warm p%g %.2fms over %d repeats\n",
		base.cpu, after.cpu, traced.wall, traced.cpu, pct, tail, len(warm))
	return microTimings(rep)
}

// tailPercentile returns the highest of a few standard percentiles that
// still has at least ten samples above it, and its value.
func tailPercentile(xs []float64) (pct, value float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		i := int(math.Ceil(p/100*float64(len(s)))) - 1
		if i < 0 || i >= len(s) {
			continue
		}
		if beyond := len(s) - sort.SearchFloat64s(s, math.Nextafter(s[i], math.Inf(1))); beyond >= 10 {
			return p, s[i]
		}
	}
	return 50, median(s)
}

// union is the total length of the time covered by the intervals.
func union(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(cur[1]) {
			if i > 0 {
				total += cur[1].Sub(cur[0])
			}
			cur = x
			continue
		}
		if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// spanHeader carries a dispatch's span id from the coordinator's
// transport to the worker handler that serves it.
const spanHeader = "X-Perfbench-Span"

// spanLog records the fleet's spans: each dispatch's round trip as the
// coordinator's transport sees it, and each worker handler's duration,
// joined by id.
type spanLog struct {
	next       atomic.Uint64
	mu         sync.Mutex
	handled    map[string]time.Duration
	dispatches []dispatchSpan
}

type dispatchSpan struct {
	id         string
	start, end time.Time
}

func (s *spanLog) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		s.mu.Lock()
		s.handled[id] = d
		s.mu.Unlock()
	})
}

func (s *spanLog) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path != "/v1/sweep" {
			return base.RoundTrip(req)
		}
		id := strconv.FormatUint(s.next.Add(1), 10)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, id)
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			s.dispatched(id, start)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { s.dispatched(id, start) }}
		return resp, nil
	})
}

func (s *spanLog) dispatched(id string, start time.Time) {
	end := time.Now()
	s.mu.Lock()
	s.dispatches = append(s.dispatches, dispatchSpan{id, start, end})
	s.mu.Unlock()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends a dispatch span when the coordinator closes the
// response body, after reading the worker's line.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
