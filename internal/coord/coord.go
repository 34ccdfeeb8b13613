// Package coord is the fleet coordinator: it accepts the same sweep
// requests as a single affinity-serve worker, expands them into
// fingerprinted cells through the worker's own grid expansion, and
// shards the cells across every registered worker — weighted by each
// worker's advertised concurrency, re-planned as workers join and
// leave. Results merge back into deterministic input order, so the
// fleet's NDJSON stream is byte-identical to one worker answering the
// same request alone.
//
// The byte-identity is structural, not re-encoded: each cell is
// dispatched as a single-cell /v1/sweep, whose one-line response is
// exactly the bytes a single-node sweep would emit for that cell, and
// the coordinator stores and merges those raw lines without ever
// decoding them.
//
// Robustness: per-cell timeout with retry on a different worker under
// capped exponential backoff, hedged duplicate dispatch for stragglers
// (first result wins, by fingerprint), eviction after consecutive
// missed heartbeats with automatic reassignment of in-flight cells,
// and a fleet-wide singleflight store keyed on cache.Fingerprint so
// identical cells — within one sweep or across clients — dispatch once.
package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/serve"
)

// Options configures a Coordinator. The zero value is serviceable.
type Options struct {
	// Workers seeds the registry with static worker base URLs; more can
	// join at runtime via POST /v1/register.
	Workers []string
	// Heartbeat is the /v1/ping probe interval. 0 selects 2s.
	Heartbeat time.Duration
	// EvictAfter is the consecutive missed heartbeats that evict a
	// worker. 0 selects 3.
	EvictAfter int
	// CellTimeout bounds one dispatch attempt of one cell. 0 selects
	// 5 minutes.
	CellTimeout time.Duration
	// Retries is how many times a failed cell is re-dispatched (on a
	// different worker when the fleet has one). 0 selects 4; negative
	// disables retry.
	Retries int
	// RetryBase and RetryCap shape the exponential backoff between
	// attempts. 0 selects 250ms and 5s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// HedgeAfter launches a duplicate dispatch for a cell still
	// unfinished after this long; the first result wins and the loser
	// is discarded by fingerprint. 0 selects 30s; negative disables.
	HedgeAfter time.Duration
	// MemoEntries bounds the raw-line result store (entries, not bytes —
	// one NDJSON line is a few KiB), and with it the journal's durable
	// set and the request→key index. 0 selects 65536; negative is an
	// error.
	MemoEntries int
	// JournalDir enables the durable cell journal under this directory:
	// every completed cacheable cell's raw line is journaled, and a
	// restarted coordinator serves the journaled cells still resident
	// in the store without dispatching them. Empty disables (sweep
	// progress dies with the process).
	JournalDir string
	// JournalSync is the journal's group-commit fsync interval. 0
	// selects 100ms.
	JournalSync time.Duration
	// BreakerThreshold consecutive dispatch failures open a worker's
	// circuit breaker. 0 selects 5; negative disables breakers.
	BreakerThreshold int
	// BreakerCooloff is how long an open breaker blocks dispatch before
	// admitting a half-open probe. 0 selects 10s.
	BreakerCooloff time.Duration
	// Version reported by /healthz; "" resolves from build info.
	Version string
	// Client performs worker HTTP requests; nil builds a default.
	Client *http.Client
}

// Coordinator shards sweeps across a worker fleet. Create with New,
// serve it like any http.Handler, Close when done.
type Coordinator struct {
	reg     *registry
	store   *store
	keys    *keyIndex
	metrics *cmetrics
	client  *http.Client
	version string

	heartbeat   time.Duration
	evictAfter  int
	cellTimeout time.Duration
	retries     int
	retryBase   time.Duration
	retryCap    time.Duration
	hedgeAfter  time.Duration

	mux    *http.ServeMux
	cancel context.CancelFunc
	done   chan struct{}
}

// New assembles a Coordinator and starts its heartbeat prober. It fails
// on a negative Options.MemoEntries or a journal (Options.JournalDir)
// that cannot be opened.
func New(opts Options) (*Coordinator, error) {
	breakerThreshold := opts.BreakerThreshold
	if breakerThreshold == 0 {
		breakerThreshold = 5
	} else if breakerThreshold < 0 {
		breakerThreshold = 0
	}
	breakerCooloff := opts.BreakerCooloff
	if breakerCooloff <= 0 {
		breakerCooloff = 10 * time.Second
	}
	c := &Coordinator{
		reg:         newRegistry(breakerThreshold, breakerCooloff),
		client:      opts.Client,
		version:     opts.Version,
		heartbeat:   opts.Heartbeat,
		evictAfter:  opts.EvictAfter,
		cellTimeout: opts.CellTimeout,
		retries:     opts.Retries,
		retryBase:   opts.RetryBase,
		retryCap:    opts.RetryCap,
		hedgeAfter:  opts.HedgeAfter,
		mux:         http.NewServeMux(),
		done:        make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.version == "" {
		c.version = buildinfo.Version()
	}
	if c.heartbeat <= 0 {
		c.heartbeat = 2 * time.Second
	}
	if c.evictAfter <= 0 {
		c.evictAfter = 3
	}
	if c.cellTimeout <= 0 {
		c.cellTimeout = 5 * time.Minute
	}
	if c.retries == 0 {
		c.retries = 4
	} else if c.retries < 0 {
		c.retries = 0
	}
	if c.retryBase <= 0 {
		c.retryBase = 250 * time.Millisecond
	}
	if c.retryCap <= 0 {
		c.retryCap = 5 * time.Second
	}
	if c.hedgeAfter == 0 {
		c.hedgeAfter = 30 * time.Second
	}
	entries := opts.MemoEntries
	if entries == 0 {
		entries = 65536
	} else if entries < 0 {
		return nil, fmt.Errorf("coord: MemoEntries must not be negative, got %d", entries)
	}
	var journal *Journal
	if opts.JournalDir != "" {
		j, err := OpenJournal(opts.JournalDir, opts.JournalSync)
		if err != nil {
			return nil, err
		}
		journal = j
	}
	c.store = newStore(entries, journal)
	c.keys = newKeyIndex(entries)
	c.metrics = newCMetrics(c)
	for _, u := range opts.Workers {
		c.reg.upsert(strings.TrimRight(u, "/"), "", 0)
	}

	c.mux.HandleFunc("POST /v1/register", c.instrument("/v1/register", c.handleRegister))
	c.mux.HandleFunc("POST /v1/sweep", c.instrument("/v1/sweep", c.handleSweep))
	c.mux.HandleFunc("POST /v1/run", c.instrument("/v1/run", c.handleRun))
	c.mux.HandleFunc("GET /healthz", c.instrument("/healthz", c.handleHealthz))
	c.mux.HandleFunc("GET /metrics", c.instrument("/metrics", c.metrics.ServeHTTP))

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	go c.probeLoop(ctx)
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Close stops the heartbeat prober and closes the journal (final wal
// sync, no checkpoint — the wal replays on the next open). In-flight
// requests finish on their own contexts.
func (c *Coordinator) Close() {
	c.cancel()
	<-c.done
	c.store.journal.Close()
}

// Shutdown is the graceful-drain Close: it checkpoints the journal —
// compacting wal into the atomic checkpoint file — before closing it, so
// a restarted coordinator replays one clean file. Call after the HTTP
// server has drained; journaling from still-running handlers after
// Shutdown is a silent no-op.
func (c *Coordinator) Shutdown() error {
	c.cancel()
	<-c.done
	err := c.store.checkpoint()
	if cerr := c.store.journal.Close(); err == nil {
		err = cerr
	}
	return err
}

// probeLoop pings every registered worker each heartbeat interval,
// evicting after consecutive misses and readmitting on recovery.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.done)
	tick := time.NewTicker(c.heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for _, u := range c.reg.urls() {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				c.probe(ctx, u)
			}(u)
		}
		wg.Wait()
	}
}

// probe performs one heartbeat against one worker.
func (c *Coordinator) probe(ctx context.Context, workerURL string) {
	pctx, cancel := context.WithTimeout(ctx, c.heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, workerURL+"/v1/ping", nil)
	if err != nil {
		c.reg.heartbeatMiss(workerURL, c.evictAfter)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if c.reg.heartbeatMiss(workerURL, c.evictAfter) {
			c.metrics.evictions.Add(1)
		}
		return
	}
	defer resp.Body.Close()
	var p serve.PingResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&p) != nil {
		if c.reg.heartbeatMiss(workerURL, c.evictAfter) {
			c.metrics.evictions.Add(1)
		}
		return
	}
	c.reg.heartbeatOK(workerURL, p)
}

// instrument wraps a handler with latency/status accounting and panic
// recovery, mirroring the worker middleware.
func (c *Coordinator) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &serve.StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				sw.Code = http.StatusInternalServerError
				if !sw.Wrote {
					serve.HTTPError(w, http.StatusInternalServerError, "internal error: %v", v)
				}
			}
			c.metrics.requests.Inc(path, strconv.Itoa(sw.Code))
		}()
		h(sw, r)
	}
}

// RegisterRequest is the JSON body of POST /v1/register: a worker
// announcing itself (or refreshing its registration — the call is
// idempotent and workers re-announce on an interval).
type RegisterRequest struct {
	// URL is the worker's base URL as the coordinator should reach it.
	URL string `json:"url"`
	// Version is the worker's build version, for mixed-fleet detection.
	Version string `json:"version"`
	// Concurrency is the worker's request limit — the coordinator never
	// holds more than this many cells in flight against it.
	Concurrency int `json:"concurrency"`
}

// RegisterResponse is the JSON body answering /v1/register.
type RegisterResponse struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var rq RegisterRequest
	if !serve.Decode(w, r, &rq) {
		return
	}
	u, err := url.Parse(rq.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		serve.HTTPError(w, http.StatusBadRequest, "url: need an absolute http(s) base URL, got %q", rq.URL)
		return
	}
	if c.reg.upsert(strings.TrimRight(rq.URL, "/"), rq.Version, rq.Concurrency) {
		c.metrics.registrations.Add(1)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(RegisterResponse{Status: "registered", Workers: len(c.reg.urls())})
}

// handleSweep expands the grid exactly as a worker would and streams
// the merged fleet results in the same deterministic order.
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq serve.SweepRequest
	if !serve.Decode(w, r, &rq) {
		return
	}
	cells, err := rq.Expand()
	if err != nil {
		serve.BadRequest(w, err)
		return
	}

	// A resident cell is answered here, from the store, under the key
	// the index holds for it. Every other cell dispatches concurrently,
	// handed its key (backpressure comes from the fleet's slot plan, not
	// from goroutine count); the stream emits in input order as prefixes
	// complete — the same overlap-compute-with-delivery shape as the
	// worker's own sweep handler.
	ctx := r.Context()
	lines := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	ready := make([]chan struct{}, len(cells)) // nil: lines[i] is resident
	for i := range cells {
		key := c.keys.key(cells[i])
		if key != "" {
			if line, from, ok := c.store.get(key); ok {
				c.countHit(from)
				lines[i] = line
				continue
			}
		}
		ready[i] = make(chan struct{})
		go func(i int) {
			defer close(ready[i])
			lines[i], errs[i] = c.cell(ctx, cells[i], key)
		}(i)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	unflushed := false
	for i := range cells {
		if ready[i] != nil {
			select {
			case <-ready[i]:
			default:
				// About to wait: push the lines so far to the client first,
				// so a cold sweep streams while a warm one is one write.
				if unflushed && flusher != nil {
					flusher.Flush()
					unflushed = false
				}
				select {
				case <-ready[i]:
				case <-ctx.Done():
					return
				}
			}
		}
		if errs[i] != nil {
			// Truncate, like a worker does for a failed cell: the short
			// stream is the failure signal.
			return
		}
		// Two writes, not append: the line is shared with the store and
		// with concurrent requests, and may have spare capacity.
		if _, err := w.Write(lines[i]); err != nil {
			return
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return
		}
		unflushed = true
	}
}

// handleRun serves one cell through the fleet. The response is the
// dispatched cell's raw sweep line re-indented — json.Indent preserves
// key order and escaping, so the body is byte-identical to a worker's
// own /v1/run answer.
func (c *Coordinator) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq serve.RunRequest
	if !serve.Decode(w, r, &rq) {
		return
	}
	cfg, err := rq.Config()
	if err != nil {
		serve.BadRequest(w, err)
		return
	}
	swq := serve.SweepRequest{
		RunRequest: rq,
		Sizes:      []int{cfg.Size},
		Modes:      []string{serve.ModeToken(cfg.Mode)},
	}
	cells, err := swq.Expand()
	if err != nil || len(cells) != 1 {
		serve.HTTPError(w, http.StatusInternalServerError, "single-cell expansion failed: %v", err)
		return
	}
	line, err := c.cell(r.Context(), cells[0], c.keys.key(cells[0]))
	if err != nil {
		serve.HTTPError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, line, "", "  "); err != nil {
		serve.HTTPError(w, http.StatusInternalServerError, "re-indenting result: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	buf.WriteByte('\n')
	w.Write(buf.Bytes())
}

// FleetHealth is the fleet-wide aggregate in the coordinator /healthz:
// worker counters summed so a fleet reads like one big node.
type FleetHealth struct {
	Sims   uint64             `json:"sims_total"`
	Engine serve.EngineHealth `json:"engine"`
}

// CellCounters snapshots the dispatch accounting.
type CellCounters struct {
	Dispatched      uint64 `json:"dispatched"`
	Retried         uint64 `json:"retried"`
	Hedged          uint64 `json:"hedged"`
	HedgeDuplicates uint64 `json:"hedge_duplicates_discarded"`
	Deduped         uint64 `json:"deduped"`
	ResumeHits      uint64 `json:"resume_hits"`
	Failed          uint64 `json:"failed"`
}

// HealthResponse is the JSON body of the coordinator's GET /healthz.
// MixedVersions flags a fleet whose workers disagree on build version —
// their caches key results differently and figure outputs may diverge,
// so deploys should converge the fleet before trusting merged sweeps.
type HealthResponse struct {
	Status         string         `json:"status"`
	Version        string         `json:"version"`
	WorkersHealthy int            `json:"workers_healthy"`
	WorkersTotal   int            `json:"workers_total"`
	MixedVersions  bool           `json:"mixed_versions"`
	Cells          CellCounters   `json:"cells"`
	MemoEntries    int            `json:"memo_entries"`
	Journal        JournalStats   `json:"journal"`
	Fleet          FleetHealth    `json:"fleet"`
	WorkerTable    []WorkerStatus `json:"workers"`
}

func (c *Coordinator) health() HealthResponse {
	table := c.reg.snapshot()
	h := HealthResponse{
		Status:       "ok",
		Version:      c.version,
		WorkersTotal: len(table),
		Cells: CellCounters{
			Dispatched:      c.metrics.dispatched.Load(),
			Retried:         c.metrics.retried.Load(),
			Hedged:          c.metrics.hedged.Load(),
			HedgeDuplicates: c.metrics.hedgeDuplicates.Load(),
			Deduped:         c.metrics.deduped.Load(),
			ResumeHits:      c.metrics.resumeHits.Load(),
			Failed:          c.metrics.failed.Load(),
		},
		MemoEntries: c.store.len(),
		Journal:     c.store.journalStats(),
		WorkerTable: table,
	}
	versions := make(map[string]bool)
	var band float64
	for _, ws := range table {
		if ws.Healthy {
			h.WorkersHealthy++
		}
		if ws.Version != "" {
			versions[ws.Version] = true
		}
		h.Fleet.Sims += ws.Sims
		e := ws.Engine
		h.Fleet.Engine.Runs += e.Runs
		h.Fleet.Engine.EventsScheduled += e.EventsScheduled
		h.Fleet.Engine.EventsFired += e.EventsFired
		h.Fleet.Engine.EventsCancelled += e.EventsCancelled
		h.Fleet.Engine.Compactions += e.Compactions
		if e.MaxPeakPending > h.Fleet.Engine.MaxPeakPending {
			h.Fleet.Engine.MaxPeakPending = e.MaxPeakPending
		}
		band += e.BandShare * float64(e.EventsScheduled)
	}
	if h.Fleet.Engine.EventsScheduled > 0 {
		h.Fleet.Engine.BandShare = band / float64(h.Fleet.Engine.EventsScheduled)
	}
	h.MixedVersions = len(versions) > 1
	if h.WorkersHealthy == 0 {
		h.Status = "no workers"
	}
	return h
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.health())
}

// cellKey is a cell's store key: its cache.Fingerprint, or "" for a
// cell whose result carries per-run artifacts and must always dispatch.
func cellKey(cfg core.Config) string {
	if !cache.Cacheable(cfg) {
		return ""
	}
	return fingerprint(cfg)
}

// fingerprint is the key function cellKey applies; tests wrap it to
// count the keys a request computes.
var fingerprint = cache.Fingerprint

// keyIndex maps an expanded cell's single-cell request to its cellKey,
// so each distinct cell is keyed once per coordinator, not once per
// request naming it. The key is a pure function of that request:
// RunRequest.Config reads no file (it refuses "@file" specs), the
// coordinator applies no operator defaults, and the request a cell
// forwards resolves on a worker to the key it is stored under
// (FuzzSweepExpand). The index is bounded like the store and cleared
// when full; a cleared entry only costs one recomputation.
type keyIndex struct {
	mu   sync.Mutex
	max  int
	keys map[serve.RunRequest]string
}

func newKeyIndex(maxEntries int) *keyIndex {
	return &keyIndex{max: maxEntries, keys: make(map[serve.RunRequest]string)}
}

// key returns cell's cellKey, computing it outside the lock on a miss.
func (x *keyIndex) key(cell serve.SweepCell) string {
	x.mu.Lock()
	key, ok := x.keys[cell.Req]
	x.mu.Unlock()
	if ok {
		return key
	}
	key = cellKey(cell.Cfg)
	x.mu.Lock()
	if len(x.keys) >= x.max {
		clear(x.keys)
	}
	x.keys[cell.Req] = key
	x.mu.Unlock()
	return key
}

// cell produces the raw NDJSON line for one cell under its cellKey
// through the store: a resident line (replayed from the journal, or
// completed earlier in this process), a shared in-flight dispatch, or a
// dispatch of its own. A cell with no key always dispatches.
func (c *Coordinator) cell(ctx context.Context, cell serve.SweepCell, key string) ([]byte, error) {
	if key == "" {
		return c.dispatchCell(ctx, cell)
	}
	line, from, err := c.store.getOrDo(ctx, key, func() ([]byte, error) {
		return c.dispatchCell(ctx, cell)
	})
	c.countHit(from)
	return line, err
}

// countHit counts a cell the store answered without this caller
// dispatching it.
func (c *Coordinator) countHit(from origin) {
	switch from {
	case resumed:
		c.metrics.resumeHits.Add(1)
	case deduped:
		c.metrics.deduped.Add(1)
	}
}
