// Package serve exposes the simulator as a stateless HTTP JSON API in
// front of the cached, parallel core.Runner dataplane — the control/data
// split of fine-grained dataplane systems (FlexTOE, NSDI 2022) applied
// to simulation serving. Endpoints:
//
//	POST /v1/run     one simulation cell -> Result JSON
//	POST /v1/sweep   a modes × sizes grid -> NDJSON stream, one cell per line
//	GET  /v1/verify  the reproduction scorecard (EXPERIMENTS.md, executable)
//	GET  /healthz    liveness + build version + cache stats
//	GET  /metrics    Prometheus text exposition
//
// Every simulation is a pure function of its Config, so responses are
// deterministic: a cached cell is byte-identical to a freshly simulated
// one. Concurrency is bounded by a request limiter on top of the
// runner's worker pool; identical concurrent requests collapse to one
// simulation via the cache's singleflight.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/netdev"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/topo"
	"repro/internal/ttcp"
	"repro/internal/workload"
)

// Options configures a Server. The zero value is serviceable: default
// runner, a DefaultMaxBytes in-memory cache, 2×workers request slots,
// 5-minute request timeout.
type Options struct {
	// Runner executes sweep cells; nil selects a default-pool runner.
	Runner *core.Runner
	// Cache memoizes results; nil builds a DefaultMaxBytes in-memory
	// cache (set AFFINITY_CACHE_DIR handling up in the caller and pass
	// the cache in to persist across restarts).
	Cache *cache.Cache
	// Run executes one cell beneath the cache, stopping early once ctx
	// is done; nil selects core.RunControlled under MaxSimCycles. Tests
	// substitute stubs here.
	Run func(ctx context.Context, cfg core.Config) *core.Result
	// MaxInflight bounds requests doing simulation work concurrently;
	// further requests wait, and time out with 503 if no slot frees
	// within the request timeout. 0 selects 2× the runner's workers.
	MaxInflight int
	// Timeout bounds each request end to end. 0 selects 5 minutes.
	Timeout time.Duration
	// Version reported by /healthz and /metrics; "" resolves from build
	// info.
	Version string
	// DefaultWorkload is the workload for requests that leave
	// "workload" empty; nil keeps the bulk default. The operator parses
	// it once with workload.Parse, which also reads the operator-only
	// "@file.json" form, and every such request shares it.
	DefaultWorkload *workload.Spec
	// DefaultCoalesce is the coalescing model for requests that leave
	// "coalesce" empty; nil keeps the legacy throttle. It is parsed once
	// with netdev.ParseCoalesce, like DefaultWorkload.
	DefaultCoalesce *netdev.CoalesceConfig
	// SimBudget is the wall-clock watchdog per simulation: a cell still
	// running after this long is cooperatively cancelled and reported
	// aborted, freeing its limiter slot instead of hanging it. 0 leaves
	// only the request timeout (whose expiry also cancels the cell).
	SimBudget time.Duration
	// MaxSimCycles caps one simulation's virtual clock: a cell that
	// would advance past this many cycles aborts instead. 0 = uncapped.
	MaxSimCycles uint64
}

// Server is the HTTP face of the simulator.
type Server struct {
	runner *core.Runner
	cache  *cache.Cache
	// simulate executes one cell beneath the cache (Options.Run).
	simulate func(context.Context, core.Config) *core.Result
	sem      chan struct{}
	timeout  time.Duration
	version  string
	// defaultWorkload/defaultCoalesce are the operator's defaults for
	// requests that leave workload or coalesce empty (withDefaults).
	defaultWorkload *workload.Spec
	defaultCoalesce *netdev.CoalesceConfig
	metrics         *workerMetrics
	engines         engineAgg
	simBudget       time.Duration
	// waiting counts requests blocked on a limiter slot — the queue
	// depth a coordinator's load-aware planner weighs against.
	waiting atomic.Int64
	// sweepCancelled counts sweep cells skipped because their NDJSON
	// stream was abandoned before they were dispatched.
	sweepCancelled atomic.Uint64
	// simsCancelled counts simulations cooperatively cancelled mid-run
	// (timed-out or client-abandoned requests); budgetAborts counts runs
	// the wall-clock or cycle budget watchdog stopped.
	simsCancelled atomic.Uint64
	budgetAborts  atomic.Uint64
	mux           *http.ServeMux
}

// engineAgg accumulates scheduler counters across every result the
// server has produced (cached replays included — their stats are the
// ones the original run recorded). Worker goroutines write concurrently,
// hence the atomics.
type engineAgg struct {
	runs        atomic.Uint64
	scheduled   atomic.Uint64
	fired       atomic.Uint64
	band        atomic.Uint64
	peakPending atomic.Int64 // max over runs
}

func (a *engineAgg) add(s sim.Stats) {
	a.runs.Add(1)
	a.scheduled.Add(s.Scheduled)
	a.fired.Add(s.Fired)
	a.band.Add(s.BandScheduled)
	for {
		cur := a.peakPending.Load()
		if int64(s.PeakPending) <= cur || a.peakPending.CompareAndSwap(cur, int64(s.PeakPending)) {
			return
		}
	}
}

// EngineHealth is the scheduler aggregate reported by /healthz.
type EngineHealth struct {
	Runs            uint64  `json:"runs"`
	EventsScheduled uint64  `json:"events_scheduled"`
	EventsFired     uint64  `json:"events_fired"`
	MaxPeakPending  int64   `json:"max_peak_pending"`
	BandShare       float64 `json:"band_share"`
}

func (a *engineAgg) snapshot() EngineHealth {
	h := EngineHealth{
		Runs:            a.runs.Load(),
		EventsScheduled: a.scheduled.Load(),
		EventsFired:     a.fired.Load(),
		MaxPeakPending:  a.peakPending.Load(),
	}
	if h.EventsScheduled > 0 {
		h.BandShare = float64(a.band.Load()) / float64(h.EventsScheduled)
	}
	return h
}

// New assembles a Server.
func New(opts Options) *Server {
	s := &Server{
		runner:          opts.Runner,
		cache:           opts.Cache,
		simulate:        opts.Run,
		timeout:         opts.Timeout,
		version:         opts.Version,
		defaultWorkload: opts.DefaultWorkload,
		defaultCoalesce: opts.DefaultCoalesce,
		simBudget:       opts.SimBudget,
		mux:             http.NewServeMux(),
	}
	if s.runner == nil {
		s.runner = core.NewRunner(0)
	}
	if s.cache == nil {
		s.cache = cache.New(cache.DefaultMaxBytes, "")
	}
	if s.simulate == nil {
		maxSimCycles := opts.MaxSimCycles
		s.simulate = func(ctx context.Context, cfg core.Config) *core.Result {
			return core.RunControlled(ctx, cfg, maxSimCycles)
		}
	}
	if s.timeout <= 0 {
		s.timeout = 5 * time.Minute
	}
	if s.version == "" {
		s.version = buildinfo.Version()
	}
	inflight := opts.MaxInflight
	if inflight <= 0 {
		inflight = 2 * s.runner.Workers()
	}
	s.sem = make(chan struct{}, inflight)
	s.metrics = newMetrics(s)

	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.handleRun))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.handleSweep))
	s.mux.HandleFunc("GET /v1/verify", s.instrument("/v1/verify", s.handleVerify))
	s.mux.HandleFunc("GET /v1/ping", s.instrument("/v1/ping", s.handlePing))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.metrics.ServeHTTP))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Cache returns the server's result cache (for stats in callers).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Limit reports the request concurrency limit — the per-worker capacity
// this node advertises to a coordinator.
func (s *Server) Limit() int { return cap(s.sem) }

// StatusWriter captures the status code (for metrics) and whether any
// response bytes went out (so panic recovery knows if a 500 can still
// be written). The worker's and the coordinator's middleware share it.
type StatusWriter struct {
	http.ResponseWriter
	Code  int
	Wrote bool
}

func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.Wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusWriter) Write(b []byte) (int, error) {
	w.Wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *StatusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with latency/status accounting, the
// per-request timeout, and panic recovery: a handler (or simulator)
// panic becomes one failed request — a 500 if the response has not
// started, a dropped connection if it has — and a tick of
// affinity_panics_total, never a dead server process.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		sw := &StatusWriter{ResponseWriter: w, Code: http.StatusOK}
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panics.Inc(path)
				sw.Code = http.StatusInternalServerError
				if !sw.Wrote {
					HTTPError(w, http.StatusInternalServerError, "internal error: %v", v)
				}
			}
			s.metrics.requests.Inc(path, strconv.Itoa(sw.Code))
			s.metrics.latency.Observe(time.Since(start).Seconds())
		}()
		h(sw, r.WithContext(ctx))
	}
}

// acquire takes a concurrency-limiter slot, or fails with 503 when none
// frees before the request deadline. The returned release func is nil on
// failure.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) func() {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	default:
	}
	s.waiting.Add(1)
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }
	case <-r.Context().Done():
		w.Header().Set("Retry-After", "1")
		HTTPError(w, http.StatusServiceUnavailable, "simulation capacity saturated")
		return nil
	}
}

// HTTPError answers code with a JSON body {"error": message}.
func HTTPError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// fieldErrf is a request-validation failure attributable to one JSON
// field; BadRequest surfaces the field name in the error body so
// clients can map the 400 back to their input.
func fieldErrf(field, format string, args ...any) error {
	return &core.FieldError{Field: field, Err: fmt.Errorf(format, args...)}
}

// BadRequest renders a validation error from Config or Expand as a
// 400. Field-attributable failures (*core.FieldError) carry a "field"
// key alongside "error".
func BadRequest(w http.ResponseWriter, err error) {
	var fe *core.FieldError
	if !errors.As(err, &fe) {
		HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{
		"error": fe.Error(),
		"field": fe.Field,
	})
}

// runCell is how every handler executes a cell: through the cache,
// under the request context narrowed by the wall-clock sim budget, with
// the cycle cap applied beneath (Options.Run). The engine polls the
// context at ladder-bucket boundaries, so a cell that aborts frees its
// limiter slot within a few events instead of simulating into a closed
// connection. Aborted results are counted here (cancellations vs budget
// aborts) and returned for the caller to translate into its failure
// shape; a simulator panic becomes an error and a tick of
// affinity_panics_total instead of a dead worker goroutine.
func (s *Server) runCell(ctx context.Context, path string, cfg core.Config) (o cellResult) {
	simCtx := ctx
	if s.simBudget > 0 {
		var cancel context.CancelFunc
		simCtx, cancel = context.WithTimeout(ctx, s.simBudget)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panics.Inc(path)
			o = cellResult{err: fmt.Errorf("simulation panicked: %v", v)}
		}
	}()
	res := s.cache.GetOrRun(cfg, func(c core.Config) *core.Result { return s.simulate(simCtx, c) })
	switch {
	case res == nil:
	case !res.Aborted:
		s.engines.add(res.Engine)
	case ctx.Err() != nil && res.AbortReason == core.AbortCancelled:
		s.simsCancelled.Add(1)
	default:
		s.budgetAborts.Add(1)
	}
	return cellResult{res: res}
}

// cellResult is one cell's outcome: a result (which may be aborted) or
// the error of a simulator panic.
type cellResult struct {
	res *core.Result
	err error
}

// ok reports whether the cell completed.
func (o cellResult) ok() bool { return o.err == nil && o.res != nil && !o.res.Aborted }

// answerFailure answers a cell that did not complete: 500 for a panic,
// 503 for an abort.
func (o cellResult) answerFailure(w http.ResponseWriter) {
	if o.err != nil {
		HTTPError(w, http.StatusInternalServerError, "%v", o.err)
		return
	}
	HTTPError(w, http.StatusServiceUnavailable, "simulation aborted: %s", abortReason(o.res))
}

// RunRequest is the JSON body of POST /v1/run and the base of /v1/sweep.
// Zero values select the paper's defaults. Mode, direction and policy
// accept exactly the CLI's spellings (core.ParseMode and friends).
type RunRequest struct {
	Mode string `json:"mode"` // none|proc|irq|full|partition (default none)
	Dir  string `json:"dir"`  // tx|rx (default tx)
	Size int    `json:"size"` // transaction bytes (default 65536)
	Seed uint64 `json:"seed"` // default 1

	// Machine shape; defaults are the paper's 2P × 8 single-queue NICs.
	CPUs   int `json:"cpus"`
	NICs   int `json:"nics"`
	Queues int `json:"queues"`
	Conns  int `json:"conns"`

	// Policy overrides the placement implied by Mode
	// (none|process|irq|full|partition|rotate|rss).
	Policy string `json:"policy"`

	WarmupCycles  uint64 `json:"warmup_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`
	// Quick selects the figure generator's -quick windows when explicit
	// cycles are not given.
	Quick bool `json:"quick"`

	// Faults, Workload and Coalesce are inline specs in the one
	// internal/spec grammar, resolved by core.Config.ApplySpecs.
	//
	// Faults is a fault schedule (fault.Parse, e.g.
	// "flap,nic=0,from=1e9,until=1.5e9;loss,rate=0.01"), validated
	// against the machine shape and run horizon. Empty means the clean
	// baseline.
	Faults string `json:"faults"`

	// Workload is a workload spec (workload.Parse, e.g.
	// "openloop,conns=100000,arrival=pareto" or "rpc,mix=web"). Empty
	// means the paper's bulk ttcp workload (or the server's configured
	// default).
	Workload string `json:"workload"`

	// Coalesce is an interrupt-coalescing spec (netdev.ParseCoalesce,
	// e.g. "timer,usecs=100" or "adaptive,min=5,max=250"). Empty means
	// the legacy fixed throttle (or the server's configured default).
	Coalesce string `json:"coalesce"`
}

// Config resolves the request into a validated core.Config — the same
// resolution every server applies, exported so a coordinator sharing
// this build fingerprints a cell exactly as the worker that simulates
// it will.
func (rq RunRequest) Config() (core.Config, error) {
	// A leading "@" makes the spec parsers read a file on this host:
	// operator-only (flags), so a request body's is refused before any
	// parser runs.
	for _, f := range []struct{ name, text string }{
		{"faults", rq.Faults}, {"workload", rq.Workload}, {"coalesce", rq.Coalesce},
	} {
		if spec.IsFile(f.text) {
			return core.Config{}, fieldErrf(f.name, "@file specs are not accepted in requests")
		}
	}
	mode := core.ModeNone
	if rq.Mode != "" {
		m, err := core.ParseMode(rq.Mode)
		if err != nil {
			return core.Config{}, &core.FieldError{Field: "mode", Err: err}
		}
		mode = m
	}
	dir := ttcp.TX
	if rq.Dir != "" {
		d, err := core.ParseDirection(rq.Dir)
		if err != nil {
			return core.Config{}, &core.FieldError{Field: "dir", Err: err}
		}
		dir = d
	}
	size := rq.Size
	if size == 0 {
		size = 65536
	}
	if size < 0 {
		return core.Config{}, fieldErrf("size", "must be positive, got %d", size)
	}
	cfg := core.DefaultConfig(mode, dir, size)
	if rq.Seed != 0 {
		cfg.Seed = rq.Seed
	}
	if rq.Quick {
		cfg.SetQuickWindows()
	}
	if rq.WarmupCycles != 0 {
		cfg.WarmupCycles = rq.WarmupCycles
	}
	if rq.MeasureCycles != 0 {
		cfg.MeasureCycles = rq.MeasureCycles
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"cpus", rq.CPUs}, {"nics", rq.NICs}, {"queues", rq.Queues}} {
		if f.v < 0 {
			return core.Config{}, fieldErrf(f.name, "must be positive, got %d", f.v)
		}
	}
	if err := topo.CheckNICs(rq.NICs); err != nil {
		return core.Config{}, &core.FieldError{Field: "nics", Err: err}
	}
	cfg.Topology = topo.Uniform(cmp.Or(rq.CPUs, 2), cmp.Or(rq.NICs, 8), cmp.Or(rq.Queues, 1))
	cfg.Topology.Conns = rq.Conns
	if rq.Policy != "" {
		pol, err := core.ParsePolicy(rq.Policy)
		if err != nil {
			return core.Config{}, &core.FieldError{Field: "policy", Err: err}
		}
		cfg.Policy = pol
	}
	// Shape gate: impossible topologies surface here as 400s, not as
	// mid-simulation panics.
	if _, err := core.PlanFor(cfg); err != nil {
		return core.Config{}, fmt.Errorf("impossible shape: %w", err)
	}
	if err := cfg.ApplySpecs(rq.Faults, rq.Workload, rq.Coalesce); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Decode reads a strict JSON body (unknown fields are client errors),
// answering a 400 and returning false when it does not parse.
func Decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		HTTPError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// handleRun simulates (or serves from cache) one cell.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var rq RunRequest
	if !Decode(w, r, &rq) {
		return
	}
	cfg, err := rq.Config()
	if err != nil {
		BadRequest(w, err)
		return
	}
	s.withDefaults(rq, &cfg)
	release := s.acquire(w, r)
	if release == nil {
		return
	}
	done := make(chan cellResult, 1)
	go func() {
		defer release()
		done <- s.runCell(r.Context(), "/v1/run", cfg)
	}()
	select {
	case o := <-done:
		if !o.ok() {
			o.answerFailure(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		out, err := o.res.JSON()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, "encoding result: %v", err)
			return
		}
		fmt.Fprintln(w, out)
	case <-r.Context().Done():
		// The same context bounds the simulation: it aborts at its next
		// engine poll and frees its slot — nothing keeps burning cycles
		// behind this 503.
		HTTPError(w, http.StatusServiceUnavailable, "request timed out; simulation cancelled")
	}
}

func abortReason(res *core.Result) string {
	if res == nil || res.AbortReason == "" {
		return "aborted"
	}
	return res.AbortReason
}

// withDefaults fills the operator's default workload and coalescing
// model into cfg where its request left them empty. They apply here,
// outside RunRequest.Config, because a coordinator resolves requests
// with that method too and must key a cell from its request alone.
func (s *Server) withDefaults(rq RunRequest, cfg *core.Config) {
	if rq.Workload == "" && s.defaultWorkload != nil {
		cfg.Workload = s.defaultWorkload
	}
	if rq.Coalesce == "" && s.defaultCoalesce != nil {
		cfg.Coalesce = s.defaultCoalesce
	}
}

// SweepRequest is the JSON body of POST /v1/sweep: a base cell plus the
// grid axes. Results stream back as NDJSON, one ResultExport per line,
// in deterministic sizes-outer/modes-inner order (the figure order).
type SweepRequest struct {
	RunRequest
	Sizes []int    `json:"sizes"` // default: the paper's seven sizes
	Modes []string `json:"modes"` // default: the paper's four modes
}

// SweepCell is one expanded cell of a sweep grid: the resolved Config
// the cell simulates, plus an equivalent single-cell RunRequest that
// re-resolves to the same Config on any server sharing this build —
// the form a coordinator forwards to workers.
type SweepCell struct {
	Req RunRequest
	Cfg core.Config
}

// Expand resolves the grid into its deterministic cell list (sizes
// outer, modes inner — the figure order). Every sweep path — this
// server's handler, the coordinator's shard planner — expands through
// here, which is what makes a fleet merge byte-identical to a
// single-node stream of the same request.
func (rq SweepRequest) Expand() ([]SweepCell, error) {
	base, err := rq.Config()
	if err != nil {
		return nil, err
	}
	type modeCell struct {
		name string
		mode core.Mode
	}
	var modes []modeCell
	if len(rq.Modes) > 0 {
		for _, ms := range rq.Modes {
			m, err := core.ParseMode(ms)
			if err != nil {
				return nil, &core.FieldError{Field: "modes", Err: err}
			}
			modes = append(modes, modeCell{ms, m})
		}
	} else {
		for _, m := range core.Modes() {
			modes = append(modes, modeCell{ModeToken(m), m})
		}
	}
	sizes := rq.Sizes
	if len(sizes) == 0 {
		sizes = append([]int(nil), core.Sizes...)
	}
	cells := make([]SweepCell, 0, len(sizes)*len(modes))
	for _, size := range sizes {
		if size <= 0 {
			return nil, fieldErrf("sizes", "size must be positive, got %d", size)
		}
		for _, mc := range modes {
			cfg := base
			cfg.Mode = mc.mode
			cfg.Size = size
			req := rq.RunRequest
			req.Mode = mc.name
			req.Size = size
			cells = append(cells, SweepCell{Req: req, Cfg: cfg})
		}
	}
	return cells, nil
}

// ModeToken maps a Mode to a canonical spelling core.ParseMode accepts
// — the inverse the coordinator needs to forward a defaulted grid.
func ModeToken(m core.Mode) string {
	switch m {
	case core.ModeProc:
		return "proc"
	case core.ModeIRQ:
		return "irq"
	case core.ModeFull:
		return "full"
	case core.ModePartition:
		return "partition"
	default:
		return "none"
	}
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var rq SweepRequest
	if !Decode(w, r, &rq) {
		return
	}
	cells, err := rq.Expand()
	if err != nil {
		BadRequest(w, err)
		return
	}
	for i := range cells {
		s.withDefaults(rq.RunRequest, &cells[i].Cfg)
	}
	release := s.acquire(w, r)
	if release == nil {
		return
	}

	// Fan the grid across the worker pool; stream each cell as soon as
	// it and all its predecessors are done, preserving deterministic
	// order while overlapping compute with delivery.
	ctx := r.Context()
	out := make([]*core.Result, len(cells))
	ready := make([]chan struct{}, len(cells))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	go func() {
		defer release()
		s.runner.Do(len(cells), func(i int) {
			// An abandoned stream (client gone, timeout, or an earlier
			// failed cell) cancels every cell not yet dispatched:
			// coordinator retries and hedges abandon streams routinely,
			// and simulating the remainder into a closed connection
			// would burn the whole pool. Cells already simulating are
			// cooperatively cancelled through the same context, so
			// abandonment frees the pool within a few events.
			if ctx.Err() != nil {
				s.sweepCancelled.Add(1)
				close(ready[i])
				return
			}
			// A panicking or aborted cell leaves a nil slot; the stream
			// ends there rather than skipping it, so truncation signals
			// the failure.
			if o := s.runCell(ctx, "/v1/sweep", cells[i].Cfg); o.ok() {
				out[i] = o.res
			}
			close(ready[i])
		})
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for i := range cells {
		select {
		case <-ready[i]:
		case <-ctx.Done():
			// Client gone or timed out: stop streaming. In-flight cells
			// abort at their next engine poll; undispatched cells are
			// cancelled above.
			return
		}
		if out[i] == nil {
			return
		}
		if err := enc.Encode(out[i].Export()); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// VerifyResponse is the JSON body of GET /v1/verify.
type VerifyResponse struct {
	Checks []core.Check `json:"checks"`
	Passed int          `json:"passed"`
	Total  int          `json:"total"`
}

// handleVerify runs the 17-claim reproduction scorecard. Query
// parameters: quick=1 shrinks windows, seed=N reseeds. With the cache
// warm this is nearly free. Its cells run through runCell like any
// other request's, under the same limits; a cell that panics or aborts
// fails the whole request rather than scoring partial results.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	quick := q.Get("quick") == "1" || q.Get("quick") == "true"
	var seed uint64 = 1
	var warmup, measure uint64
	for _, p := range []struct {
		name string
		dst  *uint64
	}{{"seed", &seed}, {"warmup_cycles", &warmup}, {"measure_cycles", &measure}} {
		// Whole decimal values only: a prefix parse would read 1e9 as 1.
		if v := q.Get(p.name); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				HTTPError(w, http.StatusBadRequest, "bad %s %q", p.name, v)
				return
			}
			*p.dst = n
		}
	}
	cfgFor := func(m core.Mode, d ttcp.Direction, size int) core.Config {
		cfg := core.DefaultConfig(m, d, size)
		cfg.Seed = seed
		if quick {
			cfg.SetQuickWindows()
		}
		if warmup != 0 {
			cfg.WarmupCycles = warmup
		}
		if measure != 0 {
			cfg.MeasureCycles = measure
		}
		return cfg
	}
	release := s.acquire(w, r)
	if release == nil {
		return
	}
	// A failed cell unwinds the scoring pass as a panic carrying its
	// cellResult; checks stays nil and fail says why.
	type verdict struct {
		checks []core.Check
		fail   cellResult
	}
	done := make(chan verdict, 1)
	go func() {
		defer release()
		var v verdict
		defer func() {
			if p := recover(); p != nil {
				var ok bool
				if v.fail, ok = p.(cellResult); !ok {
					s.metrics.panics.Inc("/v1/verify")
					v.fail.err = fmt.Errorf("verify panicked: %v", p)
				}
			}
			done <- v
		}()
		runner := core.NewRunner(s.runner.Workers()).Use(func(cfg core.Config) *core.Result {
			o := s.runCell(r.Context(), "/v1/verify", cfg)
			if !o.ok() {
				panic(o)
			}
			return o.res
		})
		v.checks = core.VerifyShapeWith(runner, cfgFor)
	}()
	select {
	case v := <-done:
		if v.checks == nil {
			v.fail.answerFailure(w)
			return
		}
		checks := v.checks
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, core.FormatChecks(checks))
			return
		}
		resp := VerifyResponse{Checks: checks, Total: len(checks)}
		for _, c := range checks {
			if c.Pass {
				resp.Passed++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	case <-r.Context().Done():
		HTTPError(w, http.StatusServiceUnavailable, "request timed out; verification cancelled")
	}
}

// HealthResponse is the JSON body of GET /healthz. The build version is
// the cache-invalidation handle: a changed version means persisted cache
// entries may predate model changes and should be discarded.
type HealthResponse struct {
	Status     string       `json:"status"`
	Version    string       `json:"version"`
	Workers    int          `json:"workers"`
	Inflight   int          `json:"inflight_requests"`
	QueueDepth int          `json:"queue_depth"`
	Limit      int          `json:"request_limit"`
	Cache      cache.Stats  `json:"cache"`
	Engine     EngineHealth `json:"engine"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(HealthResponse{
		Status:     "ok",
		Version:    s.version,
		Workers:    s.runner.Workers(),
		Inflight:   len(s.sem),
		QueueDepth: int(s.waiting.Load()),
		Limit:      cap(s.sem),
		Cache:      s.cache.Stats(),
		Engine:     s.engines.snapshot(),
	})
}

// PingResponse is the JSON body of GET /v1/ping — the heartbeat a
// coordinator probes. Deliberately cheap (no allocation-heavy nesting
// beyond the engine block) and load-revealing: in-flight requests,
// limiter capacity and queue depth feed the coordinator's load-aware
// planner; version detects mixed-version fleets; sims and the engine
// aggregate roll up into the coordinator's fleet-wide /healthz totals.
type PingResponse struct {
	Status     string       `json:"status"`
	Version    string       `json:"version"`
	Workers    int          `json:"workers"`
	Inflight   int          `json:"inflight_requests"`
	Limit      int          `json:"request_limit"`
	QueueDepth int          `json:"queue_depth"`
	Sims       uint64       `json:"sims_total"`
	Engine     EngineHealth `json:"engine"`
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(PingResponse{
		Status:     "ok",
		Version:    s.version,
		Workers:    s.runner.Workers(),
		Inflight:   len(s.sem),
		Limit:      cap(s.sem),
		QueueDepth: int(s.waiting.Load()),
		Sims:       s.cache.Stats().Sims,
		Engine:     s.engines.snapshot(),
	})
}
