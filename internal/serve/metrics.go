package serve

import (
	"repro/internal/cache"
	"repro/internal/metrics"
)

// workerMetrics is the worker's /metrics: request counts by path and
// status, one latency histogram and recovered panics, plus values read
// at scrape time from the cache, the cancellation counters and the
// concurrency limiter. The cache series all come from one Stats
// snapshot per scrape, so they agree with each other.
type workerMetrics struct {
	metrics.Registry
	requests *metrics.Vec
	latency  *metrics.Vec
	panics   *metrics.Vec
}

func newMetrics(s *Server) *workerMetrics {
	m := &workerMetrics{}
	m.requests = m.CounterVec("affinity_requests_total", "HTTP requests served, by path and status code.", false, "path", "code")
	m.latency = m.HistogramVec("affinity_request_seconds", "Request latency.", metrics.LatencyBuckets)
	m.panics = m.CounterVec("affinity_panics_total", "Panics recovered by the request middleware, by path.", true, "path")
	var st cache.Stats
	m.OnScrape(func() { st = s.cache.Stats() })
	m.CounterFunc("affinity_cache_hits_total", "Result-cache in-memory hits.", func() uint64 { return st.Hits })
	m.CounterFunc("affinity_cache_coalesced_total", "Requests deduplicated onto an identical in-flight simulation (singleflight).", func() uint64 { return st.Coalesced })
	m.CounterFunc("affinity_cache_misses_total", "Result-cache misses (disk hits + simulations).", func() uint64 { return st.Misses })
	m.CounterFunc("affinity_cache_disk_hits_total", "Result-cache misses served from the on-disk store.", func() uint64 { return st.DiskHits })
	m.CounterFunc("affinity_cache_evictions_total", "Result-cache LRU evictions.", func() uint64 { return st.Evictions })
	m.CounterFunc("affinity_cache_disk_errors_total", "Best-effort disk store failures.", func() uint64 { return st.DiskErrors })
	m.CounterFunc("affinity_cache_corrupt_discards_total", "Corrupt journal records skipped at replay and compacted away; their keys are misses.", func() uint64 { return st.CorruptDiscards })
	m.CounterFunc("affinity_sims_total", "Simulations actually executed.", func() uint64 { return st.Sims })
	m.CounterFunc("affinity_sweep_cells_cancelled_total", "Sweep cells cancelled before dispatch because their NDJSON stream was abandoned.", s.sweepCancelled.Load)
	m.CounterFunc("affinity_sims_cancelled_total", "Simulations cooperatively cancelled mid-run (request timed out or client gone).", s.simsCancelled.Load)
	m.CounterFunc("affinity_sim_budget_aborts_total", "Simulations stopped by the wall-clock or cycle budget watchdog.", s.budgetAborts.Load)
	m.CounterFunc("affinity_cache_aborts_total", "Aborted simulation results refused by the cache.", func() uint64 { return st.Aborts })
	m.Gauge("affinity_cache_entries", "Resident result-cache entries.", func() float64 { return float64(st.Entries) })
	m.Gauge("affinity_cache_bytes", "Resident result-cache bytes.", func() float64 { return float64(st.Bytes) })
	m.Gauge("affinity_cache_hit_ratio", "Served-without-simulating ratio over all lookups.", func() float64 { return st.HitRatio() })
	m.Gauge("affinity_sims_inflight", "Simulations executing right now.", func() float64 { return float64(st.Inflight) })
	m.Gauge("affinity_requests_inflight", "Requests holding a concurrency-limiter slot.", func() float64 { return float64(len(s.sem)) })
	m.Gauge("affinity_request_limit", "Concurrency-limiter capacity.", func() float64 { return float64(cap(s.sem)) })
	m.Gauge("affinity_worker_pool_depth", "Simulation worker-pool bound per sweep.", func() float64 { return float64(s.runner.Workers()) })
	m.Info("affinity_build_info", "Build identity of the serving binary.", "version", s.version)
	return m
}
