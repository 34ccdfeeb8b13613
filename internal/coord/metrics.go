package coord

import "repro/internal/metrics"

// cmetrics is the coordinator's /metrics: cell dispatch accounting,
// request counts by path and status, one latency histogram per worker
// so a straggling node is visible at a glance, and journal and fleet
// values read at scrape time.
type cmetrics struct {
	metrics.Registry
	dispatched      *metrics.Counter
	retried         *metrics.Counter
	hedged          *metrics.Counter
	hedgeDuplicates *metrics.Counter
	deduped         *metrics.Counter
	resumeHits      *metrics.Counter
	failed          *metrics.Counter
	registrations   *metrics.Counter
	evictions       *metrics.Counter
	breakerOpens    *metrics.Counter
	cancelled       *metrics.Counter
	// requests counts finished coordinator requests by path and code.
	// Coordinator endpoints are streaming merges whose duration is the
	// sweep's, not the handler's, so latency lives in workers, the
	// per-worker dispatch-attempt histograms.
	requests *metrics.Vec
	workers  *metrics.Vec
}

func newCMetrics(c *Coordinator) *cmetrics {
	m := &cmetrics{}
	m.dispatched = m.Counter("affinity_coord_cells_dispatched_total", "Cells sent to workers (first attempts; retries and hedges count separately).")
	m.retried = m.Counter("affinity_coord_cells_retried_total", "Cell dispatch retries after a failed or timed-out attempt.")
	m.hedged = m.Counter("affinity_coord_cells_hedged_total", "Duplicate dispatches launched against straggling cells.")
	m.hedgeDuplicates = m.Counter("affinity_coord_hedge_duplicates_discarded_total", "Straggler outcomes discarded because the hedge's twin already won the fingerprint.")
	m.deduped = m.Counter("affinity_coord_cells_deduped_total", "Cells served from the fleet memo or coalesced onto an in-flight twin instead of dispatching.")
	m.failed = m.Counter("affinity_coord_cells_failed_total", "Cells that exhausted their retry budget.")
	m.registrations = m.Counter("affinity_coord_registrations_total", "Workers that joined the fleet.")
	m.evictions = m.Counter("affinity_coord_evictions_total", "Workers evicted after consecutive missed heartbeats.")
	m.breakerOpens = m.Counter("affinity_coord_breaker_opens_total", "Worker circuit breakers opened (consecutive dispatch failures or a failed half-open probe).")
	m.cancelled = m.Counter("affinity_coord_dispatches_cancelled_total", "Dispatch attempts cancelled because a twin already won the cell (hedge losers, abandoned requests).")
	m.resumeHits = m.Counter("affinity_coord_journal_resume_hits_total", "Cells served from the durable journal without dispatching.")
	journal := c.store.JournalStats
	m.CounterFunc("affinity_coord_journal_appends_total", "Cells appended to the durable journal this process.", func() uint64 { return journal().Appends })
	m.CounterFunc("affinity_coord_journal_corrupt_discards_total", "Corrupt or torn journal records discarded on replay.", func() uint64 { return journal().CorruptDiscards })
	m.CounterFunc("affinity_coord_journal_checkpoints_total", "Journal checkpoint compactions.", func() uint64 { return journal().Checkpoints })
	m.CounterFunc("affinity_coord_journal_write_errors_total", "Best-effort journal write failures.", func() uint64 { return journal().WriteErrors })
	m.Gauge("affinity_coord_workers_healthy", "Workers currently in the healthy set.", func() float64 { return float64(c.health().WorkersHealthy) })
	m.Gauge("affinity_coord_workers_total", "Workers registered (healthy or not).", func() float64 { return float64(c.health().WorkersTotal) })
	m.Gauge("affinity_coord_memo_entries", "Resident fleet-memo entries.", func() float64 { n, _ := c.store.Size(); return float64(n) })
	m.Gauge("affinity_coord_journal_cells", "Cells resident in the durable journal.", func() float64 { return float64(journal().Cells) })
	m.Gauge("affinity_coord_journal_wal_bytes", "Un-compacted journal wal bytes.", func() float64 { return float64(journal().WALBytes) })
	m.CounterFunc("affinity_coord_fleet_sims_total", "Simulations executed across the fleet (sum of worker counters).", func() uint64 { return c.health().Fleet.Sims })
	m.requests = m.CounterVec("affinity_coord_requests_total", "Coordinator HTTP requests, by path and status code.", false, "path", "code")
	m.workers = m.HistogramVec("affinity_coord_worker_request_seconds", "Dispatch latency per worker.", metrics.LatencyBuckets, "worker")
	m.Info("affinity_coord_build_info", "Build identity of the coordinator binary.", "version", c.version)
	return m
}
