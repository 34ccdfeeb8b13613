package cache

import (
	"encoding/gob"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/stats"
)

// storedResult is the on-disk form of a Result. The Config is NOT
// stored: the fingerprint already proves the reader's Config agrees on
// every result-affecting field, so the caller's own Config is
// reattached on load (this also sidesteps serializing the Policy
// interface). Trace and Series never appear here —
// configs carrying them are uncacheable.
type storedResult struct {
	ElapsedCycles  uint64
	Bytes          uint64
	Transactions   uint64
	Mbps           float64
	Util           []float64
	AvgUtil        float64
	CostGHzPerGbps float64
	Drops          uint64
	IdleCycles     []uint64
	Ctr            perf.CountersDump

	// Degradation metrics and the invariant verdict from faulted runs.
	// Replaying a faulted cell from disk must reproduce these exactly —
	// including the verdict, since Run checks invariants (and charges
	// the drain's virtual time) before the result is ever cached.
	Retransmits        uint64
	WireDrops          uint64
	WireBytes          uint64
	GoodputRatio       float64
	FlapRecoveryCycles []uint64
	InvariantsChecked  bool
	InvariantViolation string

	// Reordering metrics from flow-director re-steering (or wire loss).
	// Absent in pre-existing cache entries, which decode them as zero —
	// exactly what those legacy-steered runs measured.
	OutOfOrder      uint64
	DupAcks         uint64
	FastRetransmits uint64
	FlowResteers    uint64

	// Engine is the scheduler's cumulative counter snapshot. It is
	// deterministic per Config, so a cached replay carries the same
	// numbers a fresh run would produce. Absent in pre-existing cache
	// entries, which decode it as zero.
	Engine sim.Stats

	// Workload-layer metrics: the latency sketch (its exported buckets
	// gob-encode directly) and the open-loop cell's churn accounting. A
	// cached replay must report bit-identical quantiles, so the whole
	// sketch is stored, not just the three headline quantiles.
	Requests          uint64
	LatencyP50Cycles  uint64
	LatencyP99Cycles  uint64
	LatencyP999Cycles uint64
	Latency           *stats.Sketch
	ConnsGenerated    uint64
	ConnsAbandoned    uint64
	SynDrops          uint64
}

// path maps a fingerprint to its file. Keys are hex SHA-256, so they are
// filesystem-safe by construction.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".gob") }

// loadDisk is a best-effort read of the persisted result for key; any
// failure (missing file, truncated write from a crashed process,
// malformed dump) reads as a miss. Corrupt entries are discarded — the
// file is unlinked so every concurrent singleflight waiter and every
// future lookup sees a clean miss and the leader's re-simulation can
// persist a good entry, instead of each new reader re-paying a failing
// decode against the same bad bytes.
func (c *Cache) loadDisk(key string, cfg core.Config) (*core.Result, bool) {
	if c.dir == "" {
		return nil, false
	}
	f, err := os.Open(c.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			c.diskErrors.Add(1)
		}
		return nil, false
	}
	defer f.Close()
	var sr storedResult
	if err := gob.NewDecoder(f).Decode(&sr); err != nil {
		c.discardCorrupt(key)
		return nil, false
	}
	ctr, err := perf.CountersFromDump(sr.Ctr)
	if err != nil {
		c.discardCorrupt(key)
		return nil, false
	}
	return &core.Result{
		Cfg:                cfg,
		ElapsedCycles:      sr.ElapsedCycles,
		Bytes:              sr.Bytes,
		Transactions:       sr.Transactions,
		Mbps:               sr.Mbps,
		Util:               sr.Util,
		AvgUtil:            sr.AvgUtil,
		CostGHzPerGbps:     sr.CostGHzPerGbps,
		Drops:              sr.Drops,
		IdleCycles:         sr.IdleCycles,
		Ctr:                ctr,
		Retransmits:        sr.Retransmits,
		WireDrops:          sr.WireDrops,
		WireBytes:          sr.WireBytes,
		GoodputRatio:       sr.GoodputRatio,
		FlapRecoveryCycles: sr.FlapRecoveryCycles,
		InvariantsChecked:  sr.InvariantsChecked,
		InvariantViolation: sr.InvariantViolation,
		OutOfOrder:         sr.OutOfOrder,
		DupAcks:            sr.DupAcks,
		FastRetransmits:    sr.FastRetransmits,
		FlowResteers:       sr.FlowResteers,
		Engine:             sr.Engine,
		Requests:           sr.Requests,
		LatencyP50Cycles:   sr.LatencyP50Cycles,
		LatencyP99Cycles:   sr.LatencyP99Cycles,
		LatencyP999Cycles:  sr.LatencyP999Cycles,
		Latency:            sr.Latency,
		ConnsGenerated:     sr.ConnsGenerated,
		ConnsAbandoned:     sr.ConnsAbandoned,
		SynDrops:           sr.SynDrops,
	}, true
}

// discardCorrupt counts and unlinks a corrupt persisted entry. Removal
// is best-effort: a racing discard from another process sharing the
// directory has the same effect, and a removal failure only means the
// next reader discards again.
func (c *Cache) discardCorrupt(key string) {
	c.corruptDiscards.Add(1)
	if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
		c.diskErrors.Add(1)
	}
}

// storeDisk persists res under key via write-to-temp + rename, so
// concurrent processes sharing the directory only ever observe complete
// entries. Best effort: failures count in DiskErrors and the simulation
// result is still served from memory.
func (c *Cache) storeDisk(key string, res *core.Result) {
	if c.dir == "" || res == nil || res.Ctr == nil {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.diskErrors.Add(1)
		return
	}
	sr := storedResult{
		ElapsedCycles:      res.ElapsedCycles,
		Bytes:              res.Bytes,
		Transactions:       res.Transactions,
		Mbps:               res.Mbps,
		Util:               res.Util,
		AvgUtil:            res.AvgUtil,
		CostGHzPerGbps:     res.CostGHzPerGbps,
		Drops:              res.Drops,
		IdleCycles:         res.IdleCycles,
		Ctr:                res.Ctr.Dump(),
		Retransmits:        res.Retransmits,
		WireDrops:          res.WireDrops,
		WireBytes:          res.WireBytes,
		GoodputRatio:       res.GoodputRatio,
		FlapRecoveryCycles: res.FlapRecoveryCycles,
		InvariantsChecked:  res.InvariantsChecked,
		InvariantViolation: res.InvariantViolation,
		OutOfOrder:         res.OutOfOrder,
		DupAcks:            res.DupAcks,
		FastRetransmits:    res.FastRetransmits,
		FlowResteers:       res.FlowResteers,
		Engine:             res.Engine,
		Requests:           res.Requests,
		LatencyP50Cycles:   res.LatencyP50Cycles,
		LatencyP99Cycles:   res.LatencyP99Cycles,
		LatencyP999Cycles:  res.LatencyP999Cycles,
		Latency:            res.Latency,
		ConnsGenerated:     res.ConnsGenerated,
		ConnsAbandoned:     res.ConnsAbandoned,
		SynDrops:           res.SynDrops,
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		c.diskErrors.Add(1)
		return
	}
	if err := gob.NewEncoder(tmp).Encode(&sr); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		c.diskErrors.Add(1)
	}
}
