package cache

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/perf"
)

// DirEnv names the environment variable selecting the on-disk journal
// directory. Empty or unset keeps the cache memory-only.
const DirEnv = "AFFINITY_CACHE_DIR"

// DefaultMaxBytes is the in-memory bound used by the serving daemon and
// figure generator when none is given: roomy enough for thousands of
// entries (one paper-shape Result is a few tens of KiB) without
// threatening a build host.
const DefaultMaxBytes = 256 << 20

// Cache memoizes simulation Results keyed by config Fingerprint. It is
// safe for concurrent use. It is a Store of decoded Results bounded by
// their estimated bytes, so a memory hit decodes nothing:
//
//  1. a byte-bounded in-memory LRU,
//  2. singleflight: concurrent requests for the same fingerprint wait
//     for one leader instead of simulating redundantly,
//  3. an optional journal under dir holding one encoded Result per
//     fingerprint, replayed into the LRU when the cache opens, so
//     results survive process restarts,
//  4. the simulation itself.
//
// A nil *Cache is the disabled state: GetOrRun degenerates to calling
// the run function directly.
type Cache struct {
	maxBytes int64
	dir      string
	store    *Store[*core.Result]

	sims       atomic.Uint64
	aborts     atomic.Uint64
	openErrors atomic.Uint64
	inflight   atomic.Int64
}

// errAborted marks an aborted simulation to the store: a failure, handed
// back to the caller that owns the cancel and never stored or shared.
var errAborted = errors.New("cache: simulation aborted")

// New builds a cache bounded to maxBytes of in-memory results
// (maxBytes <= 0 means unbounded) with an optional journal under dir
// ("" disables persistence). A journal that cannot be opened counts one
// disk error and leaves the cache memory-only.
func New(maxBytes int64, dir string) *Cache {
	c := &Cache{maxBytes: maxBytes, dir: dir}
	var j *Journal
	if dir != "" {
		var err error
		if j, err = OpenJournal(dir, 0); err != nil {
			c.openErrors.Add(1)
		}
	}
	c.store = NewStore(maxBytes, resultBytes, j, EncodeResult, DecodeResult)
	return c
}

// Close checkpoints the journal to the resident results, so the next
// process replays one compact file, and closes it. Nil-safe.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	err := c.store.Checkpoint()
	if cerr := c.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Run is GetOrRun over the canonical core.Run.
func (c *Cache) Run(cfg core.Config) *core.Result { return c.GetOrRun(cfg, core.Run) }

// RunFunc adapts the cache to the runner's cell-executor slot:
// runner.Use(c.RunFunc()) makes every cell the runner executes
// cache-aware.
func (c *Cache) RunFunc() core.RunFunc { return c.Run }

// GetOrRun returns the Result for cfg, simulating via run at most once
// per fingerprint no matter how many goroutines ask concurrently.
// Uncacheable configs (see Cacheable) and a nil receiver pass straight
// through to run.
func (c *Cache) GetOrRun(cfg core.Config, run core.RunFunc) *core.Result {
	if run == nil {
		run = core.Run
	}
	if c == nil || !Cacheable(cfg) {
		return run(cfg)
	}
	res, from, _ := c.store.GetOrDo(context.Background(), Fingerprint(cfg), func() (*core.Result, error) {
		c.sims.Add(1)
		c.inflight.Add(1)
		defer c.inflight.Add(-1)
		res := run(cfg)
		if res != nil && res.Aborted {
			c.aborts.Add(1)
			return res, errAborted
		}
		return res, nil
	})
	if from == Resumed {
		// A replayed Result carries no Config; this caller's own is the
		// one the fingerprint proved equivalent.
		r := *res
		r.Cfg = cfg
		res = &r
	}
	return res
}

// resultBytes estimates the resident size of one cached Result: the
// counter matrix dominates (symbols × CPUs × events × 8 bytes), plus the
// symbol names and the per-CPU slices.
func resultBytes(r *core.Result) int64 {
	const fixed = 512 // struct headers, scalars, slice headers
	size := int64(fixed)
	size += int64(len(r.Util))*8 + int64(len(r.IdleCycles))*8
	if r.Ctr != nil {
		tab := r.Ctr.Table()
		size += int64(tab.Len()) * int64(r.Ctr.CPUs()) * int64(perf.NumEvents) * 8
		for _, s := range tab.Symbols() {
			size += int64(len(tab.Name(s))) + 32
		}
	}
	return size
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Entries and Bytes describe the in-memory LRU right now; MaxBytes
	// is its configured bound (0 = unbounded).
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Hits are in-memory LRU hits; Coalesced are requests that waited on
	// an identical in-flight computation instead of simulating; DiskHits
	// are hits on a result replayed from the on-disk journal; Sims are
	// actual simulations executed; Misses = DiskHits + Sims.
	Hits, Misses, Coalesced, DiskHits, Sims uint64
	// Evictions counts LRU entries dropped to hold the byte bound.
	Evictions uint64
	// DiskErrors counts failed best-effort journal opens and writes.
	DiskErrors uint64
	// CorruptDiscards counts journal records discarded on replay (see
	// Journal); their keys are clean misses.
	CorruptDiscards uint64
	// Aborts counts simulations that returned Aborted (cancelled or over
	// budget) and were therefore kept out of every store.
	Aborts uint64
	// Inflight is the number of simulations executing right now.
	Inflight int64
	// Dir is the journal directory ("" = memory only).
	Dir string
}

// Stats snapshots the counters; nil-safe.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	entries, bytes := c.store.Size()
	js := c.store.JournalStats()
	diskHits, sims := c.store.served[Resumed].Load(), c.sims.Load()
	return Stats{
		Entries:         entries,
		Bytes:           bytes,
		MaxBytes:        c.maxBytes,
		Hits:            c.store.served[Hit].Load(),
		Coalesced:       c.store.served[Shared].Load(),
		DiskHits:        diskHits,
		Sims:            sims,
		Misses:          diskHits + sims,
		Evictions:       c.store.evictions.Load(),
		DiskErrors:      c.openErrors.Load() + js.WriteErrors,
		CorruptDiscards: js.CorruptDiscards,
		Aborts:          c.aborts.Load(),
		Inflight:        c.inflight.Load(),
		Dir:             c.dir,
	}
}

// HitRatio is hits (memory + coalesced + disk) over total lookups, in
// [0,1]; 0 when nothing has been asked yet.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced+s.DiskHits) / float64(total)
}
