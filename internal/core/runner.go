package core

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ttcp"
)

// WorkersEnv names the environment variable that overrides the default
// worker count (a positive integer). It loses to an explicit NewRunner
// argument.
const WorkersEnv = "AFFINITY_WORKERS"

// DefaultWorkers resolves the worker count used when none is given:
// WorkersEnv if set to a positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(WorkersEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// RunFunc executes one experiment cell. Run is the canonical
// implementation; a cache layer substitutes a memoizing one.
type RunFunc func(Config) *Result

// Runner fans independent experiment cells out across a bounded pool of
// goroutines and reassembles their results in deterministic input order.
//
// Every simulation remains single-threaded and seeded, and distinct
// machines share no mutable state, so results from a parallel run are
// bit-identical to a sequential run of the same cells — parallelism
// changes wall-clock time only. A Runner with one worker executes jobs
// serially on the calling goroutine, which is the opt-out for callers
// that need serial execution (debugging, tracing, fair timing).
//
// The zero value is ready to use and resolves its worker count lazily
// via DefaultWorkers.
type Runner struct {
	workers int
	// run, when set, replaces Run for every cell this runner executes
	// (RunConfigs, RunSweep, RunSeeds, VerifyShapeWith). Because each
	// cell is a pure function of its Config, substituting a memoizing
	// RunFunc changes wall-clock time only, never results.
	run RunFunc
}

// NewRunner returns a runner with the given worker bound. workers <= 0
// selects DefaultWorkers (GOMAXPROCS, overridable via WorkersEnv);
// workers == 1 forces serial execution.
func NewRunner(workers int) *Runner {
	if workers < 0 {
		workers = 0
	}
	return &Runner{workers: workers}
}

// defaultRunner backs the package-level RunSweep/RunSeeds/RunAll helpers.
var defaultRunner Runner

// Workers reports the resolved worker bound.
func (r *Runner) Workers() int {
	if r == nil || r.workers <= 0 {
		return DefaultWorkers()
	}
	return r.workers
}

// Use installs run as this runner's cell executor (nil restores Run),
// before the runner executes any cell. The replacement must be
// result-transparent — return exactly what Run would for the same
// Config — which any Fingerprint-keyed cache of deterministic runs is.
// Returns the runner for chaining.
func (r *Runner) Use(run RunFunc) *Runner {
	r.run = run
	return r
}

// runFunc resolves the cell executor: the installed RunFunc, or Run.
func (r *Runner) runFunc() RunFunc {
	if r == nil || r.run == nil {
		return Run
	}
	return r.run
}

// Do executes job(i) for every i in [0, n), each exactly once, and
// returns when all have completed. With more than one worker, jobs are
// pulled from a shared counter by up to Workers() goroutines; with one
// worker they run in index order on the calling goroutine. A panicking
// job is re-panicked on the calling goroutine after the pool drains.
func (r *Runner) Do(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	w := r.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = p
							}
							panicMu.Unlock()
						}
					}()
					job(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// RunConfigs runs every configuration and returns the results in input
// order.
func (r *Runner) RunConfigs(cfgs []Config) []*Result {
	run := r.runFunc()
	out := make([]*Result, len(cfgs))
	r.Do(len(cfgs), func(i int) { out[i] = run(cfgs[i]) })
	return out
}

// RunAll runs every configuration on the default runner, in input order.
func RunAll(cfgs []Config) []*Result { return defaultRunner.RunConfigs(cfgs) }

// RunSweep measures every (mode, size) cell of one direction sweep on
// this runner's pool. Cell order (sizes outer, modes inner) and results
// are identical to the serial sweep.
func (r *Runner) RunSweep(base Config, dir ttcp.Direction, sizes []int, modes []Mode) Sweep {
	cfgs := make([]Config, 0, len(sizes)*len(modes))
	for _, size := range sizes {
		for _, mode := range modes {
			cfg := base
			cfg.Mode = mode
			cfg.Dir = dir
			cfg.Size = size
			cfgs = append(cfgs, cfg)
		}
	}
	results := r.RunConfigs(cfgs)
	sw := Sweep{Dir: dir, Points: make([]SweepPoint, 0, len(results))}
	for i, res := range results {
		sw.Points = append(sw.Points, SweepPoint{
			Mode: cfgs[i].Mode,
			Size: cfgs[i].Size,
			Mbps: res.Mbps,
			Util: res.AvgUtil,
			Cost: res.CostGHzPerGbps,
		})
	}
	return sw
}

// RunSeeds measures cfg under n consecutive seeds starting at cfg.Seed on
// this runner's pool and aggregates the headline metrics in seed order.
func (r *Runner) RunSeeds(cfg Config, n int) Aggregate {
	if n <= 0 {
		panic("core: RunSeeds needs at least one seed")
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)
	}
	return aggregate(cfg, r.RunConfigs(cfgs))
}
