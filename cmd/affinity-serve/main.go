// Command affinity-serve hosts the simulator as an HTTP service: a thin
// stateless JSON API in front of the content-addressed result cache and
// the parallel experiment runner.
//
// Usage:
//
//	affinity-serve [flags]
//
//	-addr host:port      listen address (default :8080)
//	-workers n           simulation workers per sweep (0 = GOMAXPROCS)
//	-max-inflight n      concurrent simulating requests (0 = 2×workers)
//	-timeout d           per-request timeout (default 5m)
//	-sim-budget d        per-simulation wall-clock budget; the watchdog
//	                     cancels a run that exceeds it and frees the
//	                     slot (0 = none)
//	-max-sim-cycles n    per-simulation simulated-cycle budget (0 = none)
//	-cache-bytes n       in-memory result-cache bound (default 256 MiB)
//	-cache-dir path      on-disk result journal (default $AFFINITY_CACHE_DIR)
//	-drain d             shutdown drain budget after SIGINT/SIGTERM (default 30s)
//	-workload spec       default workload for requests that omit one
//	                     (the README's spec grammar, e.g.
//	                     "openloop,conns=100000" or @spec.json; empty =
//	                     bulk ttcp), parsed once at startup
//	-coalesce spec       default coalescing model for requests that omit
//	                     one (same grammar, e.g. "adaptive,min=5,max=250";
//	                     empty = legacy throttle), parsed once at startup
//	-coord url           affinity-coord base URL to join as a fleet
//	                     worker (empty = standalone); a usage error with
//	                     -workload or -coalesce, since the coordinator
//	                     keys each cell from its request alone
//	-advertise url       base URL the coordinator should dial back
//	                     (default derives http://127.0.0.1:port from
//	                     -addr)
//	-announce-interval d re-registration cadence (default 30s)
//	-version             print the build version and exit
//
// Endpoints: POST /v1/run, POST /v1/sweep (NDJSON stream), GET
// /v1/verify, GET /healthz, GET /metrics (Prometheus text). See
// internal/serve for request schemas; the README's "Serving the
// simulator" section has a curl walkthrough.
//
// On SIGINT/SIGTERM the listener closes, in-flight requests get the drain
// budget to finish, and a completed drain checkpoints the -cache-dir journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cache"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation workers per sweep (0 = GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent simulating requests (0 = 2×workers)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-request timeout")
	simBudget := flag.Duration("sim-budget", 0, "per-simulation wall-clock budget (0 = none)")
	maxSimCycles := flag.Uint64("max-sim-cycles", 0, "per-simulation simulated-cycle budget (0 = none)")
	cacheBytes := flag.Int64("cache-bytes", cache.DefaultMaxBytes, "in-memory result-cache byte bound (<=0 = unbounded)")
	cacheDir := flag.String("cache-dir", os.Getenv(cache.DirEnv), "on-disk result journal directory (empty = memory only)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	workloadFlag := flag.String("workload", "", `default workload spec for requests that omit one ("kind,k=v,..." or @spec.json; empty = bulk ttcp)`)
	coalesceFlag := flag.String("coalesce", "", `default coalescing spec for requests that omit one ("mode,k=v,..." or @config.json; empty = legacy throttle)`)
	coordURL := flag.String("coord", "", "affinity-coord base URL to join as a fleet worker (empty = standalone)")
	advertise := flag.String("advertise", "", "base URL the coordinator should dial back (default derives from -addr)")
	announceEvery := flag.Duration("announce-interval", 30*time.Second, "re-registration cadence when -coord is set")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("affinity-serve")
		return
	}

	def, err := operatorDefaults(*workloadFlag, *coalesceFlag, *coordURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-serve:", err)
		os.Exit(2)
	}

	c := cache.New(*cacheBytes, *cacheDir)
	srv := serve.New(serve.Options{
		Runner:          core.NewRunner(*workers),
		Cache:           c,
		MaxInflight:     *maxInflight,
		Timeout:         *timeout,
		SimBudget:       *simBudget,
		MaxSimCycles:    *maxSimCycles,
		DefaultWorkload: def.Workload,
		DefaultCoalesce: def.Coalesce,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coordURL != "" {
		self := *advertise
		if self == "" {
			self = deriveAdvertise(*addr)
		}
		if self == "" {
			fmt.Fprintf(os.Stderr, "affinity-serve: cannot derive -advertise from -addr %q; pass -advertise\n", *addr)
			os.Exit(2)
		}
		go coord.AnnounceLoop(ctx, strings.TrimRight(*coordURL, "/"), coord.RegisterRequest{
			URL:         strings.TrimRight(self, "/"),
			Version:     buildinfo.Version(),
			Concurrency: srv.Limit(),
		}, *announceEvery, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "affinity-serve: "+format+"\n", args...)
		})
	}

	fmt.Fprintf(os.Stderr, "affinity-serve %s listening on %s (workers=%d, cache=%s)\n",
		buildinfo.Version(), *addr, serveWorkers(*workers), cacheLabel(*cacheDir))

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "affinity-serve:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "affinity-serve: draining (up to %s)\n", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "affinity-serve: drain incomplete:", err)
			os.Exit(1)
		}
		if err := c.Close(); err != nil { // checkpoints the -cache-dir journal
			fmt.Fprintln(os.Stderr, "affinity-serve: journal checkpoint:", err)
		}
	}
	st := c.Stats()
	fmt.Fprintf(os.Stderr, "affinity-serve: done (sims=%d, hits=%d, coalesced=%d, disk hits=%d, hit ratio %.2f)\n",
		st.Sims, st.Hits, st.Coalesced, st.DiskHits, st.HitRatio())
}

// operatorDefaults resolves the -workload and -coalesce defaults once,
// so a malformed one fails at startup rather than 400-ing every
// request. A fleet worker (-coord) takes neither: the coordinator keys,
// stores and journals each cell from its request alone, so a worker's
// default would file one config's result under another config's key.
func operatorDefaults(wl, coalesce, coordURL string) (def core.Config, err error) {
	if coordURL != "" && wl+coalesce != "" {
		return def, errors.New("-workload and -coalesce defaults cannot be combined with -coord: the coordinator keys each cell from its request alone")
	}
	if err = def.ApplySpecs("", wl, coalesce); err != nil {
		err = errors.Unwrap(err) // the parsers' errors already name their spec
	}
	return def, err
}

func serveWorkers(n int) int {
	if n <= 0 {
		return core.DefaultWorkers()
	}
	return n
}

func cacheLabel(dir string) string {
	if dir == "" {
		return "memory"
	}
	return "memory+" + dir
}

// deriveAdvertise guesses the loopback base URL for a listen address
// like ":8080" or "0.0.0.0:8080" — right for single-host fleets, which
// is what the smoke tests and local walkthroughs run. Cross-host
// deployments pass -advertise explicitly.
func deriveAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil || port == "" {
		return ""
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
