// Command affinity-coord fronts a fleet of affinity-serve workers: it
// accepts the same sweep requests as one worker, shards the expanded
// cells across the fleet weighted by each worker's capacity, and merges
// the results into a byte-identical NDJSON stream.
//
// Usage:
//
//	affinity-coord [flags]
//
//	-addr host:port      listen address (default :8070)
//	-worker url          seed worker base URL (repeatable; workers can
//	                     also join at runtime via POST /v1/register)
//	-heartbeat d         worker ping interval (default 2s)
//	-evict-after n       consecutive missed heartbeats before eviction
//	                     (default 3)
//	-cell-timeout d      one dispatch attempt's budget (default 5m)
//	-retries n           re-dispatches per failed cell (default 4)
//	-retry-base d        first retry backoff (default 250ms)
//	-retry-cap d         backoff ceiling (default 5s)
//	-hedge-after d       straggler hedge delay; <0 disables (default 30s)
//	-memo-entries n      fleet result-store entry bound, which also bounds
//	                     the journal's durable set and the request→key
//	                     index (default 65536; must not be negative)
//	-journal-dir path    durable cell journal; a restarted coordinator
//	                     replays it and re-dispatches only missing cells
//	-journal-sync d      journal group-commit fsync interval (default 100ms)
//	-breaker-threshold n consecutive dispatch failures that open a
//	                     worker's circuit breaker; <0 disables (default 5)
//	-breaker-cooloff d   open-breaker cooloff before a half-open probe
//	                     (default 10s)
//	-drain d             shutdown drain budget (default 30s)
//	-version             print the build version and exit
//
// Endpoints: POST /v1/run, POST /v1/sweep (NDJSON stream), POST
// /v1/register, GET /healthz (per-worker status table + fleet
// aggregates), GET /metrics. The README's "Running a fleet" section has
// a walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/coord"
)

// urlList collects a repeatable -worker flag.
type urlList []string

func (l *urlList) String() string { return fmt.Sprint([]string(*l)) }
func (l *urlList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var workers urlList
	addr := flag.String("addr", ":8070", "listen address")
	flag.Var(&workers, "worker", "seed worker base URL (repeatable)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "worker ping interval")
	evictAfter := flag.Int("evict-after", 3, "consecutive missed heartbeats before eviction")
	cellTimeout := flag.Duration("cell-timeout", 5*time.Minute, "one dispatch attempt's budget")
	retries := flag.Int("retries", 4, "re-dispatches per failed cell (<0 disables)")
	retryBase := flag.Duration("retry-base", 250*time.Millisecond, "first retry backoff")
	retryCap := flag.Duration("retry-cap", 5*time.Second, "retry backoff ceiling")
	hedgeAfter := flag.Duration("hedge-after", 30*time.Second, "straggler hedge delay (<0 disables)")
	memoEntries := flag.Int("memo-entries", 65536, "fleet result-store entry bound, journal included (must not be negative)")
	journalDir := flag.String("journal-dir", "", "durable cell journal directory (empty disables)")
	journalSync := flag.Duration("journal-sync", 100*time.Millisecond, "journal group-commit fsync interval")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive dispatch failures that open a worker's breaker (<0 disables)")
	breakerCooloff := flag.Duration("breaker-cooloff", 10*time.Second, "open-breaker cooloff before a half-open probe")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	version := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print("affinity-coord")
		return
	}

	c, err := coord.New(coord.Options{
		Workers:          workers,
		Heartbeat:        *heartbeat,
		EvictAfter:       *evictAfter,
		CellTimeout:      *cellTimeout,
		Retries:          *retries,
		RetryBase:        *retryBase,
		RetryCap:         *retryCap,
		HedgeAfter:       *hedgeAfter,
		MemoEntries:      *memoEntries,
		JournalDir:       *journalDir,
		JournalSync:      *journalSync,
		BreakerThreshold: *breakerThreshold,
		BreakerCooloff:   *breakerCooloff,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "affinity-coord:", err)
		os.Exit(1)
	}
	defer c.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: c}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "affinity-coord %s listening on %s (%d seed workers)\n",
		buildinfo.Version(), *addr, len(workers))

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "affinity-coord:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "affinity-coord: draining (up to %s)\n", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			// The drain budget is spent; cut the remaining streams so the
			// journal checkpoint below still runs before exit.
			fmt.Fprintln(os.Stderr, "affinity-coord: drain incomplete:", err)
			httpSrv.Close()
		}
		// Stop background loops and compact the journal: every cell that
		// completed before the signal survives the restart.
		if err := c.Shutdown(); err != nil {
			fmt.Fprintln(os.Stderr, "affinity-coord: journal checkpoint:", err)
			os.Exit(1)
		}
	}
}
