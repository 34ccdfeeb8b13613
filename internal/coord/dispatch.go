package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// dispatchCell drives one cell to completion against the fleet: a
// primary attempt loop, plus — if the cell is still unresolved after
// the hedge delay — one duplicate attempt loop racing it. First result
// wins; the straggler's result, keyed to the same fingerprint, is
// discarded when it lands.
func (c *Coordinator) dispatchCell(ctx context.Context, cell serve.SweepCell) ([]byte, error) {
	c.metrics.dispatched.Add(1)
	type outcome struct {
		line []byte
		err  error
	}
	results := make(chan outcome, 2) // buffered: a losing hedge must not leak its goroutine
	// Each attempt loop gets its own cancellable context so the loser of
	// a hedge race is cut off the moment its twin wins: its in-flight
	// POST aborts, the worker sees the client vanish, and the simulation
	// cancels cooperatively instead of burning the slot to completion.
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func() {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		go func() {
			line, err := c.attemptLoop(actx, cell)
			results <- outcome{line, err}
		}()
	}
	launch()
	launched, received := 1, 0

	var hedge <-chan time.Time
	if c.hedgeAfter > 0 {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	var firstErr error
	for {
		select {
		case o := <-results:
			received++
			if o.err == nil {
				if launched > received {
					// The straggler is still in flight somewhere; whatever
					// it eventually produces — a result, or an abort once
					// the request context closes — duplicates a fingerprint
					// this return already resolved, and is dropped.
					go func() {
						<-results
						c.metrics.hedgeDuplicates.Add(1)
					}()
				}
				return o.line, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if received == launched {
				c.metrics.failed.Add(1)
				return nil, firstErr
			}
		case <-hedge:
			hedge = nil
			launched++
			c.metrics.hedged.Add(1)
			launch()
		case <-ctx.Done():
			// Every attempt runs under ctx and ends with it; the cell ends
			// once they have, so no request to a worker outlives it.
			for ; received < launched; received++ {
				<-results
			}
			return nil, ctx.Err()
		}
	}
}

// attemptLoop dispatches the cell until it succeeds or the retry budget
// is spent. Each retry backs off exponentially (capped) and avoids the
// worker that just failed whenever the fleet offers an alternative — a
// cell killed with its worker reassigns, it does not re-queue behind a
// corpse.
func (c *Coordinator) attemptLoop(ctx context.Context, cell serve.SweepCell) ([]byte, error) {
	var lastErr error
	avoid := ""
	backoff := c.retryBase
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			if ctx.Err() != nil {
				// The request is gone (client left, or a hedge twin won and
				// the stream completed); this is abandonment, not a retry.
				return nil, ctx.Err()
			}
			c.metrics.retried.Add(1)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			backoff *= 2
			if backoff > c.retryCap {
				backoff = c.retryCap
			}
		}
		l, err := c.acquireLease(ctx, avoid)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		line, err := c.post(ctx, l, cell)
		c.metrics.workers.Observe(time.Since(start).Seconds(), l.url)
		c.reg.release(l)
		if err == nil {
			c.reg.succeed(l.url)
			return line, nil
		}
		if ctx.Err() != nil {
			// The attempt died with its context — a hedge twin won, or the
			// client abandoned the sweep. The worker is not at fault, so
			// its breaker takes no charge.
			c.metrics.cancelled.Add(1)
			return nil, ctx.Err()
		}
		if c.reg.fail(l.url) {
			c.metrics.breakerOpens.Add(1)
		}
		avoid = l.url
		lastErr = err
	}
	return nil, fmt.Errorf("cell failed after %d attempts: %w", c.retries+1, lastErr)
}

// acquireLease blocks until the load-aware plan yields a slot on a
// healthy worker (preferably not avoid), re-planning on every
// join/leave/release wakeup.
func (c *Coordinator) acquireLease(ctx context.Context, avoid string) (*lease, error) {
	for {
		// Snapshot the change channel before trying, so a wakeup between
		// the failed try and the wait is not lost.
		changed := c.reg.waitCh()
		if l := c.reg.tryAcquire(avoid); l != nil {
			return l, nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// post dispatches one cell to one worker as a single-cell /v1/sweep and
// returns the worker's one NDJSON line, verbatim (sans newline). Using
// the sweep endpoint — not /v1/run — is what makes the fleet merge
// byte-identical: the line on the wire is the exact encoding a
// single-node sweep streams for this cell, and it is never re-encoded.
//
// The attempt aborts early if the worker is evicted mid-request (its
// lease's down channel closes), so reassignment does not wait out the
// full cell timeout.
func (c *Coordinator) post(ctx context.Context, l *lease, cell serve.SweepCell) ([]byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.cellTimeout)
	defer cancel()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-l.down:
			cancel()
		case <-watchDone:
		}
	}()

	body, err := json.Marshal(cell.Req.Sweep())
	if err != nil {
		return nil, fmt.Errorf("encoding cell: %w", err)
	}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, l.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("worker %s: %w", l.url, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, fmt.Errorf("worker %s: reading response: %w", l.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %s: status %d: %s", l.url, resp.StatusCode, bytes.TrimSpace(payload))
	}
	line := bytes.TrimSuffix(payload, []byte("\n"))
	if len(line) == 0 {
		// A worker that cancelled or panicked the cell truncates its
		// stream after the 200 header; an empty body is that signal.
		return nil, fmt.Errorf("worker %s: truncated cell stream", l.url)
	}
	if bytes.ContainsRune(line, '\n') {
		return nil, fmt.Errorf("worker %s: expected one cell line, got several", l.url)
	}
	return line, nil
}
