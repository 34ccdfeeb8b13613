package coord

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/serve"
)

// stubWorker answers each single-cell /v1/sweep at once with a
// synthetic line naming the cell's size and mode, except that a cell
// whose size has a channel in hold waits until that channel closes.
type stubWorker struct {
	hold   map[int]chan struct{}
	served atomic.Int64
}

func (s *stubWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var rq serve.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&rq); err != nil || len(rq.Sizes) != 1 || len(rq.Modes) != 1 {
		http.Error(w, "want a single-cell sweep", http.StatusBadRequest)
		return
	}
	if ch := s.hold[rq.Sizes[0]]; ch != nil {
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
	s.served.Add(1)
	fmt.Fprintln(w, stubLine(rq.Sizes[0], rq.Modes[0]))
}

func stubLine(size int, mode string) string { return fmt.Sprintf(`{"size":%d,"mode":%q}`, size, mode) }

// newStubFleet registers a stub worker with room for every cell at once
// on a coordinator with the given journal dir ("" for none).
func newStubFleet(t *testing.T, stub *stubWorker, journalDir string) (*httptest.Server, *Coordinator) {
	t.Helper()
	wts := httptest.NewServer(stub)
	t.Cleanup(wts.Close)
	cts, c := newCoord(t, Options{Heartbeat: time.Hour, HedgeAfter: -1, JournalDir: journalDir, JournalSync: time.Millisecond})
	register(t, cts.URL, wts.URL, 16)
	return cts, c
}

// TestSweepStreamsBeforeBlocking holds cell k on the worker and requires
// the client to read lines 0..k-1 while it is held: the handler must
// flush what it has before it waits, not buffer the whole sweep.
func TestSweepStreamsBeforeBlocking(t *testing.T) {
	const k = 2 // cell k has size k+1
	release := make(chan struct{})
	cts, _ := newStubFleet(t, &stubWorker{hold: map[int]chan struct{}{k + 1: release}}, "")

	type result struct {
		text string
		err  error
	}
	prefix, rest := make(chan result, 1), make(chan result, 1)
	go func() {
		resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"sizes":[1,2,3,4],"modes":["none"]}`))
		if err != nil {
			prefix <- result{err: err}
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		var head strings.Builder
		for i := 0; i < k; i++ {
			line, err := br.ReadString('\n')
			if err != nil {
				prefix <- result{err: err}
				return
			}
			head.WriteString(line)
		}
		prefix <- result{text: head.String()}
		tail, err := io.ReadAll(br)
		rest <- result{string(tail), err}
	}()

	select {
	case r := <-prefix:
		if want := stubLine(1, "none") + "\n" + stubLine(2, "none") + "\n"; r.err != nil || r.text != want {
			close(release)
			t.Fatalf("lines before the held cell: %q, err %v; want %q", r.text, r.err, want)
		}
	case <-time.After(30 * time.Second):
		close(release)
		t.Fatal("the lines before the held cell never reached the client: the handler buffers instead of streaming")
	}
	close(release)
	r := <-rest
	if want := stubLine(3, "none") + "\n" + stubLine(4, "none") + "\n"; r.err != nil || r.text != want {
		t.Fatalf("lines after the release: %q, err %v; want %q", r.text, r.err, want)
	}
}

// TestWarmSweepNoDispatch: a repeat of a completed sweep is answered
// from the store with the cold bytes, dispatching nothing and counting
// each cell exactly once as deduped; after a restart on the same journal
// the replayed cells count as resume hits instead.
func TestWarmSweepNoDispatch(t *testing.T) {
	const body = `{"sizes":[1,2,3],"modes":["none","full"]}`
	const cells = 6
	stub := &stubWorker{}
	dir := t.TempDir()
	cts, c := newStubFleet(t, stub, dir)
	code, cold := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || strings.Count(cold, "\n") != cells {
		t.Fatalf("cold sweep: status %d, body %q", code, cold)
	}
	if d := c.metrics.dispatched.Load(); d != cells {
		t.Fatalf("cold sweep dispatched %d cells, want %d", d, cells)
	}

	code, warm := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || warm != cold {
		t.Fatalf("warm sweep: status %d, body %q; want the cold bytes %q", code, warm, cold)
	}
	if d := c.metrics.dispatched.Load(); d != cells {
		t.Errorf("warm sweep dispatched %d cells, want 0", d-cells)
	}
	if n := c.metrics.deduped.Load(); n != cells {
		t.Errorf("warm sweep counted %d deduped cells, want exactly %d", n, cells)
	}
	if n := c.metrics.resumeHits.Load(); n != 0 {
		t.Errorf("warm sweep counted %d resume hits; nothing was replayed", n)
	}
	if n := stub.served.Load(); n != cells {
		t.Errorf("the worker served %d cells, want each of the %d once", n, cells)
	}

	// Restart on the same journal: the replayed lines serve the sweep.
	c.Close()
	cts, c = newStubFleet(t, stub, dir)
	code, resumed := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || resumed != cold {
		t.Fatalf("sweep after restart: status %d, body %q; want the cold bytes %q", code, resumed, cold)
	}
	if d := c.metrics.dispatched.Load(); d != 0 {
		t.Errorf("restarted coordinator dispatched %d cells, want 0", d)
	}
	if n := c.metrics.resumeHits.Load(); n != cells {
		t.Errorf("restarted coordinator counted %d resume hits, want exactly %d", n, cells)
	}
	if n := c.metrics.deduped.Load(); n != 0 {
		t.Errorf("restarted coordinator counted %d deduped cells; every hit was a replayed line", n)
	}
}

// FuzzSweepExpand feeds arbitrary /v1/sweep bodies through the
// coordinator's decoding, expansion and key step. Expansion must never
// panic; one body decoded twice must give one cell list and one key
// list; every cell's key must be its cache.Fingerprint, also when taken
// through a key index shared by every input, on the first expansion (a
// miss, or a hit left by an earlier body naming the same cell request)
// and on the repeat (a hit); and the single-cell sweep forwarded to a
// worker must expand there to one cell under the same key, the key its
// answer is stored and journaled under.
func FuzzSweepExpand(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"sizes":[1024,65536]}`,
		`{"seed":3,"warmup_cycles":2000000,"measure_cycles":5000000,"sizes":[1024],"modes":["none"]}`,
		`{"sizes":[64,64],"modes":["FULL","proc","partition","full"]}`,
		`{"cpus":4,"nics":4,"queues":2,"conns":8,"policy":"rss","dir":"rx","quick":true}`,
		`{"mode":"irq","size":128,"sizes":[128]}`,
		`{"workload":"openloop,conns=300","coalesce":"adaptive","faults":"loss,rate=0.01;stall,nic=0,from=2e6,until=2.5e6","sizes":[128]}`,
		`{"sizes":[0]}`,
		`{"sizes":[-1],"modes":[]}`,
		`{"modes":["bogus"]}`,
		`{"faults":"@/etc/hostname"}`,
	} {
		f.Add([]byte(seed))
	}
	expand := func(body []byte) ([]serve.SweepCell, error) {
		var rq serve.SweepRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rq); err != nil {
			return nil, err
		}
		return rq.Expand()
	}
	index := newKeyIndex(1 << 12)
	f.Fuzz(func(t *testing.T, body []byte) {
		cells, err := expand(body)
		again, err2 := expand(body)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("%s: expanded once with err %v, then with err %v", body, err, err2)
		}
		if err != nil {
			return
		}
		if len(again) != len(cells) {
			t.Fatalf("%s: expanded to %d cells, then to %d", body, len(cells), len(again))
		}
		for i, cell := range cells {
			if !reflect.DeepEqual(cell.Req, again[i].Req) {
				t.Fatalf("%s: cell %d forwards %+v, then %+v", body, i, cell.Req, again[i].Req)
			}
			key := cellKey(cell.Cfg)
			if key != cellKey(again[i].Cfg) {
				t.Fatalf("%s: cell %d has two keys", body, i)
			}
			want := cache.Fingerprint(cell.Cfg)
			if key == "" || key != want {
				t.Fatalf("%s: cell %d keyed %q, want its fingerprint %s", body, i, key, want)
			}
			if k := index.key(cell); k != want {
				t.Fatalf("%s: cell %d indexed under %q on the first expansion, want its fingerprint %s", body, i, k, want)
			}
			if k := index.key(again[i]); k != want {
				t.Fatalf("%s: cell %d indexed under %q on the repeat, want its fingerprint %s", body, i, k, want)
			}
			wire, err := json.Marshal(cell.Req.Sweep())
			if err != nil {
				t.Fatal(err)
			}
			fwd, err := expand(wire)
			if err != nil || len(fwd) != 1 {
				t.Fatalf("%s: cell %d forwards as %s, which expands to %d cells (err %v)", body, i, wire, len(fwd), err)
			}
			if k := cellKey(fwd[0].Cfg); k != key {
				t.Fatalf("%s: cell %d is stored under %s, but the worker runs %s, keyed %s", body, i, key, wire, k)
			}
		}
	})
}

// countFingerprints wraps the coordinator's key function for the rest of
// the test and returns the number of keys computed so far.
func countFingerprints(t *testing.T) func() int64 {
	var n atomic.Int64
	orig := fingerprint
	fingerprint = func(cfg core.Config) string {
		n.Add(1)
		return orig(cfg)
	}
	t.Cleanup(func() { fingerprint = orig })
	return n.Load
}

// TestWarmSweepKeysOnce: the cold sweep keys each of its cells once, and
// a repeat of it, or a /v1/run of one of its cells, computes no key at
// all: the index answers every cell the coordinator has keyed before.
func TestWarmSweepKeysOnce(t *testing.T) {
	const body = `{"sizes":[1,2,3],"modes":["none","full"]}`
	const cells = 6
	keyed := countFingerprints(t)
	cts, _ := newStubFleet(t, &stubWorker{}, "")
	code, cold := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || strings.Count(cold, "\n") != cells {
		t.Fatalf("cold sweep: status %d, body %q", code, cold)
	}
	if n := keyed(); n != cells {
		t.Fatalf("cold sweep computed %d keys, want one per cell (%d)", n, cells)
	}
	for i := 0; i < 3; i++ {
		if code, warm := post(t, cts.URL+"/v1/sweep", body); code != http.StatusOK || warm != cold {
			t.Fatalf("warm sweep %d: status %d, body %q; want the cold bytes %q", i, code, warm, cold)
		}
	}
	if code, _ := post(t, cts.URL+"/v1/run", `{"size":2,"mode":"full"}`); code != http.StatusOK {
		t.Fatalf("/v1/run of a swept cell: status %d", code)
	}
	if n := keyed(); n != cells {
		t.Errorf("warm requests computed %d keys, want 0", n-cells)
	}
}

// TestKeyIndexBound runs sweeps on a coordinator whose MemoEntries is
// smaller than the sweep: the index never holds more than that many
// requests, clears when full, and every cell taken through it, on every
// pass, still keys to its own fingerprint.
func TestKeyIndexBound(t *testing.T) {
	const memo = 4
	stub := &stubWorker{}
	wts := httptest.NewServer(stub)
	t.Cleanup(wts.Close)
	cts, c := newCoord(t, Options{Heartbeat: time.Hour, HedgeAfter: -1, MemoEntries: memo})
	register(t, cts.URL, wts.URL, 16)

	rq := serve.SweepRequest{Sizes: []int{1, 2, 3, 4, 5}, Modes: []string{"none", "full"}}
	cells, err := rq.Expand()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		code, out := post(t, cts.URL+"/v1/sweep", string(body))
		if code != http.StatusOK || strings.Count(out, "\n") != len(cells) {
			t.Fatalf("pass %d: status %d, body %q", pass, code, out)
		}
		if n := c.keys.size(); n > memo {
			t.Fatalf("pass %d: the index holds %d requests, bound %d", pass, n, memo)
		}
	}
	cleared := false
	for i, cell := range cells {
		before := c.keys.size()
		if got, want := c.keys.key(cell), cache.Fingerprint(cell.Cfg); got != want {
			t.Fatalf("cell %d keyed %s, want its fingerprint %s", i, got, want)
		}
		if n := c.keys.size(); n > memo {
			t.Fatalf("cell %d: the index holds %d requests, bound %d", i, n, memo)
		} else if n < before {
			cleared = true
		}
	}
	if !cleared {
		t.Error("the index never cleared while keying more cells than its bound")
	}
}

// size reports how many requests the index holds.
func (x *keyIndex) size() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.keys)
}

// TestKeyIndexHitAllocs pins a key-index hit, the warm path of every
// sweep cell, to zero allocations.
func TestKeyIndexHitAllocs(t *testing.T) {
	cells, err := serve.SweepRequest{Sizes: []int{65536}, Modes: []string{"full"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	x := newKeyIndex(16)
	want := x.key(cells[0])
	if n := testing.AllocsPerRun(1000, func() {
		if x.key(cells[0]) != want {
			t.Fatal("the index changed its key")
		}
	}); n != 0 {
		t.Fatalf("%v allocations per index hit, want 0", n)
	}
}

// warmSweepAllocs bounds the allocations of one fully resident 28-cell
// sweep served through ServeHTTP into a recorder, the request and the
// recorder included: decoding, expansion, 28 key-index and store hits,
// and the stream's writes.
const warmSweepAllocs = 100

// TestWarmSweepAllocs pins the coordinator's warm path, the one a
// repeated sweep takes when every cell is resident: its allocations stay
// at warmSweepAllocs, and it starts no goroutine that outlives it.
func TestWarmSweepAllocs(t *testing.T) {
	const body = `{}` // the default grid: 7 sizes × 4 modes
	cts, c := newStubFleet(t, &stubWorker{}, "")
	code, cold := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK || strings.Count(cold, "\n") != 28 {
		t.Fatalf("cold sweep: status %d, body %q", code, cold)
	}
	warm := func() {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Body.String() != cold {
			t.Fatalf("warm sweep: status %d, body %q; want the cold bytes", rec.Code, rec.Body)
		}
	}
	warm()
	// Let the cold sweep's connections and handlers wind down first.
	before := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == before {
			settled++
		} else {
			before, settled = n, 0
		}
	}
	n := testing.AllocsPerRun(100, warm)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after 101 warm sweeps, %d before", after, before)
	}
	if n > warmSweepAllocs {
		t.Errorf("%v allocations per warm 28-cell sweep, want at most %d", n, warmSweepAllocs)
	}
}

// blockingTransport answers the coordinator's single-cell dispatches in
// process: a size-1 cell fails at once with a 500, and any other cell
// blocks until its request context is done, which it records. The
// coordinator's client returns only once RoundTrip does, so a dispatch
// has ended exactly when RoundTrip has.
type blockingTransport struct{ cancelled atomic.Bool }

func (b *blockingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	var rq serve.SweepRequest
	err := json.NewDecoder(r.Body).Decode(&rq)
	r.Body.Close()
	if err != nil || len(rq.Sizes) != 1 {
		return nil, fmt.Errorf("want a single-cell sweep, got %v", err)
	}
	if rq.Sizes[0] == 1 {
		return &http.Response{
			StatusCode: http.StatusInternalServerError,
			Body:       io.NopCloser(strings.NewReader("injected failure\n")),
			Request:    r,
		}, nil
	}
	<-r.Context().Done()
	b.cancelled.Store(true)
	return nil, r.Context().Err()
}

// TestFailedSweepOutlivesNoCell: a sweep whose first cell fails ends
// its stream there, and no cell of it outlives the response. The cell
// still in flight is cancelled before the handler returns, even though
// the request's own context never ends, and nothing is stored or
// journaled after the response.
func TestFailedSweepOutlivesNoCell(t *testing.T) {
	tr := &blockingTransport{}
	c, err := New(Options{
		Workers:     []string{"http://stub"},
		Client:      &http.Client{Transport: tr},
		Heartbeat:   time.Hour,
		Retries:     -1,
		HedgeAfter:  -1,
		JournalDir:  t.TempDir(),
		JournalSync: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // frees the blocked cell if the handler leaves it running

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(`{"sizes":[1,2],"modes":["none"]}`))
	c.ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("sweep with a failed first cell: status %d, body %q; want 200 and an empty stream", rec.Code, rec.Body)
	}
	if !tr.cancelled.Load() {
		t.Error("the response ended while the second cell's dispatch still ran")
	}
	size, _ := c.store.Size()
	appends := c.store.JournalStats().Appends
	time.Sleep(100 * time.Millisecond)
	if after, _ := c.store.Size(); after != size {
		t.Errorf("store grew from %d to %d cells after the response", size, after)
	}
	if after := c.store.JournalStats().Appends; after != appends {
		t.Errorf("journal appends went from %d to %d after the response", appends, after)
	}
}
