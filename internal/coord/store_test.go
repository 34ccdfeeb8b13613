package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
)

// notifyCtx reports, by closing waiting, the first time a caller asks
// for Done — in Store.GetOrDo, the moment a waiter starts waiting on a
// flight.
type notifyCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newNotifyCtx(parent context.Context) *notifyCtx {
	return &notifyCtx{Context: parent, waiting: make(chan struct{})}
}

func (c *notifyCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

func line(n int) []byte { return []byte(fmt.Sprintf(`{"n":%d}`, n)) }

// checkpointKeys reads the checkpoint file's fingerprints in order; the
// lines the tests checkpoint hold no newline.
func checkpointKeys(t *testing.T, dir string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, rec := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		keys = append(keys, strings.Fields(rec)[1])
	}
	return keys
}

func TestStoreBoundHoldsWithJournal(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 2)
	for i := 1; i <= 3; i++ {
		put(t, s, fmt.Sprintf("fp-%d", i), line(i))
	}
	if st := s.JournalStats(); st.Cells != 2 || st.Appends != 3 {
		t.Fatalf("stats = %+v, want 2 resident cells of 3 appended", st)
	}
	if _, ok := lookup(s, "fp-1"); ok {
		t.Error("the coldest entry outlived the bound")
	}
	// The next checkpoint drops the evicted cell from the durable set.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, 100)
	if st := s2.JournalStats(); st.Resumed != 2 {
		t.Fatalf("resumed %d cells after checkpoint, want the 2 resident ones", st.Resumed)
	}
	if _, ok := lookup(s2, "fp-1"); ok {
		t.Error("an evicted cell survived the checkpoint")
	}
}

func TestStoreReplayKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	for i := 1; i <= 5; i++ {
		put(t, s, fmt.Sprintf("fp-%d", i), line(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, 3)
	if st := s2.JournalStats(); st.Cells != 3 || st.Resumed != 3 {
		t.Fatalf("stats = %+v, want 3 of the 5 journaled cells resumed", st)
	}
	for i := 1; i <= 5; i++ {
		if _, ok := lookup(s2, fmt.Sprintf("fp-%d", i)); ok != (i > 2) {
			t.Errorf("fp-%d resident = %v, want only the newest three", i, ok)
		}
	}
}

func TestStoreCheckpointWritesResidentColdestFirst(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 3)
	for _, fp := range []string{"a", "b", "c"} {
		put(t, s, fp, []byte(fp))
	}
	put(t, s, "a", []byte("a")) // a hit: a becomes the hottest
	put(t, s, "d", []byte("d")) // evicts b, now the coldest
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(checkpointKeys(t, dir))
	if want := "[c a d]"; got != want {
		t.Fatalf("checkpoint order = %s, want %s (resident, coldest first)", got, want)
	}
	// Replay restores recency: the next eviction takes c.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTestStore(t, dir, 3)
	put(t, s2, "e", []byte("e"))
	if _, ok := lookup(s2, "c"); ok {
		t.Error("replay lost recency: the coldest checkpointed entry was not evicted first")
	}
}

// TestStoreHitOrigins: a hit on a replayed line is a resume; a hit on a
// line this process produced, or a wait on a shared flight, is a dedup.
func TestStoreHitOrigins(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "old", []byte("old"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	fail := func() ([]byte, error) { return nil, errors.New("must not dispatch") }
	ctx := context.Background()
	if _, from, err := s2.GetOrDo(ctx, "old", fail); err != nil || from != cache.Resumed {
		t.Errorf("replayed hit: origin %v, err %v; want Resumed", from, err)
	}
	if _, from, _ := s2.GetOrDo(ctx, "new", func() ([]byte, error) { return []byte("new"), nil }); from != cache.Led {
		t.Errorf("first request: origin %v, want Led", from)
	}
	if _, from, err := s2.GetOrDo(ctx, "new", fail); err != nil || from != cache.Hit {
		t.Errorf("repeat of a cell completed in this process: origin %v, err %v; want Hit (a dedup)", from, err)
	}

	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s2.GetOrDo(ctx, "shared", func() ([]byte, error) { close(started); <-release; return []byte("shared"), nil })
	}()
	<-started
	wctx := newNotifyCtx(ctx)
	go func() { <-wctx.waiting; close(release) }()
	if l, from, err := s2.GetOrDo(wctx, "shared", fail); err != nil || string(l) != "shared" || from != cache.Shared {
		t.Errorf("coalesced wait: %q, origin %v, err %v; want the leader's line, Shared (a dedup)", l, from, err)
	}
	<-leaderDone
}

func TestStoreFailedLeaderLetsWaiterReLead(t *testing.T) {
	s := newStore(100, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrDo(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return nil, errors.New("worker hiccup")
		})
		leaderErr <- err
	}()
	<-started
	ctx := newNotifyCtx(context.Background())
	go func() { <-ctx.waiting; close(release) }()
	got, from, err := s.GetOrDo(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(got) != "ok" || from != cache.Led {
		t.Fatalf("waiter after a failed leader: %q, origin %v, err %v; want its own dispatch", got, from, err)
	}
	if err := <-leaderErr; err == nil {
		t.Error("leader's failure was not reported to the leader")
	}
}

// TestStorePanickingLeaderReleasesKey: a do that panics must not leave
// its key's flight behind. The panic reaches the leader's own caller; a
// waiter on the flight, and every later request for the key, re-leads
// and returns instead of waiting until its ctx dies.
func TestStorePanickingLeaderReleasesKey(t *testing.T) {
	s := newStore(100, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		s.GetOrDo(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			panic("leader bug")
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wctx := newNotifyCtx(ctx)
	go func() { <-wctx.waiting; close(release) }()
	got, from, err := s.GetOrDo(wctx, "k", func() ([]byte, error) { return []byte("waiter"), nil })
	if err != nil || string(got) != "waiter" || from != cache.Led {
		t.Fatalf("waiter on a panicking leader: %q, origin %v, err %v; want its own dispatch", got, from, err)
	}
	if r := <-recovered; r == nil {
		t.Error("the leader's panic did not reach its caller")
	}

	func() {
		defer func() { recover() }()
		s.GetOrDo(ctx, "k2", func() ([]byte, error) { panic("leader bug") })
	}()
	got, from, err = s.GetOrDo(ctx, "k2", func() ([]byte, error) { return []byte("later"), nil })
	if err != nil || string(got) != "later" || from != cache.Led {
		t.Fatalf("request after a panicked leader: %q, origin %v, err %v; want its own dispatch", got, from, err)
	}
}

func TestStoreWaiterCtxStopsWait(t *testing.T) {
	s := newStore(100, nil)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.GetOrDo(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.GetOrDo(ctx, "k", func() ([]byte, error) { return nil, errors.New("must not lead") }); !errors.Is(err, context.Canceled) {
		t.Errorf("waiter with a cancelled ctx: err %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

func TestNewRejectsNegativeMemoEntries(t *testing.T) {
	if c, err := New(Options{MemoEntries: -1}); err == nil {
		c.Close()
		t.Fatal("New accepted a negative MemoEntries")
	}
}

// TestConcurrentWarmSweepsShareLines repeats one warm sweep from several
// clients at once. Every response must be the cold bytes; under -race
// this also proves that serving shares the store's lines read-only.
func TestConcurrentWarmSweepsShareLines(t *testing.T) {
	wts, _ := newWorker(t)
	cts, _ := newCoord(t, Options{Heartbeat: time.Hour})
	register(t, cts.URL, wts.URL, 2)
	body := fmt.Sprintf(`{"warmup_cycles":%d,"measure_cycles":%d,"sizes":[1024],"modes":["none","full"]}`, tinyWarmup, tinyMeasure)
	code, want := post(t, cts.URL+"/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("cold sweep: status %d", code)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil || string(got) != want {
				t.Errorf("warm repeat diverged (err %v):\n%s\nvs\n%s", err, got, want)
			}
		}()
	}
	wg.Wait()
}
