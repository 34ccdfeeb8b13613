package cache

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/ttcp"
)

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

// quickCfg is a real but small simulation cell, fast enough to run a
// handful of times per test.
func quickCfg(seed uint64) core.Config {
	cfg := core.DefaultConfig(core.ModeNone, ttcp.TX, 65536)
	cfg.Seed = seed
	cfg.WarmupCycles = 2_000_000
	cfg.MeasureCycles = 5_000_000
	return cfg
}

func TestGetOrRunMemoizes(t *testing.T) {
	c := New(DefaultMaxBytes, "")
	cfg := quickCfg(1)
	first := c.Run(cfg)
	second := c.Run(cfg)
	if first != second {
		t.Error("second lookup should return the memoized *Result")
	}
	st := c.Stats()
	if st.Sims != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 sim, 1 hit, 1 miss", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("LRU should hold 1 sized entry, got %d entries %d bytes", st.Entries, st.Bytes)
	}

	// A result-affecting difference must simulate again.
	other := c.Run(quickCfg(2))
	if other == first {
		t.Error("different seed returned the same cached result")
	}
	if got := c.Stats().Sims; got != 2 {
		t.Errorf("sims = %d, want 2", got)
	}
}

func TestCachedResultRendersIdentically(t *testing.T) {
	c := New(DefaultMaxBytes, "")
	cfg := quickCfg(1)
	fresh := core.Run(cfg)
	cached := c.Run(cfg) // miss: simulates
	again := c.Run(cfg)  // hit

	freshJSON, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*core.Result{"miss": cached, "hit": again} {
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if j != freshJSON {
			t.Errorf("%s: JSON differs from a fresh simulation", name)
		}
		if r.CSVRow() != fresh.CSVRow() {
			t.Errorf("%s: CSV row differs from a fresh simulation", name)
		}
		if r.String() != fresh.String() {
			t.Errorf("%s: String differs from a fresh simulation", name)
		}
		if got, want := core.BaselineTable(r).Format(), core.BaselineTable(fresh).Format(); got != want {
			t.Errorf("%s: Table 1 rendering differs from a fresh simulation", name)
		}
	}
}

// TestSingleflight launches many concurrent identical requests and
// requires exactly one simulation: the acceptance criterion for request
// deduplication.
func TestSingleflight(t *testing.T) {
	c := New(DefaultMaxBytes, "")
	cfg := quickCfg(1)
	const concurrent = 32
	results := make([]*core.Result, concurrent)
	var wg sync.WaitGroup
	wg.Add(concurrent)
	for i := 0; i < concurrent; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.Run(cfg)
		}(i)
	}
	wg.Wait()
	for i := 1; i < concurrent; i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d got a different *Result", i)
		}
	}
	st := c.Stats()
	if st.Sims != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want exactly 1", concurrent, st.Sims)
	}
	if st.Hits+st.Coalesced+st.Misses != concurrent {
		t.Errorf("lookup accounting %d hits + %d coalesced + %d misses != %d requests",
			st.Hits, st.Coalesced, st.Misses, concurrent)
	}
	if st.Inflight != 0 {
		t.Errorf("inflight = %d after all requests returned", st.Inflight)
	}
}

// fakeResult builds a synthetic Result of a controllable approximate
// size, so LRU bounds are testable without real simulations.
func fakeResult(utilLen int) *core.Result {
	return &core.Result{Util: make([]float64, utilLen)}
}

func TestLRUEvictsByBytes(t *testing.T) {
	// Each fake entry is 512 fixed + 1000*8 = 8512 bytes; bound to ~2.5
	// entries worth so the third insert evicts the coldest.
	c := New(3*8512-1, "")
	run := func(i uint64) {
		cfg := quickCfg(i)
		res := c.GetOrRun(cfg, func(core.Config) *core.Result { return fakeResult(1000) })
		if res == nil {
			t.Fatal("nil result")
		}
	}
	run(1)
	run(2)
	run(3) // evicts seed 1
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after 3 inserts into a 2-entry bound: %d evictions, %d entries; want 1, 2", st.Evictions, st.Entries)
	}
	if st.Bytes > c.maxBytes {
		t.Errorf("bytes %d exceed bound %d", st.Bytes, c.maxBytes)
	}

	// Seed 2 and 3 are resident; seed 1 was evicted and must re-run.
	before := c.Stats().Misses
	run(2)
	run(3)
	if got := c.Stats().Hits; got != 2 {
		t.Errorf("hits = %d, want 2 for resident entries", got)
	}
	run(1)
	if got := c.Stats().Misses; got != before+1 {
		t.Errorf("evicted entry should miss: misses %d -> %d", before, got)
	}
}

func TestOversizedEntryNotAdmitted(t *testing.T) {
	c := New(1024, "")
	cfg := quickCfg(1)
	c.GetOrRun(cfg, func(core.Config) *core.Result { return fakeResult(10_000) })
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("an entry larger than the whole bound was admitted: %+v", st)
	}
}

func TestUncacheableBypassesCache(t *testing.T) {
	c := New(DefaultMaxBytes, "")
	cfg := quickCfg(1)
	cfg.Trace = &trace.Config{Capacity: 1024}
	calls := 0
	stub := func(core.Config) *core.Result { calls++; return fakeResult(1) }
	c.GetOrRun(cfg, stub)
	c.GetOrRun(cfg, stub)
	if calls != 2 {
		t.Errorf("traced config should run every time, ran %d of 2", calls)
	}
	if st := c.Stats(); st.Hits+st.Misses+st.Sims != 0 {
		t.Errorf("uncacheable lookups should not touch the cache: %+v", st)
	}
}

func TestNilCachePassthrough(t *testing.T) {
	var c *Cache
	calls := 0
	res := c.GetOrRun(quickCfg(1), func(core.Config) *core.Result { calls++; return fakeResult(1) })
	if res == nil || calls != 1 {
		t.Errorf("nil cache should call run exactly once, got %d calls", calls)
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats should be zero, got %+v", st)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(1)

	warm := New(DefaultMaxBytes, dir)
	fresh := warm.Run(cfg)
	if st := warm.Stats(); st.Sims != 1 || st.DiskErrors != 0 {
		t.Fatalf("warming run: %+v", st)
	}

	// A second cache over the same directory — a fresh process — must
	// serve the result from disk without simulating, and the restored
	// result must render byte-identically everywhere.
	cold := New(DefaultMaxBytes, dir)
	restored := cold.Run(cfg)
	st := cold.Stats()
	if st.Sims != 0 || st.DiskHits != 1 {
		t.Fatalf("cold cache should disk-hit without simulating: %+v", st)
	}
	freshJSON, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}
	restoredJSON, err := restored.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if restoredJSON != freshJSON {
		t.Error("restored JSON differs from the fresh simulation")
	}
	if restored.CSVRow() != fresh.CSVRow() {
		t.Error("restored CSV row differs")
	}
	if restored.String() != fresh.String() {
		t.Error("restored String differs")
	}
	if got, want := core.BaselineTable(restored).Format(), core.BaselineTable(fresh).Format(); got != want {
		t.Error("restored Table 1 rendering differs")
	}
	if got, want := core.Compare(fresh, restored).Format(), core.Compare(fresh, fresh).Format(); got != want {
		t.Error("restored result is not interchangeable with the fresh one in comparisons")
	}
}

func TestDiskStoreDiscardsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(1)
	key := Fingerprint(cfg)
	// An intact journal record whose payload is not an encoded Result.
	if err := writeFile(filepath.Join(dir, walName), appendRecord(nil, key, []byte("not a Result"))); err != nil {
		t.Fatal(err)
	}
	c := New(DefaultMaxBytes, dir)
	res := c.Run(cfg)
	if res == nil {
		t.Fatal("corrupt disk entry should fall through to simulation")
	}
	st := c.Stats()
	if st.Sims != 1 || st.CorruptDiscards != 1 {
		t.Errorf("corrupt entry: want 1 sim and 1 corrupt discard, got %+v", st)
	}
	if st.DiskErrors != 0 {
		t.Errorf("discarding a corrupt entry is not a disk error, got %+v", st)
	}
	// The leader's re-simulation must have replaced the bad bytes with a
	// decodable entry: a fresh cache over the directory disk-hits.
	cold := New(DefaultMaxBytes, dir)
	if cold.Run(cfg) == nil {
		t.Fatal("reload after discard")
	}
	if cst := cold.Stats(); cst.Sims != 0 || cst.DiskHits != 1 || cst.CorruptDiscards != 0 {
		t.Errorf("replacement entry should disk-hit cleanly: %+v", cst)
	}
}

// TestStaleGobEntryIgnored: a directory an older build filled with one
// gob file per key is not a journal. Its files are ignored: the key is a
// clean miss, with no disk error and nothing discarded.
func TestStaleGobEntryIgnored(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(1)
	if err := writeFile(filepath.Join(dir, Fingerprint(cfg)+".gob"), []byte("gob bytes of an older build")); err != nil {
		t.Fatal(err)
	}
	c := New(DefaultMaxBytes, dir)
	if c.Run(cfg) == nil {
		t.Fatal("nil result")
	}
	if st := c.Stats(); st.Sims != 1 || st.DiskHits != 0 || st.DiskErrors != 0 || st.CorruptDiscards != 0 {
		t.Errorf("stale gob entry: want a clean miss and 1 sim, got %+v", st)
	}
}

// TestCorruptEntryUnderConcurrentReaders is the pathology the discard
// path exists for: a journal whose record was torn (a process crashed
// mid-write, or the disk ate the tail) hit by many readers at once.
// Every waiter must get a valid result, the key must simulate exactly
// once, and the torn bytes must be compacted away at open — not
// re-read by each new process forever, nor left to swallow the records
// appended after them.
func TestCorruptEntryUnderConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(1)

	// Persist a good entry, then truncate the journal to half its bytes.
	seed := New(DefaultMaxBytes, dir)
	want, err := seed.Run(cfg).JSON()
	if err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, walName)
	good, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(wal, good[:len(good)/2]); err != nil {
		t.Fatal(err)
	}

	c := New(DefaultMaxBytes, dir)
	const readers = 16
	results := make([]*core.Result, readers)
	var wg sync.WaitGroup
	wg.Add(readers)
	for i := 0; i < readers; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = c.Run(cfg)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r == nil {
			t.Fatalf("reader %d got nil", i)
		}
		got, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("reader %d: result differs from the pre-corruption simulation", i)
		}
	}
	st := c.Stats()
	if st.Sims != 1 {
		t.Errorf("truncated entry re-simulated %d times across %d readers, want exactly 1", st.Sims, readers)
	}
	if st.CorruptDiscards < 1 {
		t.Errorf("no corrupt discard recorded: %+v", st)
	}
	// The re-simulation rewrote the entry; a later process must read it.
	later := New(DefaultMaxBytes, dir)
	later.Run(cfg)
	if lst := later.Stats(); lst.DiskHits != 1 || lst.CorruptDiscards != 0 {
		t.Errorf("rewritten entry should serve clean disk hits: %+v", lst)
	}
}

// TestDiskStoreRoundTripFaulted replays a faulted cell through a cold
// cache: the restored Result must carry the degradation metrics and the
// invariant verdict bit-identically — a disk hit that silently zeroed
// Retransmits or dropped the violation string would make a faulted
// sweep's rendering depend on cache temperature.
func TestDiskStoreRoundTripFaulted(t *testing.T) {
	dir := t.TempDir()
	cfg := quickCfg(1)
	sched, err := fault.Parse("loss,rate=0.005")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sched

	warm := New(DefaultMaxBytes, dir)
	fresh := warm.Run(cfg)
	if fresh.WireDrops == 0 || !fresh.InvariantsChecked {
		t.Fatalf("faulted warming run should drop frames and check invariants: drops=%d checked=%v",
			fresh.WireDrops, fresh.InvariantsChecked)
	}
	if fresh.InvariantViolation != "" {
		t.Fatalf("invariant violation: %s", fresh.InvariantViolation)
	}

	cold := New(DefaultMaxBytes, dir)
	restored := cold.Run(cfg)
	if st := cold.Stats(); st.Sims != 0 || st.DiskHits != 1 {
		t.Fatalf("cold cache should disk-hit without simulating: %+v", st)
	}
	if restored.Retransmits != fresh.Retransmits ||
		restored.WireDrops != fresh.WireDrops ||
		restored.WireBytes != fresh.WireBytes ||
		restored.GoodputRatio != fresh.GoodputRatio ||
		!reflect.DeepEqual(restored.FlapRecoveryCycles, fresh.FlapRecoveryCycles) ||
		restored.InvariantsChecked != fresh.InvariantsChecked ||
		restored.InvariantViolation != fresh.InvariantViolation {
		t.Errorf("restored degradation metrics differ:\n fresh:    %+v %+v\n restored: %+v %+v",
			[]uint64{fresh.Retransmits, fresh.WireDrops, fresh.WireBytes}, fresh.GoodputRatio,
			[]uint64{restored.Retransmits, restored.WireDrops, restored.WireBytes}, restored.GoodputRatio)
	}
	freshJSON, err := fresh.JSON()
	if err != nil {
		t.Fatal(err)
	}
	restoredJSON, err := restored.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if restoredJSON != freshJSON {
		t.Error("restored faulted JSON differs from the fresh simulation")
	}
}

// TestArc1JournalReplaysAsDiscards: testdata/journal_arc1 is a worker
// journal written before the engine's Stats lost its Cancelled and
// Compactions counters — a checkpoint of the cells quickCfg(1) and
// quickCfg(2), then a wal holding quickCfg(3), every payload an arc1
// Result. Under the current layout no such payload decodes: opening the
// journal discards every record, a lookup of one of its keys simulates
// again rather than serving the old bytes, and the checkpoint that
// follows holds only current-layout payloads.
func TestArc1JournalReplaysAsDiscards(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{checkpointName, walName} {
		data, err := os.ReadFile(filepath.Join("testdata", "journal_arc1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFile(filepath.Join(dir, name), data); err != nil {
			t.Fatal(err)
		}
	}
	c := New(DefaultMaxBytes, dir)
	if st := c.Stats(); st.CorruptDiscards != 3 || st.Entries != 0 {
		t.Fatalf("opened an arc1 journal: %+v, want 3 corrupt discards and nothing resident", st)
	}
	want := &core.Result{ElapsedCycles: 7, Bytes: 42}
	ran := 0
	got := c.GetOrRun(quickCfg(2), func(core.Config) *core.Result { ran++; return want })
	if ran != 1 || got != want {
		t.Fatalf("lookup of an arc1 key served %+v without simulating (runs %d)", got, ran)
	}
	if st := c.Stats(); st.Sims != 1 || st.DiskHits != 0 {
		t.Fatalf("after the lookup: %+v, want 1 sim and no disk hit", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(bytes.NewReader(data))
	n := 0
	for {
		fp, payload, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if fp != Fingerprint(quickCfg(2)) || !bytes.HasPrefix(payload, []byte(resultMagic)) {
			t.Errorf("checkpoint record %s opens with %q, want the re-simulated cell under %q", fp, payload[:min(4, len(payload))], resultMagic)
		}
	}
	if n != 1 {
		t.Fatalf("checkpoint holds %d records, want the one re-simulated cell", n)
	}
}
