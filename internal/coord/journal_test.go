package coord

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
)

// openTestStore opens the journal under dir and replays it into a store
// bounded to maxEntries, as Coordinator.New does.
func openTestStore(t *testing.T, dir string, maxEntries int) *cache.Store[[]byte] {
	t.Helper()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return newStore(maxEntries, j)
}

// put completes one cell through the store's dispatch path.
func put(t *testing.T, s *cache.Store[[]byte], fp string, line []byte) {
	t.Helper()
	if _, _, err := s.GetOrDo(context.Background(), fp, func() ([]byte, error) { return line, nil }); err != nil {
		t.Fatal(err)
	}
}

// lookup returns fp's resident line without dispatching.
func lookup(s *cache.Store[[]byte], fp string) ([]byte, bool) {
	line, _, ok := s.Get(fp)
	return line, ok
}

// record renders one journal record the way the journal writes it.
func record(fp, line string) []byte {
	crc := crc32.Checksum([]byte(line), crc32.MakeTable(crc32.Castagnoli))
	return []byte(fmt.Sprintf("ajl1 %s %d %x %s\n", fp, len(line), crc, line))
}

// Lines deliberately contain spaces: the record parser must treat the
// payload as opaque bytes, not fields.
var journalLines = map[string][]byte{
	"fp-alpha": []byte(`{"mode":"Full Aff","mbps":123.5}`),
	"fp-beta":  []byte(`{"mode":"No Aff","mbps":88.25}`),
	"fp-gamma": []byte(`{"mode":"Intr Aff","mbps":101.0}`),
}

func fillJournal(t *testing.T, s *cache.Store[[]byte]) {
	for fp, line := range journalLines {
		put(t, s, fp, line)
	}
}

func TestJournalReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	fillJournal(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	st := s2.JournalStats()
	if st.Cells != 3 || st.Resumed != 3 {
		t.Fatalf("stats after reopen = %+v, want 3 cells all resumed", st)
	}
	for fp, want := range journalLines {
		got, ok := lookup(s2, fp)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s) = %q, %v; want the journaled bytes back verbatim", fp, got, ok)
		}
	}
}

func TestJournalAppendIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "fp-dup", []byte(`{"a":1}`))
	put(t, s, "fp-dup", []byte(`{"a":1}`))
	if st := s.JournalStats(); st.Appends != 1 || st.Cells != 1 {
		t.Fatalf("stats = %+v, want exactly one append for a repeated fingerprint", st)
	}
}

// TestJournalCorruptRecordDiscardsTail: a record that fails its CRC —
// and everything after it, since a torn write orphans the tail — is
// treated as unknown.
func TestJournalCorruptRecordDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "fp-1", []byte(`{"n":1}`))
	put(t, s, "fp-2", []byte(`{"n":2}`))
	put(t, s, "fp-3", []byte(`{"n":3}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(dir, "wal")
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle record.
	mid := bytes.Index(raw, []byte(`{"n":2}`))
	if mid < 0 {
		t.Fatal("middle record not found in wal")
	}
	raw[mid+5] ^= 0x01
	if err := os.WriteFile(wal, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	st := s2.JournalStats()
	if st.Cells != 1 || st.CorruptDiscards != 1 {
		t.Fatalf("stats = %+v, want only the record before the corruption to survive", st)
	}
	if _, ok := lookup(s2, "fp-1"); !ok {
		t.Error("record before the corruption lost")
	}
	if _, ok := lookup(s2, "fp-3"); ok {
		t.Error("record after the corruption served; the tail must be discarded")
	}
}

func TestJournalTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "fp-1", []byte(`{"n":1}`))
	put(t, s, "fp-2", []byte(`{"n":2}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	wal := filepath.Join(dir, "wal")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-write, as a crash would.
	if err := os.Truncate(wal, st.Size()-4); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	if st := s2.JournalStats(); st.Cells != 1 || st.CorruptDiscards != 1 {
		t.Fatalf("stats = %+v, want the torn record discarded", st)
	}
	if _, ok := lookup(s2, "fp-1"); !ok {
		t.Error("intact record lost with the torn tail")
	}
}

func TestJournalCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	fillJournal(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(filepath.Join(dir, "wal")); err != nil || st.Size() != 0 {
		t.Fatalf("wal not truncated by checkpoint (err=%v size=%d)", err, st.Size())
	}
	if st, err := os.Stat(filepath.Join(dir, "checkpoint")); err != nil || st.Size() == 0 {
		t.Fatalf("checkpoint file missing or empty (err=%v)", err)
	}
	// Post-checkpoint appends land in the fresh wal.
	put(t, s, "fp-post", []byte(`{"n":4}`))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	st := s2.JournalStats()
	if st.Cells != 4 || st.Resumed != 4 {
		t.Fatalf("stats after checkpoint+append reopen = %+v, want 4 cells", st)
	}
}

// TestJournalFirstWriteWins: a crash between checkpoint-rename and
// wal-truncate leaves a fingerprint in both files; replay must keep the
// checkpoint's (first-written) line. The determinism guarantee makes
// the duplicate byte-identical in practice — this pins the tie-break
// anyway so a violated guarantee cannot flap a resumed sweep.
func TestJournalFirstWriteWins(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "fp-1", []byte(`{"n":"original"}`))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A stale wal resurrects the fingerprint with different bytes.
	rec := record("fp-1", `{"n":"stale-dup"}`)
	if err := os.WriteFile(filepath.Join(dir, "wal"), rec, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	got, ok := lookup(s2, "fp-1")
	if !ok || string(got) != `{"n":"original"}` {
		t.Fatalf("Get = %q, %v; want the checkpoint's line to win", got, ok)
	}
}

// TestJournalNilIsInert: a store without a journal serves from memory
// and reports the journal disabled.
func TestJournalNilIsInert(t *testing.T) {
	s := newStore(100, nil)
	put(t, s, "fp", []byte("x"))
	if _, ok := lookup(s, "fp"); !ok {
		t.Fatal("memory-only store lost a line")
	}
	if st := s.JournalStats(); st != (cache.JournalStats{}) {
		t.Fatalf("journal-less store reports journal state %+v", st)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var j *Journal
	j.Append("fp", []byte("x"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplaysAjl1Fixture: testdata/journal_ajl1 is a journal
// directory written by the coordinator before its store moved into
// internal/cache — a checkpoint of four cells, then a wal of two. It must
// replay into the same resident set, coldest first, so no journal an
// earlier build wrote is lost.
func TestJournalReplaysAjl1Fixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"checkpoint", "wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "journal_ajl1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTestStore(t, dir, 100)
	if st := s.JournalStats(); st.Resumed != 6 || st.CorruptDiscards != 0 {
		t.Fatalf("stats = %+v, want 6 resumed cells and no discard", st)
	}
	// Recency survives too: a checkpoint writes the replayed order back.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 1; i <= 6; i++ {
		want = append(want, fmt.Sprintf("%064x", i*0x1111))
	}
	if got := checkpointKeys(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("checkpoint order %v, want %v", got, want)
	}
	for i, fp := range want {
		line := fmt.Sprintf(`{"cell":%d,"mode":"Full Aff","mbps":%d.5}`, i+1, 101+i)
		if i >= 4 {
			line = fmt.Sprintf(`{"cell":%d,"mode":"No Aff","mbps":%d.25}`, i+1, 101+i)
		}
		if got, ok := lookup(s, fp); !ok || string(got) != line {
			t.Errorf("cell %d: %q, %v; want %q", i+1, got, ok, line)
		}
	}
}
