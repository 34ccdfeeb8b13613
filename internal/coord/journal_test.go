package coord

import (
	"bytes"
	"context"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// openTestStore opens the journal under dir and replays it into a store
// bounded to maxEntries, as Coordinator.New does.
func openTestStore(t *testing.T, dir string, maxEntries int) *store {
	t.Helper()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return newStore(maxEntries, j)
}

// put completes one cell through the store's dispatch path.
func put(t *testing.T, s *store, fp string, line []byte) {
	t.Helper()
	if _, _, err := s.getOrDo(context.Background(), fp, func() ([]byte, error) { return line, nil }); err != nil {
		t.Fatal(err)
	}
}

// lookup returns fp's resident line without dispatching or touching
// recency.
func lookup(s *store, fp string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[fp]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).line, true
}

// Lines deliberately contain spaces: the record parser must treat the
// payload as opaque bytes, not fields.
var journalLines = map[string][]byte{
	"fp-alpha": []byte(`{"mode":"Full Aff","mbps":123.5}`),
	"fp-beta":  []byte(`{"mode":"No Aff","mbps":88.25}`),
	"fp-gamma": []byte(`{"mode":"Intr Aff","mbps":101.0}`),
}

func fillJournal(t *testing.T, s *store) {
	for fp, line := range journalLines {
		put(t, s, fp, line)
	}
}

func TestJournalReplayAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	fillJournal(t, s)
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	st := s2.journalStats()
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
	if st := s.journalStats(); st.Appends != 1 || st.Cells != 1 {
		t.Fatalf("stats = %+v, want exactly one append for a repeated fingerprint", st)
	}
}

// TestJournalCorruptRecordDiscardsTail mirrors the disk cache's
// CorruptDiscards: a record that fails its CRC — and everything after it,
// since a torn write orphans the tail — is treated as unknown.
func TestJournalCorruptRecordDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, 100)
	put(t, s, "fp-1", []byte(`{"n":1}`))
	put(t, s, "fp-2", []byte(`{"n":2}`))
	put(t, s, "fp-3", []byte(`{"n":3}`))
	if err := s.journal.Close(); err != nil {
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
	st := s2.journalStats()
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
	if err := s.journal.Close(); err != nil {
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
	if st := s2.journalStats(); st.Cells != 1 || st.CorruptDiscards != 1 {
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
	if err := s.checkpoint(); err != nil {
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
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, 100)
	st := s2.journalStats()
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
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	// A stale wal resurrects the fingerprint with different bytes.
	rec := appendRecord(nil, "fp-1", []byte(`{"n":"stale-dup"}`))
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
	if st := s.journalStats(); st != (JournalStats{}) {
		t.Fatalf("journal-less store reports journal state %+v", st)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	var j *Journal
	j.Append("fp", []byte("x"))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// refRecord matches one canonical record line: the magic, a fingerprint
// without spaces, a decimal length and a lower-case hex CRC-32C, both
// without leading zeros, then the payload.
var refRecord = regexp.MustCompile(`^ajl1 ([^ ]*) (0|[1-9][0-9]*) (0|[1-9a-f][0-9a-f]*) (.*)$`)

// refReplay is the fuzz oracle, written apart from readRecord: it
// collects the records of the longest valid prefix of one file into
// want, keeping the first line per fingerprint, and reports whether it
// stopped at an invalid record rather than the end of the file.
func refReplay(file []byte, want map[string]string) (discarded bool) {
	for len(file) > 0 {
		nl := bytes.IndexByte(file, '\n')
		if nl < 0 {
			return true
		}
		m := refRecord.FindSubmatch(file[:nl])
		if m == nil {
			return true
		}
		payload := m[4]
		n, err := strconv.Atoi(string(m[2]))
		if err != nil || n != len(payload) || n > journalMaxLine || strconv.FormatUint(uint64(crc32.Checksum(payload, crcTable)), 16) != string(m[3]) {
			return true
		}
		if _, ok := want[string(m[1])]; !ok {
			want[string(m[1])] = string(payload)
		}
		file = file[nl+1:]
	}
	return false
}

// FuzzJournalReplay opens a store over arbitrary checkpoint and wal
// bytes. Replay must not panic; the resident set must be exactly the
// records of the longest valid prefix of each file, checkpoint first,
// the first line per fingerprint winning; and each file that stops at
// an invalid record must count one discard.
func FuzzJournalReplay(f *testing.F) {
	recs := appendRecord(appendRecord(nil, "fp-1", []byte(`{"n":1}`)), "fp-2", []byte(`{"n":2}`))
	flipped := bytes.Replace(recs, []byte(`{"n":2}`), []byte(`{"n":3}`), 1)
	f.Add([]byte(nil), []byte(nil))
	f.Add(recs, []byte(nil))
	f.Add([]byte(nil), recs[:len(recs)-4])                             // torn tail
	f.Add(appendRecord(nil, "fp-2", []byte(`{"n":"first"}`)), flipped) // flipped CRC, first write wins
	f.Add(recs, appendRecord(nil, "fp-1", []byte(`{"n":"stale-dup"}`)))
	f.Fuzz(func(t *testing.T, checkpoint, wal []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{checkpointName: checkpoint, walName: wal} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := make(map[string]string)
		var discards uint64
		for _, file := range [][]byte{checkpoint, wal} {
			if refReplay(file, want) {
				discards++
			}
		}

		s := openTestStore(t, dir, 1<<20)
		got := make(map[string]string)
		for _, e := range s.resident() {
			got[e.key] = string(e.line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resident set %q, want the valid records %q", got, want)
		}
		if st := s.journalStats(); st.CorruptDiscards != discards || st.Resumed != len(want) {
			t.Fatalf("stats %+v, want %d discards and %d resumed", st, discards, len(want))
		}
	})
}
