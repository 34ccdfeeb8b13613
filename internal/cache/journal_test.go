package cache

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
// of raw lines bounded to maxEntries, the coordinator's shape.
func openTestStore(t *testing.T, dir string, maxEntries int) *Store[[]byte] {
	t.Helper()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return NewStore(int64(maxEntries), func([]byte) int64 { return 1 }, j,
		func(line []byte) []byte { return line }, func(line []byte) ([]byte, error) { return line, nil })
}

// TestJournalOversizedAppendRefused: replay refuses a record over
// journalMaxLine and discards the rest of its file, so Append must
// refuse one too — counted as a write error — or a single oversized
// payload would lose every record appended after it.
func TestJournalOversizedAppendRefused(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	j.Append("fp-big", bytes.Repeat([]byte("x"), journalMaxLine+1))
	j.Append("fp-small", []byte(`{"n":1}`))
	if st := j.Stats(); st.WriteErrors != 1 || st.Appends != 1 {
		t.Errorf("stats = %+v, want the oversized payload refused as 1 write error", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, dir, 100)
	if _, _, ok := s.Get("fp-small"); !ok {
		t.Error("the record appended after an oversized payload was lost")
	}
	if st := s.JournalStats(); st.CorruptDiscards != 0 || st.Resumed != 1 {
		t.Errorf("stats after reopen = %+v, want 1 resumed cell and no discard", st)
	}
}

// refHeader matches one canonical record header: the magic, a
// fingerprint without spaces, a decimal length and a lower-case hex
// CRC-32C, both without leading zeros, each followed by a space.
var refHeader = regexp.MustCompile(`^ajl1 ([^ ]*) (0|[1-9][0-9]*) (0|[1-9a-f][0-9a-f]*) `)

// refReplay is the fuzz oracle, written apart from readRecord: it
// collects the records of the longest valid prefix of one file into
// want, keeping the first payload per fingerprint, and reports whether
// it stopped at an invalid record rather than the end of the file. A
// payload is the <len> bytes after the header, newlines included, and
// must be followed by a newline.
func refReplay(file []byte, want map[string]string) (discarded bool) {
	for len(file) > 0 {
		m := refHeader.FindSubmatch(file)
		if m == nil {
			return true
		}
		n, err := strconv.Atoi(string(m[2]))
		if err != nil || n > journalMaxLine || len(m[0])+n >= len(file) || file[len(m[0])+n] != '\n' {
			return true
		}
		payload := file[len(m[0]) : len(m[0])+n]
		if strconv.FormatUint(uint64(crc32.Checksum(payload, crcTable)), 16) != string(m[3]) {
			return true
		}
		if _, ok := want[string(m[1])]; !ok {
			want[string(m[1])] = string(payload)
		}
		file = file[len(m[0])+n+1:]
	}
	return false
}

// FuzzJournalReplay opens a store over arbitrary checkpoint and wal
// bytes. Replay must not panic; the resident set must be exactly the
// records of the longest valid prefix of each file, checkpoint first,
// the first payload per fingerprint winning; and each file that stops at
// an invalid record must count one discard.
func FuzzJournalReplay(f *testing.F) {
	recs := appendRecord(appendRecord(nil, "fp-1", []byte(`{"n":1}`)), "fp-2", []byte(`{"n":2}`))
	flipped := bytes.Replace(recs, []byte(`{"n":2}`), []byte(`{"n":3}`), 1)
	f.Add([]byte(nil), []byte(nil))
	f.Add(recs, []byte(nil))
	f.Add([]byte(nil), recs[:len(recs)-4])                             // torn tail
	f.Add(appendRecord(nil, "fp-2", []byte(`{"n":"first"}`)), flipped) // flipped CRC, first write wins
	f.Add(recs, appendRecord(nil, "fp-1", []byte(`{"n":"stale-dup"}`)))
	f.Add(appendRecord(nil, "fp-nl", []byte("a\nb \n")), recs) // binary payload with newlines and spaces
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
			got[e.key] = string(e.val)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("resident set %q, want the valid records %q", got, want)
		}
		if st := s.JournalStats(); st.CorruptDiscards != discards || st.Resumed != len(want) {
			t.Fatalf("stats %+v, want %d discards and %d resumed", st, discards, len(want))
		}
	})
}

// TestAppendThenRunsAfterTheRecordUnderTheLock: appendThen's callback
// finds the record already in the wal and the journal lock still held,
// so a checkpoint cannot fall between the record and what the callback
// publishes.
func TestAppendThenRunsAfterTheRecordUnderTheLock(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ran := false
	j.appendThen("fp-1", []byte(`{"n":1}`), func() {
		ran = true
		wal, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		refReplay(wal, got)
		if got["fp-1"] != `{"n":1}` {
			t.Errorf("callback ran before the record was written: wal holds %q", wal)
		}
		if j.mu.TryLock() {
			j.mu.Unlock()
			t.Error("callback ran without the journal lock")
		}
	})
	if !ran {
		t.Fatal("callback never ran")
	}
}

// TestLedValueResidentOnlyOnceJournaled: a led value is not resident
// while its record is being made, and is both resident and journaled
// when GetOrDo returns — Size never counts a cell the journal lacks.
func TestLedValueResidentOnlyOnceJournaled(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var s *Store[[]byte]
	encoded := false
	encode := func(line []byte) []byte {
		encoded = true
		if n, _ := s.Size(); n != 0 {
			t.Errorf("the value is resident (%d entries) before its record is written", n)
		}
		return line
	}
	s = NewStore(100, func([]byte) int64 { return 1 }, j, encode,
		func(line []byte) ([]byte, error) { return line, nil })
	if _, _, err := s.GetOrDo(context.Background(), "fp-1", func() ([]byte, error) { return []byte(`{"n":1}`), nil }); err != nil {
		t.Fatal(err)
	}
	if !encoded {
		t.Fatal("the led value was never journaled")
	}
	if n, _ := s.Size(); n != 1 {
		t.Fatalf("%d entries resident after GetOrDo, want 1", n)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	refReplay(wal, got)
	if got["fp-1"] != `{"n":1}` {
		t.Errorf("resident value missing from the wal: %q", wal)
	}
}
