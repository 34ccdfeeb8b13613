package cache

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Journal is the file format behind a Store: one append-only record per
// completed fingerprint holding its payload (a coordinator's raw NDJSON
// line, a worker's encoded Result). It keeps no payloads in memory; the
// store replays it at startup, appends each first insert, and
// checkpoints its resident entries. Because a journaled payload is the
// exact bytes the store held, replaying it after a crash cannot perturb
// a merged sweep by a single byte: a restarted process serves journaled
// cells straight from memory and recomputes only the remainder.
//
// Layout under dir:
//
//	checkpoint   the last compaction — a complete, atomically renamed
//	             record file (write temp + fsync + rename)
//	wal          records appended since that checkpoint
//
// Appends write straight through to the wal file (one write syscall per
// record, so a crashed process loses nothing the kernel accepted) and
// are fsynced in batches by a background syncer — group commit. The only
// exposure is power loss inside one sync interval, and losing an
// unsynced tail is safe: those cells are simply unknown again and
// recompute deterministically.
//
// Recovery: a record that fails its length or CRC check — and
// everything after it, since a torn write orphans the tail — is
// discarded and counted, never served. Files are read only at open, so
// two live processes sharing a directory see each other's new entries
// only after a restart.
type Journal struct {
	dir string

	mu       sync.Mutex
	wal      *os.File
	walBytes int64
	dirty    bool
	closed   bool

	appends        atomic.Uint64
	discards       atomic.Uint64
	checkpoints    atomic.Uint64
	writeErrors    atomic.Uint64
	lastCheckpoint atomic.Int64 // unix nanos, 0 = never this process

	syncStop chan struct{}
	syncDone chan struct{}
}

const (
	journalMagic   = "ajl1"
	checkpointName = "checkpoint"
	walName        = "wal"
	// journalMaxLine bounds one record's payload, matching the dispatch
	// path's response cap; replay refuses more, so writes do too.
	journalMaxLine = 16 << 20
)

// OpenJournal opens (creating if needed) the journal under dir and
// starts the group-commit syncer. syncEvery is the fsync batching
// interval; 0 selects 100ms.
func OpenJournal(dir string, syncEvery time.Duration) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if syncEvery <= 0 {
		syncEvery = 100 * time.Millisecond
	}
	j := &Journal{
		dir:      dir,
		syncStop: make(chan struct{}),
		syncDone: make(chan struct{}),
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if st, err := wal.Stat(); err == nil {
		j.walBytes = st.Size()
	}
	j.wal = wal
	go j.syncLoop(syncEvery)
	return j, nil
}

// replay passes every valid record to insert, in file order: the
// checkpoint (a complete prior compaction, coldest entry first), then
// the wal (everything since). A fingerprint journaled in both — possible
// if a crash interrupted checkpointing before the wal truncate — is
// passed twice, and insert keeps the first. Nil-safe.
func (j *Journal) replay(insert func(fp string, line []byte)) {
	if j == nil {
		return
	}
	j.replayFile(filepath.Join(j.dir, checkpointName), insert)
	j.replayFile(filepath.Join(j.dir, walName), insert)
}

// replayFile replays one journal file. Any malformed record discards it
// and the rest of the file: past the first torn or corrupt record
// nothing downstream can be trusted, so the tail is treated as unknown
// (the cells recompute).
func (j *Journal) replayFile(path string, insert func(fp string, line []byte)) {
	f, err := os.Open(path)
	if err != nil {
		return // absent is the common cold-start case
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		fp, line, err := readRecord(r)
		if err == io.EOF {
			return
		}
		if err != nil {
			j.discards.Add(1)
			return
		}
		insert(fp, line)
	}
}

// appendRecord renders one record:
//
//	ajl1 <fingerprint> <len> <crc32c-of-line> <line>\n
//
// The payload is read back by its length, so it may hold any byte; the
// trailing newline plus the length plus the CRC make truncation and
// corruption both detectable.
func appendRecord(buf []byte, fp string, line []byte) []byte {
	buf = append(buf, journalMagic...)
	buf = append(buf, ' ')
	buf = append(buf, fp...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(len(line)), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(crc32.Checksum(line, crcTable)), 16)
	buf = append(buf, ' ')
	buf = append(buf, line...)
	buf = append(buf, '\n')
	return buf
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readRecord parses one record, returning io.EOF at a clean end of file
// and a descriptive error for anything torn, corrupt, or spelled in a
// form appendRecord never writes.
func readRecord(r *bufio.Reader) (fp string, line []byte, err error) {
	var raw []byte
	for i := 0; i < 4; i++ { // magic, fingerprint, length and CRC each end at a space
		field, err := r.ReadBytes(' ')
		if err == io.EOF && i == 0 && len(field) == 0 {
			return "", nil, io.EOF
		}
		if err != nil {
			return "", nil, fmt.Errorf("torn record: %w", err)
		}
		raw = append(raw, field...)
	}
	fields := bytes.Split(raw[:len(raw)-1], []byte(" "))
	n, err := strconv.Atoi(string(fields[2]))
	if err != nil || n < 0 || n > journalMaxLine {
		return "", nil, fmt.Errorf("malformed record")
	}
	// ReadAll grows with the bytes the file holds, not a corrupt length.
	body, err := io.ReadAll(io.LimitReader(r, int64(n)+1))
	if err != nil || len(body) != n+1 {
		return "", nil, fmt.Errorf("torn record")
	}
	fp, line = string(fields[1]), body[:n]
	raw = append(raw, body...)
	// Re-encoding checks the magic, the length, the CRC and the newline
	// at once, and refuses leading zeros, signs and upper-case hex.
	if !bytes.Equal(appendRecord(nil, fp, line), raw) {
		return "", nil, fmt.Errorf("record failed verification")
	}
	return fp, line, nil
}

// Append records one completed cell. The store calls it once per
// fingerprint, on first insert; a repeat would only add a record that
// replay skips. Write failures are counted but not fatal: the journal is
// an accelerant for recovery, not a correctness dependency, so a full
// disk degrades to recomputing. An oversized payload counts the same way.
func (j *Journal) Append(fp string, line []byte) {
	if j == nil {
		return
	}
	j.appendThen(fp, line, func() {})
}

// appendThen is Append followed by then, under the journal lock: what
// then publishes is already recorded, and no checkpoint falls between
// the record and then. then runs even when the write fails or the
// journal is closed.
func (j *Journal) appendThen(fp string, line []byte, then func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer then()
	if len(line) > journalMaxLine {
		j.writeErrors.Add(1)
		return
	}
	if j.closed {
		return
	}
	rec := appendRecord(make([]byte, 0, len(line)+len(fp)+32), fp, line)
	if _, err := j.wal.Write(rec); err != nil {
		j.writeErrors.Add(1)
		return
	}
	j.walBytes += int64(len(rec))
	j.dirty = true
	j.appends.Add(1)
}

// checkpoint compacts the journal to the entries resident returns: they
// are written to a temporary file, fsynced, and renamed over the
// checkpoint, after which the wal is truncated (an oversized payload is
// left out, as Append does). A crash at any point leaves either the old
// checkpoint + full wal or the new checkpoint (+ a possibly stale wal,
// whose duplicate fingerprints are ignored on replay). resident runs
// under the journal lock, so no Append can land in the wal between the
// snapshot and the truncate and be lost. Nil-safe.
func (j *Journal) checkpoint(resident func() []entry[[]byte]) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	tmp, err := os.CreateTemp(j.dir, checkpointName+".tmp*")
	if err != nil {
		j.writeErrors.Add(1)
		return err
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	var buf []byte
	for _, e := range resident() {
		if len(e.val) > journalMaxLine {
			j.writeErrors.Add(1)
			continue
		}
		buf = appendRecord(buf[:0], e.key, e.val)
		if _, err := w.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			j.writeErrors.Add(1)
			return err
		}
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		j.writeErrors.Add(1)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		j.writeErrors.Add(1)
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(j.dir, checkpointName)); err != nil {
		os.Remove(tmp.Name())
		j.writeErrors.Add(1)
		return err
	}
	// The checkpoint now covers everything; restart the wal. Truncate on
	// the open O_APPEND handle is safe: subsequent writes append at the
	// new (zero) end.
	if err := j.wal.Truncate(0); err != nil {
		j.writeErrors.Add(1)
		return err
	}
	j.wal.Sync()
	j.walBytes = 0
	j.dirty = false
	j.checkpoints.Add(1)
	j.lastCheckpoint.Store(time.Now().UnixNano())
	return nil
}

// syncLoop is the group-commit fsync: appended records are flushed to
// the OS immediately but synced to stable storage in batches. The fsync
// runs outside the lock, so appends (and the store inserts that wait on
// them) never queue behind the disk; a record written during it sets
// dirty again for the next tick. Close waits for this loop to stop
// before it closes the wal.
func (j *Journal) syncLoop(every time.Duration) {
	defer close(j.syncDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-j.syncStop:
			return
		case <-tick.C:
		}
		j.mu.Lock()
		sync := j.dirty && !j.closed
		j.dirty = false
		j.mu.Unlock()
		if sync {
			if err := j.wal.Sync(); err != nil {
				j.writeErrors.Add(1)
			}
		}
	}
}

// Close stops the syncer and closes the wal after a final sync. It does
// not checkpoint — graceful drains do that first; an unclean stop simply
// leaves the wal to be replayed.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.syncStop)
	<-j.syncDone
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.dirty {
		err = j.wal.Sync()
		j.dirty = false
	}
	if cerr := j.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// JournalStats is the journal block of the coordinator's /healthz.
type JournalStats struct {
	Enabled bool `json:"enabled"`
	// Cells is the resident (and durable) journaled-cell count, bounded
	// by the store's bound; Resumed is how many cells were resident
	// after the startup replay. The store fills both.
	Cells   int `json:"cells"`
	Resumed int `json:"resumed_cells"`
	// WALBytes is the size of the un-compacted tail.
	WALBytes int64 `json:"wal_bytes"`
	// Appends/Checkpoints/CorruptDiscards/WriteErrors are this process's
	// counters (CorruptDiscards includes payloads the store could not
	// decode); LastCheckpoint is empty until the first checkpoint.
	Appends         uint64 `json:"appends"`
	Checkpoints     uint64 `json:"checkpoints"`
	CorruptDiscards uint64 `json:"corrupt_discards"`
	WriteErrors     uint64 `json:"write_errors"`
	LastCheckpoint  string `json:"last_checkpoint,omitempty"`
}

// Stats snapshots the journal's file counters; nil-safe (a nil journal
// reports the disabled state).
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	walBytes := j.walBytes
	j.mu.Unlock()
	s := JournalStats{
		Enabled:         true,
		WALBytes:        walBytes,
		Appends:         j.appends.Load(),
		Checkpoints:     j.checkpoints.Load(),
		CorruptDiscards: j.discards.Load(),
		WriteErrors:     j.writeErrors.Load(),
	}
	if ns := j.lastCheckpoint.Load(); ns != 0 {
		s.LastCheckpoint = time.Unix(0, ns).UTC().Format(time.RFC3339)
	}
	return s
}
