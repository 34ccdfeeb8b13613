package coord

import (
	"container/list"
	"context"
	"sync"
)

// store is the coordinator's one fingerprint→line map: an entry-bounded
// LRU of raw NDJSON lines keyed by cache.Fingerprint, fronted by
// singleflight so concurrent requests for one fingerprint dispatch a
// single worker request. It sits above the workers' own caches — those
// save the simulation, this saves the round trip (and keeps a warm
// repeat sweep from touching the fleet at all).
//
// An optional Journal makes the store durable: it replays into the
// store at construction, records every first insert, and checkpoints
// the resident entries, so the durable set is the resident set. A cell
// evicted here drops out of the journal at the next checkpoint and
// re-dispatches after a restart — re-work, never wrong bytes.
//
// Lines are shared across requests and must not be mutated.
type store struct {
	journal *Journal // nil: memory only

	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	byKey  map[string]*list.Element
	flight map[string]*flight
	// resumedCells counts the entries resident after replay.
	resumedCells int
}

type entry struct {
	key  string
	line []byte
	// replayed marks a line read back from the journal at startup, not
	// produced by this process.
	replayed bool
}

type flight struct {
	done chan struct{}
	line []byte // set before done closes
	err  error
}

// origin says where getOrDo's line came from.
type origin int

const (
	dispatched origin = iota // this caller's own do
	deduped                  // a resident entry this process produced, or a shared flight
	resumed                  // a resident entry replayed from the journal
)

// newStore builds a store bounded to maxEntries and replays j (which
// may be nil) into it, keeping the newest records when the journal
// holds more than the bound.
func newStore(maxEntries int, j *Journal) *store {
	s := &store{
		journal: j,
		max:     maxEntries,
		ll:      list.New(),
		byKey:   make(map[string]*list.Element),
		flight:  make(map[string]*flight),
	}
	j.replay(func(fp string, line []byte) { s.insert(fp, line, true) })
	s.resumedCells = s.ll.Len()
	return s
}

// insert adds key at the front unless it is resident, evicting from the
// back past the bound; the first line for a key wins. The caller holds
// mu, or has the store to itself.
func (s *store) insert(key string, line []byte, replayed bool) bool {
	if _, ok := s.byKey[key]; ok {
		return false
	}
	s.byKey[key] = s.ll.PushFront(&entry{key: key, line: line, replayed: replayed})
	for s.ll.Len() > s.max {
		cold := s.ll.Back()
		s.ll.Remove(cold)
		delete(s.byKey, cold.Value.(*entry).key)
	}
	return true
}

// len reports resident entries.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// get returns key's resident line and its origin (deduped, or resumed
// for a replayed line), marking it most recently used. ok is false when
// key is not resident; get never waits on a flight or dispatches.
func (s *store) get(key string) (line []byte, from origin, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hit(key)
}

// hit is get's lookup for a caller that holds mu.
func (s *store) hit(key string) ([]byte, origin, bool) {
	el, ok := s.byKey[key]
	if !ok {
		return nil, dispatched, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*entry)
	if e.replayed {
		return e.line, resumed, true
	}
	return e.line, deduped, true
}

// getOrDo returns the line for key, running do at most once per key
// across all concurrent callers, and journals a fresh line before
// returning it, so completion and durability travel together. A waiter
// whose leader fails contends to re-lead — one worker hiccup does not
// poison every coalesced request — and a waiter whose own ctx dies
// stops waiting.
func (s *store) getOrDo(ctx context.Context, key string, do func() ([]byte, error)) ([]byte, origin, error) {
	for {
		s.mu.Lock()
		if line, from, ok := s.hit(key); ok {
			s.mu.Unlock()
			return line, from, nil
		}
		if fl, ok := s.flight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, dispatched, ctx.Err()
			}
			if fl.err == nil {
				return fl.line, deduped, nil
			}
			continue // leader failed; contend to re-lead
		}
		fl := &flight{done: make(chan struct{})}
		s.flight[key] = fl
		s.mu.Unlock()

		line, err := do()
		s.mu.Lock()
		delete(s.flight, key)
		first := err == nil && s.insert(key, line, false)
		s.mu.Unlock()
		// Outside mu: the journal's checkpoint takes mu under its own
		// lock, so the order is always journal, then store.
		if first {
			s.journal.Append(key, line)
		}
		fl.line, fl.err = line, err
		close(fl.done)
		return line, dispatched, err
	}
}

// resident snapshots the resident entries from coldest to hottest, the
// order a checkpoint writes them so that replay restores recency.
func (s *store) resident() []entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]entry, 0, s.ll.Len())
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*entry))
	}
	return out
}

// checkpoint compacts the journal to the resident entries; a no-op
// without one.
func (s *store) checkpoint() error { return s.journal.checkpoint(s.resident) }

// journalStats is the /healthz journal block: the journal's file
// counters plus the store's resident and resumed counts.
func (s *store) journalStats() JournalStats {
	st := s.journal.Stats()
	if st.Enabled {
		st.Cells = s.len()
		st.Resumed = s.resumedCells
	}
	return st
}
