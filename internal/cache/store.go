package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Store is the one fingerprint-keyed cell store behind both tiers: an LRU
// bounded by a cost function, fronted by singleflight so concurrent
// requests for one fingerprint compute it once. A worker's Cache holds
// decoded Results costed by their estimated bytes; the coordinator holds
// raw NDJSON lines costed one each.
//
// An optional Journal makes the store durable: it replays into the store
// at construction, records every first insert, and checkpoints the
// resident entries, so the durable set is the resident set — an evicted
// entry is recomputed after a restart, never served wrong. Values are
// shared across callers and must not be mutated.
type Store[V any] struct {
	journal *Journal // nil: memory only
	encode  func(V) []byte
	cost    func(V) int64
	bound   int64 // on the summed cost; <= 0 is unbounded

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	byKey   map[string]*list.Element
	flight  map[string]*flight[V]
	used    int64
	resumed int // entries resident after replay

	evictions atomic.Uint64
	served    [Resumed + 1]atomic.Uint64 // GetOrDo answers without do, by origin
}

type entry[V any] struct {
	key      string
	val      V
	cost     int64
	replayed bool // read back from the journal, not produced by this process
}

type flight[V any] struct {
	done chan struct{}
	val  V     // set before done closes
	err  error // errLeaderPanicked until the leader's do returns
}

var errLeaderPanicked = errors.New("cache: singleflight leader panicked")

// Origin says where a store's value came from.
type Origin int

const (
	Led     Origin = iota // this caller's own do (or an error)
	Hit                   // a resident entry this process produced
	Shared                // a concurrent caller's do, waited on
	Resumed               // a resident entry replayed from the journal
)

// NewStore builds a store bounded to bound total cost and replays j
// (which may be nil) into it, newest records winning the bound. encode
// and decode convert a value to its journal payload and back; a payload
// that does not decode counts as a corrupt discard. A replay that
// discarded anything checkpoints at once, or later appends would land
// behind the bad bytes, where the next replay discards them too.
func NewStore[V any](bound int64, cost func(V) int64, j *Journal, encode func(V) []byte, decode func([]byte) (V, error)) *Store[V] {
	s := &Store[V]{
		journal: j,
		encode:  encode,
		cost:    cost,
		bound:   bound,
		ll:      list.New(),
		byKey:   make(map[string]*list.Element),
		flight:  make(map[string]*flight[V]),
	}
	j.replay(func(fp string, payload []byte) {
		if v, err := decode(payload); err != nil {
			j.discards.Add(1)
		} else {
			s.insert(fp, v, cost(v), true)
		}
	})
	s.resumed = s.ll.Len()
	if j.Stats().CorruptDiscards > 0 {
		_ = s.Checkpoint() // a failure counts in WriteErrors; the store still serves
	}
	return s
}

// admits reports whether insert would store key at cost c: key is not
// resident (the first value wins) and c is within the whole bound. The
// caller holds mu, or has the store to itself.
func (s *Store[V]) admits(key string, c int64) bool {
	_, ok := s.byKey[key]
	return !ok && (s.bound <= 0 || c <= s.bound)
}

// insert adds key, costing c, at the front if the store admits it, then
// evicts from the back until the bound holds. The caller holds mu, or
// has the store to itself.
func (s *Store[V]) insert(key string, v V, c int64, replayed bool) {
	if !s.admits(key, c) {
		return
	}
	s.byKey[key] = s.ll.PushFront(&entry[V]{key: key, val: v, cost: c, replayed: replayed})
	s.used += c
	for s.bound > 0 && s.used > s.bound {
		e := s.ll.Remove(s.ll.Back()).(*entry[V])
		delete(s.byKey, e.key)
		s.used -= e.cost
		s.evictions.Add(1)
	}
}

// Get returns key's resident value and its origin (Hit, or Resumed for a
// replayed value), marking it most recently used. ok is false when key
// is not resident; Get never waits on a flight or computes.
func (s *Store[V]) Get(key string) (v V, from Origin, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hit(key)
}

// hit is Get for a caller that holds mu.
func (s *Store[V]) hit(key string) (v V, from Origin, ok bool) {
	el, ok := s.byKey[key]
	if !ok {
		return v, Led, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*entry[V])
	if e.replayed {
		return e.val, Resumed, true
	}
	return e.val, Hit, true
}

// GetOrDo returns the value for key, running do at most once per key
// across all concurrent callers, and journals a new value before
// returning it, so completion and durability travel together. When do
// fails, its value and error go back to its own caller only: the value
// is neither stored nor shared, and each waiter contends to re-lead, as
// it does when do panics. A waiter whose ctx ends stops waiting. On
// error the origin is Led.
func (s *Store[V]) GetOrDo(ctx context.Context, key string, do func() (V, error)) (V, Origin, error) {
	for {
		s.mu.Lock()
		if v, from, ok := s.hit(key); ok {
			s.mu.Unlock()
			s.served[from].Add(1)
			return v, from, nil
		}
		fl, ok := s.flight[key]
		if !ok {
			fl = &flight[V]{done: make(chan struct{}), err: errLeaderPanicked}
			s.flight[key] = fl
			s.mu.Unlock()
			v, err := s.lead(key, fl, do)
			return v, Led, err
		}
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			var zero V
			return zero, Led, ctx.Err()
		}
		if fl.err == nil {
			s.served[Shared].Add(1)
			return fl.val, Shared, nil
		}
	}
}

// lead runs do as key's leader. On the way out, also when do or the cost
// function panics, it journals and stores a successful value and then
// releases the waiters.
//
// A new value's record is written before the value turns resident, and
// both happen under the journal lock: Size never counts a cell whose
// record is missing, and a checkpoint, which snapshots the store under
// that lock, sees the cell with its record or neither. The order is
// always journal, then store. Until the flight is deleted no other
// caller can insert key, so whether the value will be stored is known
// before the record is written.
func (s *Store[V]) lead(key string, fl *flight[V], do func() (V, error)) (V, error) {
	var cost int64
	defer close(fl.done)
	defer func() {
		publish := func() {
			s.mu.Lock()
			delete(s.flight, key)
			if fl.err == nil {
				s.insert(key, fl.val, cost, false)
			}
			s.mu.Unlock()
		}
		s.mu.Lock()
		journaled := fl.err == nil && s.journal != nil && s.admits(key, cost)
		s.mu.Unlock()
		if journaled {
			s.journal.appendThen(key, s.encode(fl.val), publish)
		} else {
			publish()
		}
	}()
	v, err := do()
	if err == nil {
		cost = s.cost(v)
	}
	fl.val, fl.err = v, err
	return v, err
}

// resident snapshots the resident entries with their values encoded,
// coldest first so that replay restores recency. Entries never change
// once inserted, so they are encoded outside mu.
func (s *Store[V]) resident() []entry[[]byte] {
	s.mu.Lock()
	entries := make([]*entry[V], 0, s.ll.Len())
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		entries = append(entries, el.Value.(*entry[V]))
	}
	s.mu.Unlock()
	out := make([]entry[[]byte], len(entries))
	for i, e := range entries {
		out[i] = entry[[]byte]{key: e.key, val: s.encode(e.val)}
	}
	return out
}

// Checkpoint compacts the journal to the resident entries, if any.
func (s *Store[V]) Checkpoint() error { return s.journal.checkpoint(s.resident) }

// Close syncs and closes the journal, if any, without a checkpoint.
func (s *Store[V]) Close() error { return s.journal.Close() }

// Size reports the resident entries and their summed cost.
func (s *Store[V]) Size() (entries int, cost int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len(), s.used
}

// JournalStats adds the resident and resumed counts to the journal's.
func (s *Store[V]) JournalStats() JournalStats {
	st := s.journal.Stats()
	if st.Enabled {
		st.Cells, _ = s.Size()
		st.Resumed = s.resumed
	}
	return st
}
