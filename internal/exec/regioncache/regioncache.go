// Package regioncache is a sharded, concurrency-safe LRU cache of
// partial-aggregate results keyed by the 128-bit canonical fingerprint
// of one (query shape, aggregate spec, region) execution
// (relq.Fingerprint). It lets refinement searches warm-start from the
// cell sub-queries of earlier or concurrent searches: the paper's
// optimal substructure property (§2.6) makes partials freely reusable
// across any searches that evaluate the same region of the same query
// shape.
//
// Concurrent misses on one key collapse onto a single in-flight
// execution (singleflight): the first caller runs the loader, every
// concurrent caller for the same key blocks and shares the result.
// Loader errors are never cached — each waiter retries with its own
// loader, so one caller's cancellation cannot poison another's result.
//
// Values are agg.Partial structs stored by value; a hit returns exactly
// the bytes a cold execution produced, so cached searches stay
// bit-identical to uncached ones.
package regioncache

import (
	"sync"

	"acquire/internal/agg"
)

// Key is the 128-bit fingerprint of one (query shape, aggregate spec,
// region) execution — the two words of a relq.Fingerprint.
type Key struct {
	Hi, Lo uint64
}

// numShards spreads lock contention; must be a power of two. 16 shards
// keep the per-shard critical sections (a map lookup plus two list
// splices) far off the scaling path even at high worker counts.
const numShards = 16

// EntryBytes is the accounted cost of one cache entry: the key, the
// partial, two list pointers and the amortized map slot. The accounting
// is deliberately a fixed constant — agg.Partial is a fixed-size struct
// — so the byte cap translates directly into an entry cap per shard.
const EntryBytes = 160

// entry is an intrusive doubly-linked LRU node.
type entry struct {
	key        Key
	val        agg.Partial
	prev, next *entry
}

// Flight is one in-flight execution of a key. Its holder — Do, or the
// caller TryClaim handed it to — executes the region and must call Fill
// exactly once, whatever the outcome; until then concurrent callers for
// the key block on done, and afterwards read val/err.
type Flight struct {
	c    *Cache
	k    Key
	gen  uint64 // the shard's generation at claim time
	done chan struct{}
	val  agg.Partial
	err  error
}

type shard struct {
	mu    sync.Mutex
	table map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
	// gen is bumped by Invalidate; a fill whose flight started under an
	// older generation is discarded instead of resurrecting stale data.
	gen      uint64
	inflight map[Key]*Flight

	hits, misses, evictions int64
}

// Cache is the sharded LRU. The zero value is not usable; construct
// with New.
type Cache struct {
	shards   [numShards]shard
	capShard int64
}

// Stats is a point-in-time summary of cache effectiveness and
// occupancy.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// New creates a cache bounded to roughly maxBytes across all shards.
// Each shard always admits at least one entry, so a tiny cap degrades
// to a small cache rather than a broken one.
func New(maxBytes int64) *Cache {
	c := &Cache{capShard: maxBytes / numShards}
	if c.capShard < EntryBytes {
		c.capShard = EntryBytes
	}
	for i := range c.shards {
		c.shards[i].table = make(map[Key]*entry)
		c.shards[i].inflight = make(map[Key]*Flight)
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[(k.Lo^k.Hi)&(numShards-1)]
}

// Do returns the cached partial for k, or executes fn exactly once to
// fill it. hit reports whether the value came from the cache (including
// joining another caller's in-flight execution); evicted is the number
// of entries displaced by the fill. Errors are returned uncached.
func (c *Cache) Do(k Key, fn func() (agg.Partial, error)) (val agg.Partial, hit bool, evicted int64, err error) {
	s := c.shard(k)
	for {
		v, ok, own, other := c.claim(s, k)
		if ok {
			return v, true, 0, nil
		}
		if other != nil {
			<-other.done
			if other.err == nil {
				s.mu.Lock()
				s.hits++
				s.mu.Unlock()
				return other.val, true, 0, nil
			}
			// The owner failed (possibly its own cancellation): retry
			// with our fn rather than inheriting a foreign error.
			continue
		}
		val, err = fn()
		return val, false, own.Fill(val, err), err
	}
}

// TryClaim is Do's first half for a caller that computes several keys
// in one pass and fills them afterwards. It never blocks, so claims may
// be held while further keys are claimed. One of three things happens:
// the key is resident (hit); the caller now owns its execution (fl is
// non-nil and counts as the miss); or another execution of the key is
// in flight (neither) — then come back through Do, which waits for it,
// once every claim of one's own is filled.
func (c *Cache) TryClaim(k Key) (val agg.Partial, hit bool, fl *Flight) {
	val, hit, fl, _ = c.claim(c.shard(k), k)
	return val, hit, fl
}

// claim looks k up and registers a flight for it when it is neither
// resident nor in flight; other is the in-flight execution otherwise.
func (c *Cache) claim(s *shard, k Key) (val agg.Partial, hit bool, own, other *Flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.table[k]; ok {
		s.touch(e)
		s.hits++
		return e.val, true, nil, nil
	}
	if f, ok := s.inflight[k]; ok {
		return val, false, nil, f
	}
	f := &Flight{c: c, k: k, gen: s.gen, done: make(chan struct{})}
	s.inflight[k] = f
	s.misses++
	return val, false, f, nil
}

// Fill ends the flight with the execution's outcome: a value is stored
// (unless Invalidate ran since the claim) and handed to the waiters, an
// error sends each waiter off to execute for itself. It returns the
// number of entries the fill displaced.
func (f *Flight) Fill(val agg.Partial, err error) (evicted int64) {
	s := f.c.shard(f.k)
	f.val, f.err = val, err
	s.mu.Lock()
	// Only the registered flight may deregister itself: Invalidate
	// swaps the inflight map, and a successor flight for the same
	// key may already be registered there.
	if s.inflight[f.k] == f {
		delete(s.inflight, f.k)
	}
	if err == nil && s.gen == f.gen {
		evicted = s.insert(f.k, val, f.c.capShard)
	}
	s.mu.Unlock()
	close(f.done)
	return evicted
}

// Get returns the cached partial for k, refreshing its recency. It
// does not join in-flight executions; the engine path goes through Do.
func (c *Cache) Get(k Key) (agg.Partial, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.table[k]; ok {
		s.touch(e)
		s.hits++
		return e.val, true
	}
	s.misses++
	return agg.Partial{}, false
}

// Contains reports whether k is resident without touching its recency —
// eviction-order tests peek through it.
func (c *Cache) Contains(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.table[k]
	return ok
}

// Invalidate drops every entry and detaches every in-flight execution:
// loaders that already started still deliver to their current waiters,
// but their results are not stored and later callers start fresh. Call
// it after mutating data the cached partials were computed over.
func (c *Cache) Invalidate() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.table = make(map[Key]*entry)
		s.inflight = make(map[Key]*Flight)
		s.head, s.tail = nil, nil
		s.bytes = 0
		s.gen++
		s.mu.Unlock()
	}
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += len(s.table)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// Len returns the resident entry count.
func (c *Cache) Len() int { return c.Stats().Entries }

// touch moves e to the MRU position. Caller holds the shard lock.
func (s *shard) touch(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) pushFront(e *entry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// insert stores (k, v) at the MRU position and evicts from the LRU end
// until the shard fits its byte budget. Caller holds the shard lock.
func (s *shard) insert(k Key, v agg.Partial, capBytes int64) (evicted int64) {
	if e, ok := s.table[k]; ok {
		// A concurrent fill for the same key under a newer generation
		// already landed; refresh the value and recency.
		e.val = v
		s.touch(e)
		return 0
	}
	e := &entry{key: k, val: v}
	s.table[k] = e
	s.pushFront(e)
	s.bytes += EntryBytes
	for s.bytes > capBytes && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.table, victim.key)
		s.bytes -= EntryBytes
		s.evictions++
		evicted++
	}
	return evicted
}
