// Package regioncache is a sharded, concurrency-safe LRU cache of
// partial-aggregate results keyed by the 128-bit canonical fingerprint
// of one (query shape, aggregate spec, region) execution
// (relq.Fingerprint). It lets refinement searches warm-start from the
// cell sub-queries of earlier or concurrent searches: the paper's
// optimal substructure property (§2.6) makes partials freely reusable
// across any searches that evaluate the same region of the same query
// shape.
//
// The protocol is a lookup and a store: a caller Gets a key before it
// executes the region and Puts the partial once the execution has
// succeeded. There is no in-flight state, so two callers that miss the
// same key at the same moment both execute it; their partials are the
// same bits, and the second Put refreshes the entry. A Put carries the
// generation (Gen) read before the execution started, and Invalidate
// bumps it, so a value computed across an Invalidate is dropped.
//
// Values are agg.Partial structs stored by value; a hit returns exactly
// the bytes a cold execution produced, so cached searches stay
// bit-identical to uncached ones.
package regioncache

import (
	"sync"
	"sync/atomic"

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

type shard struct {
	mu    sync.Mutex
	table map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64

	hits, misses, evictions int64
}

// Cache is the sharded LRU. The zero value is not usable; construct
// with New.
type Cache struct {
	shards   [numShards]shard
	capShard int64
	// gen is bumped by Invalidate; a Put carrying an older generation
	// is dropped instead of resurrecting stale data.
	gen atomic.Uint64
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
	}
	return c
}

func (c *Cache) shard(k Key) *shard {
	return &c.shards[(k.Lo^k.Hi)&(numShards-1)]
}

// Get returns the cached partial for k, refreshing its recency, and
// counts the lookup as a hit or a miss.
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

// Gen returns the current generation. Read it before executing the
// regions whose partials are to be Put.
func (c *Cache) Gen() uint64 { return c.gen.Load() }

// Put stores v under k unless Invalidate has run since gen was read,
// and returns the number of entries the store displaced.
func (c *Cache) Put(k Key, v agg.Partial, gen uint64) (evicted int64) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gen.Load() != gen {
		return 0
	}
	return s.insert(k, v, c.capShard)
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

// Invalidate drops every entry and bumps the generation, so partials
// computed before it are not stored by a later Put. Call it after
// mutating data the cached partials were computed over.
func (c *Cache) Invalidate() {
	// Bump first: a Put that saw the old generation holds its shard's
	// lock, so it lands before that shard is cleared below.
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.table = make(map[Key]*entry)
		s.head, s.tail = nil, nil
		s.bytes = 0
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
		// Another caller that missed the key stored it first; refresh
		// the value and recency.
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
