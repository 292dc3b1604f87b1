package exec

import (
	"strings"

	"acquire/internal/exec/regioncache"
	"acquire/internal/relq"
)

// SetRegionCache attaches a cross-search partial-aggregate cache: every
// region dispatched through AggregateBatch is first looked up by its
// canonical (query shape, aggregate spec, region) fingerprint, and the
// partials of the regions it missed are stored when their batch
// succeeds, for later searches. The cache may be shared between engines
// over the same data; nil detaches. Two batches that miss the same
// region at the same moment both execute it.
//
// Hits return exactly the partial a cold execution produced, so search
// results stay bit-identical with the cache on, off, or pre-warmed.
// Aggregate is a batch of one region, so it reads and fills the cache
// too; a check that needs an answer independent of the cache uses
// NaiveAggregate or an engine without one.
func (e *Engine) SetRegionCache(c *regioncache.Cache) {
	e.regionCache.Store(c)
}

// EnableRegionCache attaches a fresh region cache of maxBytes capacity
// (<= 0 detaches) — the Evaluator-interface form of SetRegionCache for
// callers that size a cache rather than share an instance.
func (e *Engine) EnableRegionCache(maxBytes int64) {
	if maxBytes <= 0 {
		e.SetRegionCache(nil)
		return
	}
	e.SetRegionCache(regioncache.New(maxBytes))
}

// RegionCache returns the attached cache (nil when detached).
func (e *Engine) RegionCache() *regioncache.Cache {
	return e.regionCache.Load()
}

// InvalidateRegionCache drops every cached partial. Call it after
// mutating table contents in place (replacing a table via the catalog,
// rewriting a column); pure appends retire their entries automatically
// because the fingerprint mixes per-table row counts.
func (e *Engine) InvalidateRegionCache() {
	if c := e.regionCache.Load(); c != nil {
		c.Invalidate()
	}
}

// InvalidateTable drops every piece of derived state computed from a
// table's contents: its cached column vectors, sorted indexes, zone
// maps, open join memos (by epoch) and the whole region cache (keyed
// by fingerprint, so a per-table sweep is not possible); its grid index
// stays registered but is rebuilt from its spec at its next use. Call
// it after rewriting a table's contents in place. Pure appends and
// catalog Replaces need no call: the column/sort/zone caches and the
// grid registry key on table identity + row count, and the region-cache
// fingerprints carry row-count generations.
func (e *Engine) InvalidateTable(table string) {
	key := strings.ToLower(table)
	e.mu.Lock()
	for k := range e.colCache {
		if k.table == key {
			delete(e.colCache, k)
		}
	}
	for k := range e.sortIdx {
		if k.table == key {
			delete(e.sortIdx, k)
		}
	}
	for k := range e.zones {
		if k.table == key {
			delete(e.zones, k)
		}
	}
	if ent, ok := e.grids[key]; ok {
		ent.src = nil
		e.grids[key] = ent
	}
	e.mu.Unlock()
	e.epoch.Add(1)
	e.InvalidateRegionCache()
}

// batchFingerprint computes the query-shape fingerprint shared by every
// region of one batch, folding in each table's row count as a
// generation word: a table that has grown since an entry was cached can
// never produce that key again, so stale entries age out of the LRU
// instead of being served (the column cache's cacheGen scheme, applied
// to cache keys).
func (e *Engine) batchFingerprint(q *relq.Query, b *binding) relq.Fingerprint {
	fp := relq.QueryFingerprint(q)
	gens := make([]uint64, len(b.tables))
	for i, t := range b.tables {
		gens[i] = uint64(t.NumRows())
	}
	return fp.Mix(gens...)
}

// attachCache points the plan's region executions at the engine's
// region cache, if one is attached: every region's front first looks it
// up under its (query shape, region) fingerprint (front, in
// sharedrive.go). A hit returns the stored partial without touching the
// execution path — Stats.Queries does not move; a miss executes as
// without a cache, and AggregateBatch stores its partial once the batch
// has succeeded. The query-shape fingerprint is computed once per
// batch, and the cache generation is read here, before any region runs,
// so an Invalidate during the batch keeps its partials out.
func (p *batchPlan) attachCache(q *relq.Query) {
	if c := p.e.regionCache.Load(); c != nil {
		p.cache, p.fp, p.gen = c, p.e.batchFingerprint(q, p.b), c.Gen()
	}
}
