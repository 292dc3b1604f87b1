package exec

import (
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

// InvalidateRegionCache drops every cached partial, freeing the cache's
// memory. Stale partials are never served without it: a fingerprint mixes
// each bound table's generation, which appends, catalog Replaces and
// data.Table.Touch all move.
func (e *Engine) InvalidateRegionCache() {
	if c := e.regionCache.Load(); c != nil {
		c.Invalidate()
	}
}

// InvalidateTable declares the named table rewritten in place: it touches
// the table, retiring everything derived from its columns in every engine
// (column views, sorted indexes, grids, join memos, grouped tables), and
// drops the region cache. Appends and catalog Replaces need no call; they
// move the generation themselves.
func (e *Engine) InvalidateTable(table string) {
	if t, err := e.cat.Table(table); err == nil {
		t.Touch()
	}
	e.InvalidateRegionCache()
}

// batchFingerprint computes the query-shape fingerprint shared by every
// region of one batch, mixing in each bound table's generation: a table
// appended to, replaced or touched since an entry was cached can never
// produce that key again, so stale entries age out of the LRU instead of
// being served.
func (e *Engine) batchFingerprint(q *relq.Query, b *binding) relq.Fingerprint {
	fp := relq.QueryFingerprint(q)
	gens := make([]uint64, len(b.tables))
	for i, t := range b.tables {
		gens[i] = t.Gen()
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
