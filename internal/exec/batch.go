package exec

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// AggregateBatch executes the query restricted to each region and
// returns one partial per region, out[i] corresponding to regions[i].
//
// The regions are independent (ACQUIRE's cell sub-queries are mutually
// disjoint), so they are dispatched to a worker pool bounded by the
// engine's Parallelism (default GOMAXPROCS). The query is bound once and
// what the regions share is planned once (joinplan.go); each region then
// runs exactly the same per-region code as Aggregate, each worker out of
// its own scratch, so results are deterministic — identical for every
// worker count.
// Cancellation is checked before each region; on cancellation or the
// first region error the pool drains and the error is returned.
func (e *Engine) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	// Auto-clustering sweeps run between batches, never mid-query: the
	// batch computes entirely on the layout it bound, and a re-sort
	// triggered by its own scan statistics only affects later batches.
	// The pending-batch mark (taken after bind, released before the
	// sweep) is the scheduler's storm signal: a sweep that would rewrite
	// a layout while other batches are mid-flight defers instead, so the
	// last batch out performs the amortized rewrite.
	e.pendingBatches.Add(1)
	defer func() {
		e.pendingBatches.Add(-1)
		e.maybeAutoCluster()
	}()
	out := make([]agg.Partial, len(regions))
	w := e.workers()
	if w > len(regions) {
		w = len(regions)
	}
	p := e.newBatchPlan(b, regions)
	p.attachCache(q)
	// Per-region execution times land in the "evaluate" phase
	// histogram inside aggregateBound; the dispatch event records the
	// batch shape (width × workers) for the structured log.
	if o := e.Observer(); o.LogEnabled(slog.LevelDebug) {
		o.Debug("engine.batch", "regions", len(regions), "workers", w)
	}
	// Hierarchical tracing: when the context carries a span, the batch
	// gets a child span (with this engine's stat deltas — rows scanned,
	// gridagg merges, cache traffic) and every region a nested
	// "evaluate" span carrying its fingerprint and cache outcome. The
	// untraced path pays one context lookup and allocates nothing.
	if parent := obs.SpanFromContext(ctx); parent.Active() {
		bsp := parent.StartChild("engine.batch")
		bsp.SetAttrs(obs.Int("regions", int64(len(regions))), obs.Int("workers", int64(w)))
		p.span = bsp
		before := e.Snapshot()
		defer func() {
			d := e.Snapshot().Sub(before)
			bsp.SetAttrs(obs.Int("rows_scanned", d.RowsScanned),
				obs.Int("blocks_scanned", d.BlocksScanned),
				obs.Int("blocks_skipped", d.BlocksSkipped),
				obs.Int("cells_merged", d.CellsMerged),
				obs.Int("cells_skipped", d.CellsSkipped),
				obs.Int("cache_hits", d.CacheHits),
				obs.Int("cache_misses", d.CacheMisses))
			bsp.End()
		}()
	}
	if w <= 1 {
		sc := new(regionScratch)
		for i := range regions {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			part, err := p.run(sc, i)
			if err != nil {
				return nil, err
			}
			out[i] = part
		}
		return out, nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(regionScratch)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(regions) || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				part, err := p.run(sc, i)
				if err != nil {
					fail(err)
					return
				}
				out[i] = part
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
