package exec

import (
	"context"
	"log/slog"
	"math"
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
// what the regions share is planned once (joinplan.go). The pool runs
// two rounds: every region's front, then — for a single-table batch —
// the units that scan the regions their fronts deferred, grouped by the
// index slab they drive from (sharedrive.go). Each partial is the one
// Aggregate computes for the region, bit for bit, so results are
// deterministic — identical for every worker count.
// Cancellation is checked before each region and unit; on cancellation
// or the first error the pool drains and the error is returned.
func (e *Engine) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	out := make([]agg.Partial, len(regions))
	w := e.workers()
	if w > len(regions) {
		w = len(regions)
	}
	scope, _ := ctx.Value(scopeKey{}).(*joinScope)
	p := e.newBatchPlan(b, regions, scope)
	if scope != nil && scope.step > 0 && scope.step <= math.MaxFloat64 && !e.sampled && len(b.tables) == 1 &&
		b.aggTbl < 0 && b.spec.Func == relq.AggCount && len(b.selDims) == len(q.Dims) {
		p.gscope = scope // COUNT(*) cells may be grouped (grouped.go)
	}
	p.attachCache(q)
	// Per-region and per-unit execution times land in the "evaluate"
	// phase histogram; the dispatch event records the batch shape
	// (width × workers) for the structured log.
	if o := e.Observer(); o.LogEnabled(slog.LevelDebug) {
		o.Debug("engine.batch", "regions", len(regions), "workers", w)
	}
	// Hierarchical tracing: when the context carries a span, the batch
	// gets a child span (with this engine's stat deltas — rows scanned,
	// gridagg merges, cache traffic) and nested "evaluate" spans: one
	// per region its front resolved, carrying its fingerprint and cache
	// outcome, and one per scan unit, carrying its region count. The
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
				obs.Int("cells_grouped", d.CellsGrouped),
				obs.Int("grouped_rows", p.groupedRows),
				obs.Int("cells_skipped", d.CellsSkipped),
				obs.Int("cache_hits", d.CacheHits),
				obs.Int("cache_misses", d.CacheMisses))
			bsp.End()
		}()
	}
	defer p.abandon()
	scs := make([]regionScratch, max(w, 1))
	if err := drain(ctx, scs, len(regions), func(sc *regionScratch, i int) error {
		return p.front(sc, i, out)
	}); err != nil {
		return nil, err
	}
	if len(p.deferred) == 0 {
		return out, nil
	}
	if err := p.planUnits(ctx, scs, out); err != nil {
		return nil, err
	}
	if err := drain(ctx, scs, len(p.units), func(sc *regionScratch, u int) error {
		return p.runUnit(sc, u, out)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// drain runs task(sc, t) for every t in [0, n) on a pool of up to
// len(scs) workers, each out of its own scratch, pulling t from one
// atomic counter. Cancellation is checked before each task; on
// cancellation or the first task error the pool drains and the error is
// returned.
func drain(ctx context.Context, scs []regionScratch, n int, task func(sc *regionScratch, t int) error) error {
	w := min(len(scs), n)
	if w <= 1 {
		for t := 0; t < n; t++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := task(&scs[0], t); err != nil {
				return err
			}
		}
		return nil
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
		go func(sc *regionScratch) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n || failed.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := task(sc, t); err != nil {
					fail(err)
					return
				}
			}
		}(&scs[k])
	}
	wg.Wait()
	return firstErr
}
