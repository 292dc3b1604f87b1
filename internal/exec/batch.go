package exec

import (
	"context"
	"log/slog"
	"math"
	"runtime"
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
// index slab they drive from, a long slab cut into several units
// (sharedrive.go). The pool is the engine's only fan-out: each region or
// unit runs start to finish on the worker that pulled it. Each partial
// is the one Aggregate computes for the region, bit for bit, so results
// are deterministic — identical for every worker count.
// Cancellation is checked before each region and unit; on cancellation
// or the first error the pool drains and the error is returned. With a
// region cache attached, the regions the cache missed are stored once
// both rounds have succeeded; a failed or cancelled batch stores
// nothing. Its work, cancelled or not, counts once it returns (flush).
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
	defer e.flush(&p.stats, scope)
	if scope != nil && scope.step > 0 && scope.step <= math.MaxFloat64 && !e.sampled && len(b.tables) == 1 &&
		b.aggTbl < 0 && b.spec.Func == relq.AggCount && len(b.selDims) == len(q.Dims) {
		p.gscope = scope // COUNT(*) cells may be grouped (grouped.go)
	}
	p.attachCache(q)
	// The dispatch event records the batch shape (width × workers) for
	// the structured log.
	if o := e.Observer(); o.LogEnabled(slog.LevelDebug) {
		o.Debug("engine.batch", "regions", len(regions), "workers", w)
	}
	// The batch's span is the parent of its "evaluate" spans: one per
	// region its front resolved and one per scan unit (sharedrive.go).
	// When traced it carries the batch's own tally (Stats.Attrs: rows
	// scanned, gridagg merges, cache traffic, …) and its evaluate spans
	// their fingerprint and cache outcome. The uninstrumented path pays
	// one context lookup and allocates nothing.
	p.span = e.batchSpan(obs.SpanFromContext(ctx))
	defer p.span.End()
	if bsp := p.span; bsp.Active() {
		bsp.SetAttrs(obs.Int("regions", int64(len(regions))), obs.Int("workers", int64(w)))
		defer func() { bsp.SetAttrs(append(p.stats.stats().Attrs(), obs.Int("grouped_rows", p.groupedRows))...) }()
	}
	scs := make([]regionScratch, max(w, 1))
	if err := drain(ctx, scs, len(regions), func(sc *regionScratch, i int) error {
		return p.front(sc, i, out)
	}); err != nil {
		return nil, err
	}
	if len(p.deferred) > 0 {
		if err := p.planUnits(ctx, scs, out); err != nil {
			return nil, err
		}
		scs = e.widen(scs, len(p.units)) // a narrow batch's long slab still spreads
		if err := drain(ctx, scs, len(p.units), func(sc *regionScratch, u int) error {
			return p.runUnit(sc, u, out)
		}); err != nil {
			return nil, err
		}
		p.mergeParts(out)
	}
	p.store(out)
	return out, nil
}

// batchSpan opens the "engine.batch" span of one engine call under
// parent, the span its context carries. It times into parent's observer
// — a search's, handed over through the context — or, under an untimed
// parent, into the engine's own observer.
func (e *Engine) batchSpan(parent obs.SpanRef) obs.SpanRef {
	if parent.Timed() {
		return parent.StartChild("engine.batch")
	}
	return e.Observer().StartSpan(parent, "engine.batch")
}

// workers returns the engine's worker count (Parallelism, defaulting
// to GOMAXPROCS, floored at 1).
func (e *Engine) workers() int {
	w := e.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(w, 1)
}

// widen returns scs with as many scratches as the engine has workers, or
// as a drain of n tasks can use if that is fewer; it never shrinks scs.
func (e *Engine) widen(scs []regionScratch, n int) []regionScratch {
	if w := min(e.workers(), n); w > len(scs) {
		scs = append(scs[:len(scs):len(scs)], make([]regionScratch, w-len(scs))...)
	}
	return scs
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
