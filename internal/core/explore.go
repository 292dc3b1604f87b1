package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/relq"
)

// explorer is the Explore phase (§5): it computes the aggregate of each
// grid query, either incrementally (Algorithm 3) or naively (whole-query
// re-execution, the ablation baseline).
//
// The driver feeds it one Expand layer at a time: prefetch dispatches
// the layer's unique cell sub-queries (mutually disjoint, so the
// evaluation layer may execute them concurrently) as one batch, then
// the per-point Eq. 17 recurrence folds serially from the cache — the
// fold order, and therefore the float association of every partial, is
// identical to the fully serial search.
type explorer struct {
	engine Evaluator
	q      *relq.Query
	sp     *space
	spec   agg.Spec

	incremental bool
	// store maps grid point -> the d+1 sub-query partials
	// [O1 (cell), O2 (pillar), ..., Od+1 (whole query)] of §5.1.1.
	store *pstore[[]agg.Partial]
	// cache maps grid point -> the prefetched batch result for the
	// point: its cell partial in incremental mode, its whole-query
	// partial in naive mode. Entries are consumed (deleted) on first
	// use; the store memoizes everything that must persist.
	cache *pstore[agg.Partial]

	// cellQueries counts refined-space queries the search had evaluated,
	// the paper's §8 cost unit: one per cell sub-query (incremental) or
	// whole grid query (naive), and one per §6 repartitioning probe in
	// either mode. It is not the engine's region count: an incremental
	// probe is one query here and up to d shell regions there
	// (probeRegions below, exec.Stats.Queries).
	// Atomic: sessions may run searches concurrently and the snapshot
	// in Result must be race-free.
	cellQueries atomic.Int64
	// probes and probeRegions count the §6 probes of the search and the
	// regions they sent to the evaluation layer (span attributes only;
	// written on the search goroutine).
	probes, probeRegions int
}

func newExplorer(e Evaluator, q *relq.Query, sp *space, spec agg.Spec, incremental bool) *explorer {
	keyer := newPointKeyer(sp)
	return &explorer{
		engine:      e,
		q:           q,
		sp:          sp,
		spec:        spec,
		incremental: incremental,
		store:       newPstore[[]agg.Partial](keyer),
		cache:       newPstore[agg.Partial](keyer),
	}
}

// prefetch dispatches the evaluation-layer queries of an Expand layer
// as one batch: the cell sub-queries in incremental mode, the whole
// refined queries in naive mode. Points whose result is already stored
// or cached are skipped, so every region is fetched at most once —
// exactly the executions the serial search would have issued, just
// batched. Returns the batch width (number of regions dispatched).
func (x *explorer) prefetch(ctx context.Context, pts []point) (int, error) {
	pend := make([]point, 0, len(pts))
	regions := make([]relq.Region, 0, len(pts))
	for _, p := range pts {
		if x.incremental {
			if _, ok := x.store.get(p); ok {
				continue
			}
		}
		if _, ok := x.cache.get(p); ok {
			continue
		}
		pend = append(pend, p)
		if x.incremental {
			regions = append(regions, relq.CellRegion(p, x.sp.step))
		} else {
			regions = append(regions, relq.PrefixRegion(p.scores(x.sp.step)))
		}
	}
	if len(regions) == 0 {
		return 0, nil
	}
	parts, err := x.engine.AggregateBatch(ctx, x.q, regions)
	if err != nil {
		return 0, err
	}
	x.cellQueries.Add(int64(len(regions)))
	for i, p := range pend {
		x.cache.put(p, parts[i])
	}
	return len(regions), nil
}

// aggregate returns the aggregate partial of the whole refined query at
// grid point p.
func (x *explorer) aggregate(ctx context.Context, p point) (agg.Partial, error) {
	if !x.incremental {
		if part, ok := x.cache.get(p); ok {
			x.cache.del(p)
			return part, nil
		}
		x.cellQueries.Add(1)
		return x.evalOne(ctx, relq.PrefixRegion(p.scores(x.sp.step)))
	}
	parts, err := x.computeAll(ctx, p)
	if err != nil {
		return agg.Zero(), err
	}
	return parts[x.sp.dims], nil
}

// evalOne executes a single region through the batched entry point so
// cancellation reaches every evaluation-layer round trip.
func (x *explorer) evalOne(ctx context.Context, r relq.Region) (agg.Partial, error) {
	parts, err := x.engine.AggregateBatch(ctx, x.q, []relq.Region{r})
	if err != nil {
		return agg.Zero(), err
	}
	return parts[0], nil
}

// cellPartial returns the cell sub-query O1 at p, consuming the
// prefetched cache when possible and falling back to an on-demand
// execution otherwise.
func (x *explorer) cellPartial(ctx context.Context, p point) (agg.Partial, error) {
	if part, ok := x.cache.get(p); ok {
		x.cache.del(p)
		return part, nil
	}
	x.cellQueries.Add(1)
	return x.evalOne(ctx, relq.CellRegion(p, x.sp.step))
}

// computeAll is Algorithm 3 (ComputeAggregate): execute only the cell
// sub-query O1, then fold the recurrence of Eq. 17,
//
//	O_i(u) = O_{i-1}(u) + O_i(u - e_{i-1}),
//
// reading O_i(u - e_{i-1}) from the store. The Expand phase guarantees
// (Theorem 3) every contained grid query was explored first; points
// reachable only through ties under exotic norms fall back to on-demand
// computation, preserving correctness.
//
// The traversal is an explicit worklist, not recursion: predecessor
// chains are as long as the grid diagonal, and unbounded recursion
// overflows the stack long before MaxExplored is reached.
func (x *explorer) computeAll(ctx context.Context, p point) ([]agg.Partial, error) {
	if parts, ok := x.store.get(p); ok {
		return parts, nil
	}
	d := x.sp.dims
	stack := []point{p}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		if _, done := x.store.get(cur); done {
			stack = stack[:len(stack)-1]
			continue
		}
		// Push every missing predecessor; revisit cur once they exist.
		missing := false
		for i := 0; i < d; i++ {
			if cur[i] == 0 {
				continue
			}
			prev := cur.clone()
			prev[i]--
			if _, ok := x.store.get(prev); !ok {
				stack = append(stack, prev)
				missing = true
			}
		}
		if missing {
			continue
		}
		parts := make([]agg.Partial, d+1)
		// O1: the cell — the only sub-query unique to this point
		// (§5.1.1 observation 1).
		cell, err := x.cellPartial(ctx, cur)
		if err != nil {
			return nil, err
		}
		parts[0] = cell
		for i := 1; i <= d; i++ {
			// GetPreviousNeighbour(i-1): decrement dimension i-1. A
			// neighbour outside the grid has an empty region, so its
			// aggregate is the identity (DESIGN.md §5.2).
			prevPart := agg.Zero()
			if cur[i-1] > 0 {
				prev := cur.clone()
				prev[i-1]--
				prevParts, _ := x.store.get(prev)
				prevPart = prevParts[i]
			}
			parts[i] = agg.Merge(parts[i-1], prevPart)
		}
		x.store.put(cur, parts)
		stack = stack[:len(stack)-1]
	}
	parts, _ := x.store.get(p)
	return parts, nil
}

// directAggregate executes the whole refined query at an arbitrary
// (possibly off-grid) score vector: the §6 repartitioning probe of the
// naive mode, whose definition is whole-query re-execution. Incremental
// searches probe by delta (probe).
func (x *explorer) directAggregate(ctx context.Context, scores []float64) (agg.Partial, error) {
	x.cellQueries.Add(1)
	x.probes++
	x.probeRegions++
	return x.evalOne(ctx, relq.PrefixRegion(scores))
}

// probe returns the partial of the off-grid refined query at score
// vector mid, given base, the partial of the refined query at lo ≤ mid:
// prefix(mid) \ prefix(lo) is fetched as its disjoint shell boxes in one
// batch and merged onto base (§2.6), so a §6 probe scans what it newly
// admits, not the prefix the search already holds. Boxes are built and
// merged in dimension order on the calling goroutine, so the partial
// does not depend on the evaluator's worker count.
func (x *explorer) probe(ctx context.Context, base agg.Partial, lo, mid []float64) (agg.Partial, error) {
	x.cellQueries.Add(1)
	x.probes++
	boxes := shellRegions(lo, mid)
	if len(boxes) == 0 {
		return base, nil
	}
	x.probeRegions += len(boxes)
	parts, err := x.engine.AggregateBatch(ctx, x.q, boxes)
	if err != nil {
		return agg.Zero(), err
	}
	for _, p := range parts {
		base = agg.Merge(base, p)
	}
	return base, nil
}

// shellRegions decomposes prefix(mid) \ prefix(lo), lo ≤ mid, into at
// most d disjoint boxes: box i spans (-1, lo_j] on the dimensions j < i,
// (lo_i, mid_i] on dimension i and (-1, mid_j] on j > i. A tuple of the
// shell lands in the box of the first dimension on which it exceeds lo.
// A dimension with mid_i == lo_i has an empty box and is left out.
func shellRegions(lo, mid []float64) []relq.Region {
	boxes := make([]relq.Region, 0, len(mid))
	for i := range mid {
		if !(mid[i] > lo[i]) {
			continue
		}
		box := relq.PrefixRegion(mid)
		for j := 0; j < i; j++ {
			box[j].Hi = lo[j]
		}
		box[i].Lo = lo[i]
		boxes = append(boxes, box)
	}
	return boxes
}

// storedPoints reports how many grid points hold cached sub-aggregates.
func (x *explorer) storedPoints() int { return x.store.len() }

// release frees the sub-aggregate store and the prefetch cache. The
// driver calls it once the search result is finalised: a long-lived
// session runs many searches against one engine, and with the
// cross-search region cache holding the reusable state there is no
// reason to pin a finished search's per-point maps until the explorer
// itself is collected. The explorer must not be used afterwards.
func (x *explorer) release() {
	x.store.free()
	x.cache.free()
}

// verifyAgainstDirect cross-checks the incremental aggregate at p with
// a direct whole-query execution; testing hook. The full partial is
// compared: Count/Min/Max exactly, Sum and the UDA summary within a
// relative tolerance (the recurrence associates float additions
// differently than a single scan).
func (x *explorer) verifyAgainstDirect(p point) error {
	inc, err := x.aggregate(context.Background(), p)
	if err != nil {
		return err
	}
	direct, err := x.engine.Aggregate(x.q, relq.PrefixRegion(p.scores(x.sp.step)))
	if err != nil {
		return err
	}
	if !agg.ApproxEqual(inc, direct, 1e-9) {
		return fmt.Errorf("core: incremental partial %+v != direct %+v at %v", inc, direct, p)
	}
	return nil
}
