package core

import (
	"context"
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
	// lat holds, per point, the sub-query partials [O2 (pillar), ...,
	// Od+1 (whole query)] of §5.1.1 in incremental mode — no successor
	// reads the cell O1 — or the whole-query partial in naive mode. The
	// last slot first holds the prefetched batch result (stCached),
	// consumed on first use; folded partials (stStored) persist.
	lat         *lattice
	stored      int     // points holding folded partials
	stack, pend []int32 // reused worklists of the fold and the prefetch

	// cellQueries counts refined-space queries the search had evaluated,
	// the paper's §8 cost unit: one per cell sub-query (incremental) or
	// whole grid query (naive), and one per §6 repartitioning probe in
	// either mode. It is not the engine's region count: an incremental
	// probe is one query here and up to d shell regions there
	// (probeRegions below, exec.Stats.Queries).
	// Atomic: sessions may run searches concurrently and the snapshot
	// in Result must be race-free.
	cellQueries atomic.Int64
	// probes and probeRegions count the search's §6 probes and the
	// regions they sent (span attributes; search goroutine only).
	probes, probeRegions int
}

func newExplorer(e Evaluator, q *relq.Query, sp *space, spec agg.Spec, incremental bool) *explorer {
	width := 1
	if incremental {
		width = sp.dims
	}
	return &explorer{
		engine:      e,
		q:           q,
		sp:          sp,
		spec:        spec,
		incremental: incremental,
		lat:         newLattice(sp, width),
	}
}

// prefetch dispatches the regions of an Expand layer's points as one
// batch, built into one backing array. Points whose result is already
// stored or cached are skipped, so every region is fetched at most once
// — exactly the executions the serial search would have issued, just
// batched. Returns the batch width (number of regions dispatched).
func (x *explorer) prefetch(ctx context.Context, ids []int32) (int, error) {
	x.pend = x.pend[:0]
	for _, id := range ids {
		if *x.lat.st(id)&(stStored|stCached) == 0 {
			x.pend = append(x.pend, id)
		}
	}
	if len(x.pend) == 0 {
		return 0, nil
	}
	d := x.sp.dims
	ivs := make(relq.Region, 0, len(x.pend)*d)
	regions := make([]relq.Region, len(x.pend))
	for i, id := range x.pend {
		ivs = x.region(ivs, id)
		regions[i] = ivs[i*d : (i+1)*d : (i+1)*d]
	}
	parts, err := x.engine.AggregateBatch(ctx, x.q, regions)
	if err != nil {
		return 0, err
	}
	x.cellQueries.Add(int64(len(regions)))
	for i, id := range x.pend {
		slots := x.lat.parts.at(id)
		slots[len(slots)-1] = parts[i]
		*x.lat.st(id) |= stCached
	}
	return len(regions), nil
}

// region appends the region id sends to the evaluation layer to dst:
// its cell in incremental mode, its whole refined query in naive mode.
func (x *explorer) region(dst relq.Region, id int32) relq.Region {
	if x.incremental {
		return relq.AppendCellRegion(dst, x.lat.point(id), x.sp.step)
	}
	for _, c := range x.lat.point(id) {
		dst = append(dst, relq.ViolInterval{Lo: -1, Hi: float64(c) * x.sp.step})
	}
	return dst
}

// fetch returns the partial of id's region: the prefetched batch
// result, consumed, or an on-demand execution.
func (x *explorer) fetch(ctx context.Context, id int32) (agg.Partial, error) {
	if st := x.lat.st(id); *st&stCached != 0 {
		*st &^= stCached
		slots := x.lat.parts.at(id)
		return slots[len(slots)-1], nil
	}
	x.cellQueries.Add(1)
	return x.evalOne(ctx, x.region(nil, id))
}

// aggregate returns the aggregate partial of the whole refined query at
// grid point id.
func (x *explorer) aggregate(ctx context.Context, id int32) (agg.Partial, error) {
	if !x.incremental {
		return x.fetch(ctx, id)
	}
	return x.computeAll(ctx, id)
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

// computeAll is Algorithm 3 (ComputeAggregate): execute only the cell
// sub-query O1, then fold the recurrence of Eq. 17,
//
//	O_i(u) = O_{i-1}(u) + O_i(u - e_{i-1}),
//
// reading O_i(u - e_{i-1}) from the predecessor's slot in the lattice,
// and returns O_{d+1}(u), the whole query. The Expand phase guarantees
// (Theorem 3) every contained grid query was explored first; points
// reachable only through ties under exotic norms fall back to on-demand
// computation, preserving correctness.
//
// The traversal is an explicit worklist, not recursion: predecessor
// chains are as long as the grid diagonal, and unbounded recursion
// overflows the stack long before MaxExplored is reached.
func (x *explorer) computeAll(ctx context.Context, id int32) (agg.Partial, error) {
	d := x.sp.dims
	stack := append(x.stack[:0], id)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		if *x.lat.st(cur)&stStored != 0 {
			stack = stack[:len(stack)-1]
			continue
		}
		// Push every missing predecessor; revisit cur once they exist.
		u := x.lat.point(cur)
		missing := false
		for i := 0; i < d; i++ {
			if u[i] == 0 {
				continue
			}
			if prev := x.lat.predOf(cur, i); *x.lat.st(prev)&stStored == 0 {
				stack = append(stack, prev)
				missing = true
			}
		}
		if missing {
			continue
		}
		// O1: the cell — the only sub-query unique to this point
		// (§5.1.1 observation 1).
		acc, err := x.fetch(ctx, cur)
		if err != nil {
			return agg.Zero(), err
		}
		parts := x.lat.parts.at(cur)
		for i := 0; i < d; i++ {
			// Slot i holds O_{i+2}. GetPreviousNeighbour(i): decrement
			// dimension i. A neighbour outside the grid has an empty
			// region, so its aggregate is the identity (DESIGN.md §5.2).
			prevPart := agg.Zero()
			if u[i] > 0 {
				prevPart = x.lat.parts.at(x.lat.predOf(cur, i))[i]
			}
			acc = agg.Merge(acc, prevPart)
			parts[i] = acc
		}
		*x.lat.st(cur) |= stStored
		x.stored++
		stack = stack[:len(stack)-1]
	}
	x.stack = stack
	return x.lat.parts.at(id)[d-1], nil
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

// release frees the lattice once the search result is final: a
// long-lived session runs many searches against one engine, and a
// finished search's slabs should not live as long as its explorer. The
// explorer must not be used afterwards.
func (x *explorer) release() {
	x.lat.release()
	x.stored, x.stack, x.pend = 0, nil, nil
}
