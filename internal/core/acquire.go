package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"time"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/norms"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// Options tunes ACQUIRE. The zero value gets the paper's sensible
// defaults (§2.3, §8: γ=10, δ=0.05, L1 norm, b=8 repartition rounds).
type Options struct {
	// Gamma is the refinement proximity threshold γ of Definition 1;
	// the grid step is γ/d (Theorem 1). Default 10.
	Gamma float64
	// Delta is the aggregate error threshold δ of Definition 1.
	// Default 0.05.
	Delta float64
	// Norm is the QScore function (§2.3). Default L1.
	Norm norms.Norm
	// ErrFn overrides the aggregate error function (§2.5). Default:
	// agg.DefaultError for the constraint.
	ErrFn agg.ErrorFunc
	// RepartitionDepth is b, the number of cell-repartitioning
	// iterations on overshoot (§6). Default 8.
	RepartitionDepth int
	// MaxExplored caps the number of grid queries investigated, so an
	// unsatisfiable constraint terminates. Default 100000.
	MaxExplored int
	// NoIncremental disables the Explore phase's incremental aggregate
	// computation, re-executing every refined query whole — the
	// ablation quantifying §5's contribution.
	NoIncremental bool
	// Observer, when set, receives the search's metrics (counters,
	// layer gauges, per-phase duration histograms), phase spans and
	// structured events (internal/obs). All layer/span timing reads
	// the observer's Clock, so tests inject a fake clock instead of
	// sleeping. Nil disables instrumentation at ~zero cost.
	Observer *obs.Observer
}

// resolved fills in o's defaults and rejects what no search can use: a
// Gamma that is not positive and finite, a Delta that is negative or not
// finite (0 means the default for both).
func (o Options) resolved() (Options, error) {
	if o.Gamma == 0 {
		o.Gamma = 10
	}
	if o.Delta == 0 {
		o.Delta = 0.05
	}
	if !(o.Gamma > 0) || math.IsInf(o.Gamma, 1) {
		return o, fmt.Errorf("core: refinement threshold gamma must be positive and finite, got %v", o.Gamma)
	}
	if !(o.Delta > 0) || math.IsInf(o.Delta, 1) {
		return o, fmt.Errorf("core: aggregate error threshold delta must be non-negative and finite, got %v", o.Delta)
	}
	if o.Norm == nil {
		o.Norm = norms.L1{}
	}
	if o.RepartitionDepth == 0 {
		o.RepartitionDepth = 8
	}
	if o.MaxExplored == 0 {
		o.MaxExplored = 100000
	}
	return o, nil
}

// Result is the output of a refinement search.
type Result struct {
	// Queries are the satisfying refined queries of the minimal layer
	// (Definition 1), sorted by ascending QScore.
	Queries []relq.RefinedQuery
	// Best is Queries[0] when Satisfied.
	Best *relq.RefinedQuery
	// Satisfied reports whether any refined query met the constraint
	// within δ.
	Satisfied bool
	// Closest is the query attaining the smallest aggregate error —
	// returned per §6 when no query satisfies the constraint.
	Closest *relq.RefinedQuery
	// Explored counts grid queries investigated. CellQueries counts the
	// refined queries the search had the evaluation layer evaluate, the
	// paper's §8 cost unit: one per cell sub-query (whole grid query in
	// naive mode) plus one per §6 repartitioning probe. It is not the
	// engine's region count (exec.Stats.Queries): an incremental probe
	// is one query fetched as up to d shell regions.
	Explored    int
	CellQueries int
	// StoredPoints is the size of the sub-aggregate store.
	StoredPoints int
	// Exhausted is set when the search hit MaxExplored or ran out of
	// grid before satisfying the constraint.
	Exhausted bool
	// Note carries a human-readable diagnostic (e.g. "original query
	// already overshoots; use contraction").
	Note string
	// Engine is the evaluation-layer work of this search alone: the
	// totals of its search scope (exec.ScopeStats), which every engine
	// call it makes adds to when the call returns. Concurrent searches on
	// the same engine do not move it. It is zero for an evaluator that
	// runs no engine (histogram estimation).
	Engine exec.Stats
}

// Run executes ACQUIRE on the query against the engine.
//
// Constraints with <=/< comparison denote the inverse problem — the
// query returns too much — and are routed to the §7.2 contraction
// search automatically.
func Run(e Evaluator, q *relq.Query, opts Options) (*Result, error) {
	return RunContext(context.Background(), e, q, opts)
}

// RunContext is Run with cancellation: the context is checked at every
// Expand layer, every evaluation-layer batch, and every repartitioning
// probe. When the context is cancelled mid-search, RunContext returns
// the partial Result accumulated so far together with the context's
// error, so callers can report progress before abandoning the search.
func RunContext(ctx context.Context, e Evaluator, q *relq.Query, opts Options) (*Result, error) {
	opts, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !agg.HasOSP(q.Constraint.Func) {
		return nil, fmt.Errorf("core: aggregate %s lacks the optimal substructure property (§2.6)", q.Constraint.Func)
	}
	if q.Constraint.Op == relq.CmpLE || q.Constraint.Op == relq.CmpLT {
		return ContractContext(ctx, e, q, opts)
	}
	if c, ok := opts.Norm.(norms.Custom); ok {
		if err := norms.CheckMonotone(c, q.NumDims(), 256, 1); err != nil {
			return nil, err
		}
	}

	domain, err := DomainScores(e, q)
	if err != nil {
		return nil, err
	}
	sp, err := newSpace(q, opts.Gamma, domain)
	if err != nil {
		return nil, err
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return nil, err
	}
	errFn := opts.ErrFn
	if errFn == nil {
		errFn = agg.DefaultError(q.Constraint)
	}

	x := newExplorer(e, q, sp, spec, !opts.NoIncremental)
	fr := makeFrontier(opts.Norm, x.lat)
	// One scope for the whole search: a join's per-table slabs are
	// scanned once per search, not once per layer (exec/joinplan.go), and
	// a single-table COUNT(*) search's cells may share one grouped table
	// (exec/grouped.go).
	ctx, done := exec.WithSearchScope(ctx, sp.step)
	defer done()
	return runSearch(ctx, q, fr, x, spec, errFn, opts)
}

// openRoot opens the root span of a search named name, timed into the
// search's observer: under the caller's traced span in ctx, else, when
// the observer has a flight recorder, as the root of a new trace for
// it, else timing only. Without an observer or a trace the SpanRef is
// the zero value and every use of it is free.
func openRoot(ctx context.Context, name string, opts Options, dims int) (tr *obs.Trace, root obs.SpanRef) {
	if parent := obs.SpanFromContext(ctx); parent.Active() || !opts.Observer.TracingEnabled() {
		root = opts.Observer.StartSpan(parent, name)
	} else {
		tr, root = opts.Observer.StartTrace(name)
	}
	if root.Active() {
		root.SetAttrs(obs.Float("gamma", opts.Gamma), obs.Float("delta", opts.Delta),
			obs.String("norm", opts.Norm.Name()), obs.Int("dims", int64(dims)))
	}
	return tr, root
}

// closeRoot ends the root span of a search that returns res, tagged with
// res's outcome and with its scope's engine work, which it records in res.
func closeRoot(ctx context.Context, o *obs.Observer, tr *obs.Trace, root obs.SpanRef, res *Result) {
	res.Engine = exec.ScopeStats(ctx)
	if root.Active() {
		root.SetAttrs(obs.Bool("satisfied", res.Satisfied), obs.Int("explored", int64(res.Explored)),
			obs.Int("cell_queries", int64(res.CellQueries)), obs.Bool("exhausted", res.Exhausted))
		root.SetAttrs(res.Engine.Attrs()...)
	}
	root.End()
	o.Recorder().Add(tr) // tr is nil unless the search opened its own trace
}

// logDone emits the closing event of a search or a contraction that
// returns res: its outcome, extra, and every engine counter of its work
// (res.Engine, which closeRoot set).
func logDone(o *obs.Observer, event string, res *Result, extra ...any) {
	attrs := append([]any{"satisfied", res.Satisfied, "explored", res.Explored,
		"cell_queries", res.CellQueries, "exhausted", res.Exhausted}, extra...)
	for _, a := range res.Engine.Attrs() {
		attrs = append(attrs, a.Key, a.I64())
	}
	o.Info(event, attrs...)
}

// closeRootWithError ends a root span that a hard error cut short.
func closeRootWithError(o *obs.Observer, tr *obs.Trace, root obs.SpanRef, err error) {
	if root.Active() {
		root.SetAttrs(obs.String("error", err.Error()))
	}
	root.End()
	o.Recorder().Add(tr) // tr is nil unless the search opened its own trace
}

// isCancellation reports whether err stems from context cancellation
// or deadline expiry (possibly wrapped).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runSearch is Algorithm 4: iterate Expand and Explore until the first
// satisfying layer is fully investigated.
//
// The loop is organised around whole Expand layers: the layer's unique
// evaluation-layer queries (cell sub-queries in incremental mode) are
// mutually disjoint, so they are dispatched as one batch the evaluator
// may execute concurrently, and then every point's Eq. 17 recurrence
// and repartitioning fold serially in frontier order. The serial fold
// keeps the search byte-identical to the single-threaded one; the
// early-exit checks that the serial loop applied per point can only
// fire at a layer boundary (every point inside a layer ties the
// layer's QScore within eps), so hoisting them to the boundary changes
// nothing observable.
func runSearch(ctx context.Context, q *relq.Query, fr frontier, x *explorer, spec agg.Spec, errFn agg.ErrorFunc, opts Options) (*Result, error) {
	res := &Result{}
	target := q.Constraint.Target
	const eps = 1e-9

	// Observability: all handles are nil-tolerant, so the
	// uninstrumented path costs one nil check per use and allocates
	// nothing (see internal/obs). Every phase is one obs.SpanRef, timed
	// on the observer's Clock so deterministic tests inject a fake clock.
	o := opts.Observer

	// Hierarchical tracing: one span tree per search when a flight
	// recorder is attached.
	tr, root := openRoot(ctx, "search", opts, q.NumDims())

	o.Counter("acquire_searches_total", "Refinement searches started.").Inc()
	pointsC := o.Counter("acquire_search_points_explored_total", "Grid queries investigated across all searches.")
	layersG := o.Gauge("acquire_search_layers_explored", "Expand layers explored by the current/most recent search.")
	layersG.Set(0)
	o.Info("search.start", "gamma", opts.Gamma, "delta", opts.Delta,
		"norm", opts.Norm.Name(), "dims", q.NumDims(), "target", target)

	bestLayer := math.Inf(1) // minRefLayer: QScore of the first satisfying layer
	var closestErr = math.Inf(1)

	// Layer tracking for the monotone-overshoot early exit.
	firstLayer := true
	layerAllOvershoot := true
	monotoneEQ := spec.Monotone() && q.Constraint.Op == relq.CmpEQ

	lf := newLayerFrontier(fr, qscorer(x.lat, opts.Norm))
	layerIdx := 0
	var scores []float64 // the current point's; a kept refined query copies it

	record := func(rq relq.RefinedQuery) {
		res.Queries = append(res.Queries, rq)
		if rq.QScore < bestLayer {
			bestLayer = rq.QScore
		}
	}
	finish := func() *Result {
		sort.Slice(res.Queries, func(i, j int) bool {
			if res.Queries[i].QScore != res.Queries[j].QScore {
				return res.Queries[i].QScore < res.Queries[j].QScore
			}
			return res.Queries[i].Err < res.Queries[j].Err
		})
		if len(res.Queries) > 0 {
			res.Satisfied = true
			res.Best = &res.Queries[0]
		}
		res.CellQueries = int(x.cellQueries.Load())
		res.StoredPoints = x.stored
		x.release()
		if root.Active() {
			root.SetAttrs(obs.Int("probes", int64(x.probes)), obs.Int("probe_regions", int64(x.probeRegions)))
		}
		closeRoot(ctx, o, tr, root, res)
		if o.LogEnabled(slog.LevelInfo) {
			logDone(o, "search.done", res, "stored_points", res.StoredPoints,
				"probes", x.probes, "probe_regions", x.probeRegions)
		}
		return res
	}
	// fail funnels mid-search errors: cancellation still reports the
	// partial result (finalised), anything else is a hard error.
	fail := func(err error) (*Result, error) {
		if isCancellation(err) {
			return finish(), err
		}
		closeRootWithError(o, tr, root, err)
		o.Info("search.error", "error", err.Error())
		return nil, err
	}

search:
	for {
		if err := ctx.Err(); err != nil {
			return finish(), err
		}
		xsp := root.StartChild("expand")
		layer, layerQS, ok := lf.nextLayer()
		xsp.End()
		if !ok {
			res.Exhausted = len(res.Queries) == 0
			break
		}

		if monotoneEQ && layerAllOvershoot && !firstLayer {
			// Every query of the previous layer overshot a monotone
			// aggregate: deeper layers only overshoot more. Stop (§6's
			// repartitioning already probed the cells).
			res.Exhausted = len(res.Queries) == 0
			if res.Note == "" {
				res.Note = "all queries in a layer overshoot a monotone aggregate; expansion cannot help"
			}
			break
		}
		firstLayer = false
		layerAllOvershoot = true

		// Stop once past the first satisfying layer (Alg. 4's
		// currRefLayer <= minRefLayer loop condition).
		qs0 := layerQS[0]
		if len(res.Queries) > 0 && qs0 > bestLayer+eps {
			break
		}
		if res.Explored >= opts.MaxExplored {
			res.Exhausted = true
			res.Note = "exploration budget exhausted"
			break
		}

		// Dispatch the layer's evaluation-layer queries as one batch,
		// capped to the remaining exploration budget so the total
		// executions match the serial search even when the budget
		// exhausts mid-layer (§5: no region is scanned more than once,
		// and none is scanned speculatively).
		pre := layer
		if budget := opts.MaxExplored - res.Explored; len(pre) > budget {
			pre = pre[:budget]
		}
		lsp := root.StartChild("layer")
		psp := lsp.StartChild("prefetch")
		batchWidth, err := x.prefetch(obs.ContextWithSpan(ctx, psp), pre)
		psp.End()
		if err != nil {
			return fail(err)
		}

		fsp := lsp.StartChild("fold")
		ctxFold := obs.ContextWithSpan(ctx, fsp)
		for j, id := range layer {
			if res.Explored >= opts.MaxExplored {
				res.Exhausted = true
				res.Note = "exploration budget exhausted"
				fsp.End()
				lsp.End()
				break search
			}
			res.Explored++
			pointsC.Inc()
			scores = x.lat.appendScores(scores[:0], id)
			qs := layerQS[j]

			partial, err := x.aggregate(ctxFold, id)
			if err != nil {
				return fail(err)
			}
			actual := spec.Final(partial)
			ev := errFn(target, actual)

			rq := relq.RefinedQuery{
				Base: q, Scores: scores, QScore: qs, Aggregate: actual, Err: ev,
			}
			if ev < closestErr-eps || (math.Abs(ev-closestErr) <= eps && res.Closest != nil && qs < res.Closest.QScore) {
				closestErr = ev
				c := rq
				c.Scores = slices.Clone(scores)
				res.Closest = &c
			}

			overshoots := agg.Overshoots(q.Constraint, actual, opts.Delta)
			if !overshoots {
				layerAllOvershoot = false
			}

			repartitioned := false
			switch {
			case ev <= opts.Delta:
				rq.Scores = slices.Clone(scores)
				record(rq)
			case overshoots:
				// §6: repartition the cell for b iterations.
				rsp := lsp.StartChild("repartition")
				probes0, regions0 := x.probes, x.probeRegions
				sub, found, err := repartition(obs.ContextWithSpan(ctx, rsp), x, id, spec, errFn, target, opts, q)
				if rsp.Active() {
					rsp.SetAttrs(obs.Int("probes", int64(x.probes-probes0)),
						obs.Int("regions", int64(x.probeRegions-regions0)), obs.Bool("found", found))
				}
				rsp.End()
				if err != nil {
					return fail(err)
				} else if found {
					record(sub)
					repartitioned = true
				}
			}
			if o.LogEnabled(slog.LevelDebug) {
				o.Debug("search.point", "seq", res.Explored-1, "scores", slices.Clone(scores),
					"qscore", qs, "aggregate", actual, "err", ev,
					"outcome", classify(ev <= opts.Delta, overshoots, repartitioned))
			}
		}
		fsp.End()
		layersG.Set(float64(layerIdx + 1))
		lsp.SetAttrs(obs.Int("layer", int64(layerIdx)), obs.Float("qscore", qs0),
			obs.Int("width", int64(len(layer))), obs.Int("batch_width", int64(batchWidth)))
		layerWall := lsp.End()
		if o.LogEnabled(slog.LevelInfo) {
			o.Info("search.layer", "layer", layerIdx, "qscore", qs0,
				"width", len(layer), "batch_width", batchWidth,
				"wall_ms", float64(layerWall)/float64(time.Millisecond))
		}
		layerIdx++
	}

	return finish(), nil
}

// repartition is the §6 overshoot handling: the satisfying refinement
// lies inside the cell below point id (between the previous grid layer
// and id). Binary-search the cell diagonal for b iterations. Off-grid
// points cannot reuse the sub-aggregate store, but the search holds the
// partial of the last prefix known not to overshoot — first the cell's
// lower corner, out of the store — so each probe fetches only the thin
// shell between that prefix and the probe and merges it on
// (explorer.probe). The naive mode re-executes the whole refined query
// at every probe, by definition.
func repartition(ctx context.Context, x *explorer, id int32, spec agg.Spec, errFn agg.ErrorFunc, target float64, opts Options, q *relq.Query) (relq.RefinedQuery, bool, error) {
	if !spec.Monotone() {
		return relq.RefinedQuery{}, false, nil
	}
	corner := x.lat.corner(id)
	if corner == id {
		// The original query itself overshoots; expansion cannot fix
		// it (contraction problem, §7.2).
		return relq.RefinedQuery{}, false, nil
	}
	hi, lo := x.lat.appendScores(nil, id), x.lat.appendScores(nil, corner)
	// Every query in the cell dominates the cell's lower corner, so if
	// the corner already overshoots, the whole cell does: the crossing
	// surface is not here and the binary search would waste b probes.
	// The corner is a contained grid point, so its aggregate is already
	// in the incremental store (Theorem 3) — the check costs nothing,
	// and the corner's partial is the first base of the delta probes:
	// base is always the partial of prefix(lo).
	var base agg.Partial
	if x.incremental {
		var err error
		if base, err = x.computeAll(ctx, corner); err != nil {
			return relq.RefinedQuery{}, false, err
		}
		if agg.Overshoots(q.Constraint, spec.Final(base), opts.Delta) {
			return relq.RefinedQuery{}, false, nil
		}
	}
	mid := make([]float64, len(hi))
	for iter := 0; iter < opts.RepartitionDepth; iter++ {
		if err := ctx.Err(); err != nil {
			return relq.RefinedQuery{}, false, err
		}
		for i := range mid {
			mid[i] = (lo[i] + hi[i]) / 2
		}
		var partial agg.Partial
		var err error
		if x.incremental {
			partial, err = x.probe(ctx, base, lo, mid)
		} else {
			partial, err = x.directAggregate(ctx, mid)
		}
		if err != nil {
			return relq.RefinedQuery{}, false, err
		}
		actual := spec.Final(partial)
		ev := errFn(target, actual)
		if ev <= opts.Delta {
			scores := append([]float64(nil), mid...)
			return relq.RefinedQuery{
				Base: q, Scores: scores, QScore: opts.Norm.Score(scores),
				Aggregate: actual, Err: ev,
			}, true, nil
		}
		if agg.Overshoots(q.Constraint, actual, opts.Delta) {
			copy(hi, mid)
		} else {
			copy(lo, mid)
			base = partial
		}
	}
	return relq.RefinedQuery{}, false, nil
}

// makeFrontier returns the Expand algorithm the norm calls for, as in
// the paper: Algorithm 1 for L1, Algorithm 2 for L∞, and the priority
// frontier for every other monotone norm.
func makeFrontier(n norms.Norm, lat *lattice) frontier {
	switch {
	case n.Infinite():
		return newLInfFrontier(lat)
	case isPlainL1(n):
		return newBFSFrontier(lat)
	default:
		return newPriorityFrontier(lat, qscorer(lat, n))
	}
}

// qscorer returns a lattice point's QScore under n, through one reused
// PScore buffer.
func qscorer(lat *lattice, n norms.Norm) func(int32) float64 {
	var buf []float64
	return func(id int32) float64 {
		buf = lat.appendScores(buf[:0], id)
		return n.Score(buf)
	}
}

func isPlainL1(n norms.Norm) bool {
	switch v := n.(type) {
	case norms.L1:
		return true
	case norms.Lp:
		return v.P == 1 && len(v.Weights) == 0
	default:
		return false
	}
}

// finiteExtremes returns a column's smallest and largest finite value,
// which the refined space's caps are measured against: a row with an
// infinite violation lies in no finite prefix.
func finiteExtremes(cat *data.Catalog, ref relq.ColumnRef) (minV, maxV float64, err error) {
	t, err := cat.Table(ref.Table)
	if err != nil {
		return 0, 0, err
	}
	ord := t.Schema().Ordinal(ref.Column)
	if ord < 0 {
		return 0, 0, fmt.Errorf("core: table %s has no column %q", ref.Table, ref.Column)
	}
	s, err := t.Stats(ord)
	if err != nil {
		return 0, 0, err
	}
	return s.FiniteMin, s.FiniteMax, nil
}

// DomainScores computes, per dimension, the refinement score at which
// the predicate spans the entire attribute domain over its finite values
// — the natural cap of the refined space along that axis, and the search
// bound of ACQUIRE and of the BinSearch and TQGen baselines alike.
func DomainScores(e Evaluator, q *relq.Query) ([]float64, error) {
	cat := e.Catalog()
	out := make([]float64, len(q.Dims))
	for i := range q.Dims {
		d := &q.Dims[i]
		switch d.Kind {
		case relq.SelectLE:
			_, maxV, err := finiteExtremes(cat, d.Col)
			if err != nil {
				return nil, err
			}
			out[i] = d.Violation(maxV)
		case relq.SelectGE:
			minV, _, err := finiteExtremes(cat, d.Col)
			if err != nil {
				return nil, err
			}
			out[i] = d.Violation(minV)
		case relq.SelectEQ:
			minV, maxV, err := finiteExtremes(cat, d.Col)
			if err != nil {
				return nil, err
			}
			out[i] = math.Max(d.Violation(minV), d.Violation(maxV))
		case relq.JoinBand:
			lMin, lMax, err := finiteExtremes(cat, d.Left)
			if err != nil {
				return nil, err
			}
			rMin, rMax, err := finiteExtremes(cat, d.Right)
			if err != nil {
				return nil, err
			}
			out[i] = math.Max(d.JoinViolation(lMax, rMin), d.JoinViolation(lMin, rMax))
		}
	}
	return out, nil
}
