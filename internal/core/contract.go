package core

import (
	"context"
	"log/slog"
	"math"
	"sort"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// ContractContext handles the inverse problem of §7.2: the original query
// returns too much (constraints with <= or <, or an = constraint that
// the original query already overshoots). Per the paper, the refined
// space is re-anchored between Q'min (every predicate at its most
// selective value) and Q, and traversed minimizing refinement with
// respect to Q.
//
// Implementation note: each candidate is evaluated as a whole query
// against a tightened clone of Q. The incremental sub-aggregate store
// of §5 does not transfer to shrinking queries for non-invertible
// aggregates (MIN/MAX cannot be "subtracted"), so contraction pays one
// evaluation-layer execution per candidate; the paper makes no
// performance claims for this extension.
//
// Cancellation is checked before every candidate evaluation; the
// partial Result gathered so far is returned with the context's error.
func ContractContext(ctx context.Context, e Evaluator, q *relq.Query, opts Options) (*Result, error) {
	opts, err := opts.resolved()
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return nil, err
	}
	errFn := opts.ErrFn
	if errFn == nil {
		errFn = contractionError(q.Constraint)
	}

	// Contraction limits: the score at which each predicate becomes
	// maximally selective (its Q'min position).
	limits, err := contractionLimits(e, q)
	if err != nil {
		return nil, err
	}
	sp, err := newSpace(q, opts.Gamma, limits)
	if err != nil {
		return nil, err
	}

	// The w-space frontier explores contraction amounts: w = 0 is Q,
	// growing w tightens predicates. Ordering by ||w|| minimizes
	// refinement w.r.t. Q exactly as §7.2 requires.
	lat := newLattice(sp, 0)
	fr := makeFrontier(opts.Norm, lat)

	res := &Result{}
	target := q.Constraint.Target
	const eps = 1e-9
	bestLayer := math.Inf(1)
	closestErr := math.Inf(1)

	// Contraction shares the search counters with runSearch; its root
	// span times its wall into a dedicated "contract" phase histogram.
	o := opts.Observer
	o.Counter("acquire_searches_total", "Refinement searches started.").Inc()
	pointsC := o.Counter("acquire_search_points_explored_total", "Grid queries investigated across all searches.")
	o.Info("contract.start", "gamma", opts.Gamma, "delta", opts.Delta,
		"norm", opts.Norm.Name(), "dims", q.NumDims(), "target", target)

	// Tracing mirrors runSearch: every candidate's AggregateBatch call
	// carries the root via ctx, so engine spans nest under it and time
	// into the search's observer. The scope totals the search's work; its
	// join memo starts over at every candidate, each another query.
	ctx, done := exec.WithSearchScope(ctx, 0)
	defer done()
	tr, root := openRoot(ctx, "contract", opts, q.NumDims())
	ctxEval := obs.ContextWithSpan(ctx, root)

	finish := func() *Result {
		sort.Slice(res.Queries, func(i, j int) bool { return res.Queries[i].QScore < res.Queries[j].QScore })
		if len(res.Queries) > 0 {
			res.Satisfied = true
			res.Best = &res.Queries[0]
		}
		closeRoot(ctx, o, tr, root, res)
		if o.LogEnabled(slog.LevelInfo) {
			logDone(o, "contract.done", res)
		}
		return res
	}

	var w []float64
	for {
		if err := ctx.Err(); err != nil {
			return finish(), err
		}
		id, ok := fr.next()
		if !ok {
			res.Exhausted = len(res.Queries) == 0
			break
		}
		w = lat.appendScores(w[:0], id)
		qs := opts.Norm.Score(w)
		if len(res.Queries) > 0 && qs > bestLayer+eps {
			break
		}
		if res.Explored >= opts.MaxExplored {
			res.Exhausted = true
			res.Note = "exploration budget exhausted"
			break
		}
		res.Explored++
		pointsC.Inc()

		contracted, scores := tightenQuery(q, w)
		parts, err := e.AggregateBatch(ctxEval, contracted, []relq.Region{relq.PrefixRegion(make([]float64, len(q.Dims)))})
		if err != nil {
			if isCancellation(err) {
				return finish(), err
			}
			closeRootWithError(o, tr, root, err)
			return nil, err
		}
		partial := parts[0]
		res.CellQueries++
		actual := spec.Final(partial)
		ev := errFn(target, actual)

		rq := relq.RefinedQuery{Base: q, Scores: scores, QScore: qs, Aggregate: actual, Err: ev}
		if ev < closestErr-eps {
			closestErr = ev
			c := rq
			res.Closest = &c
		}
		if ev <= opts.Delta {
			res.Queries = append(res.Queries, rq)
			if qs < bestLayer {
				bestLayer = qs
			}
		}
	}

	return finish(), nil
}

// tightenQuery clones q with every dimension's bound contracted by
// w[i] score units, returning the clone plus the signed score vector
// (negative = contraction) that renders correctly through
// RefinedQuery.ToSQL.
func tightenQuery(q *relq.Query, w []float64) (*relq.Query, []float64) {
	out := q.Clone()
	scores := make([]float64, len(w))
	for i := range out.Dims {
		d := &out.Dims[i]
		scores[i] = -w[i]
		switch d.Kind {
		case relq.SelectLE, relq.SelectGE:
			d.Bound = d.BoundAt(-w[i])
		case relq.JoinBand:
			b := d.BoundAt(-w[i])
			if b < 0 {
				b = 0
			}
			d.Base = b
		case relq.SelectEQ:
			// Equality predicates cannot contract; limits force w=0.
		}
	}
	return out, scores
}

// contractionLimits computes, per dimension, the maximum meaningful
// contraction score (reaching Q'min: the predicate excludes every
// tuple).
func contractionLimits(e Evaluator, q *relq.Query) ([]float64, error) {
	cat := e.Catalog()
	out := make([]float64, len(q.Dims))
	for i := range q.Dims {
		d := &q.Dims[i]
		switch d.Kind {
		case relq.SelectLE:
			minV, _, err := finiteExtremes(cat, d.Col)
			if err != nil {
				return nil, err
			}
			out[i] = math.Max(0, (d.Bound-minV)*(100/d.Width))
		case relq.SelectGE:
			_, maxV, err := finiteExtremes(cat, d.Col)
			if err != nil {
				return nil, err
			}
			out[i] = math.Max(0, (maxV-d.Bound)*(100/d.Width))
		case relq.SelectEQ:
			out[i] = 0
		case relq.JoinBand:
			out[i] = math.Max(0, d.Base*(100/d.Width))
		}
	}
	return out, nil
}

// contractionError penalises only overshoot, normalised by the target:
// the mirror image of agg.HingeError for too-many-results constraints.
func contractionError(c relq.Constraint) agg.ErrorFunc {
	if c.Op == relq.CmpEQ {
		return agg.RelativeError
	}
	return func(expected, actual float64) float64 {
		if math.IsNaN(actual) {
			// Empty result trivially satisfies an upper-bound
			// constraint for COUNT/SUM; MIN/MAX have no value at all.
			if c.Func == relq.AggCount || c.Func == relq.AggSum {
				return 0
			}
			return math.Inf(1)
		}
		if actual <= expected {
			return 0
		}
		if expected == 0 {
			return math.Inf(1)
		}
		return (actual - expected) / expected
	}
}
