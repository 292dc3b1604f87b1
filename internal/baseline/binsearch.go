package baseline

import (
	"context"
	"fmt"
	"math"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/exec"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// BinSearchOptions tunes the BinSearch baseline.
type BinSearchOptions struct {
	// Delta is the aggregate error threshold.
	Delta float64
	// Order permutes the predicate refinement order; nil means query
	// order. The paper's §8.4.1 observation — "even a single change to
	// the order can change the error by a factor of 100" — is
	// reproducible by sweeping this.
	Order []int
	// MaxProbes bounds binary-search probes per predicate (default 20).
	MaxProbes int
}

// BinSearch implements the §8.2 binary-search extension of [11]: refine
// one predicate at a time, binary-searching its expansion for the
// target aggregate while holding the others fixed. If a predicate's
// full expansion still undershoots, it is pinned at its maximum and the
// search moves to the next predicate in order.
//
// Each probe is a whole-query execution; the method is fast (O(d log)
// probes) but order-sensitive and gives no proximity guarantee (Table 1:
// cardinality only, no proximity criterion).
func BinSearch(e *exec.Engine, q *relq.Query, opts BinSearchOptions) (*Outcome, error) {
	return BinSearchContext(context.Background(), e, q, opts)
}

// BinSearchContext is BinSearch with cancellation, checked at every
// probe.
func BinSearchContext(ctx context.Context, e *exec.Engine, q *relq.Query, opts BinSearchOptions) (*Outcome, error) {
	sp := e.Observer().StartSpan(obs.SpanRef{}, "baseline_binsearch")
	defer sp.End()
	ctx, done := exec.WithSearchScope(ctx, 0) // probes move one dimension: the other tables' candidates repeat
	defer done()
	if opts.Delta == 0 {
		opts.Delta = 0.05
	}
	if opts.MaxProbes == 0 {
		opts.MaxProbes = 20
	}
	order := opts.Order
	if order == nil {
		order = make([]int, len(q.Dims))
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != len(q.Dims) {
		return nil, fmt.Errorf("baseline: order has %d entries for %d dims", len(order), len(q.Dims))
	}
	seen := make(map[int]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= len(q.Dims) || seen[i] {
			return nil, fmt.Errorf("baseline: order is not a permutation of dimensions")
		}
		seen[i] = true
	}

	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return nil, err
	}
	errFn := agg.DefaultError(q.Constraint)
	limits, err := core.DomainScores(e, q)
	if err != nil {
		return nil, err
	}

	target := q.Constraint.Target
	scores := make([]float64, len(q.Dims))

	best := math.Inf(1)
	bestScores := append([]float64(nil), scores...)
	bestVal := math.NaN()

	consider := func(val float64) {
		ev := errFn(target, val)
		if ev < best {
			best = ev
			bestScores = append(bestScores[:0], scores...)
			bestVal = val
		}
	}

	val, err := evalAt(ctx, e, q, spec, scores)
	if err != nil {
		return nil, err
	}
	consider(val)

	// The probe schedule is fixed: every predicate runs its full binary
	// search regardless of intermediate errors. This is what makes
	// BinSearch's execution time constant across aggregate ratios
	// (§8.4.1: "TQGen and BinSearch both need to explore the same
	// number of queries each time and hence their execution time
	// remains constant") — and what makes its final error so sensitive
	// to predicate order.
	for _, di := range order {
		// Does fully expanding this predicate reach the target?
		lo, hi := 0.0, limits[di]
		if hi <= 0 {
			continue
		}
		scores[di] = hi
		val, err := evalAt(ctx, e, q, spec, scores)
		if err != nil {
			return nil, err
		}
		consider(val)
		if undershoots(q.Constraint, val) {
			// Even the full expansion undershoots: pin at max, move on.
			continue
		}
		// Binary search inside [lo, hi].
		for probe := 0; probe < opts.MaxProbes; probe++ {
			mid := (lo + hi) / 2
			scores[di] = mid
			val, err := evalAt(ctx, e, q, spec, scores)
			if err != nil {
				return nil, err
			}
			consider(val)
			if undershoots(q.Constraint, val) {
				lo = mid
			} else {
				hi = mid
			}
		}
		scores[di] = bestScores[di]
	}

	return &Outcome{
		Method:     "BinSearch",
		Satisfied:  best <= opts.Delta,
		Aggregate:  bestVal,
		Err:        best,
		Scores:     bestScores,
		QScore:     l1(bestScores),
		Executions: exec.ScopeStats(ctx).Queries,
	}, nil
}

// undershoots reports whether the value is below the target (the
// direction expansion fixes).
func undershoots(c relq.Constraint, val float64) bool {
	if math.IsNaN(val) {
		return true
	}
	return val < c.Target
}
