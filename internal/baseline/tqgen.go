package baseline

import (
	"context"
	"math"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/exec"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// TQGenOptions tunes the TQGen baseline. Defaults follow the shape of
// the SIGMOD'08 parameterisation the paper reuses ("our experiments use
// the TQGen parameters reported in [11]"): a coarse value grid per
// predicate, iteratively zoomed around the best combination.
type TQGenOptions struct {
	// Delta is the aggregate error threshold.
	Delta float64
	// GridK is the number of candidate values per predicate per round.
	GridK int
	// Rounds is the number of zoom iterations.
	Rounds int
}

func (o TQGenOptions) withDefaults() TQGenOptions {
	if o.Delta == 0 {
		o.Delta = 0.05
	}
	if o.GridK == 0 {
		o.GridK = 5
	}
	if o.Rounds == 0 {
		o.Rounds = 5
	}
	return o
}

// TQGen implements the §8.2 extension of targeted query generation
// [11]: each round discretises every predicate's refinement range into
// GridK candidate values, executes ALL GridK^d combinations as whole
// queries, picks the combination with the smallest aggregate error, and
// zooms the per-predicate ranges around it for the next round.
//
// The per-round cost is exponential in dimensionality — the defining
// characteristic Figure 9.a measures ("for TQGen, we see an exponential
// increase in the execution time") — while the final error is very low
// (Figure 8.b: "TQGen, in fact, produces lower error rates than
// ACQUIRE... at the cost of a 100X increase in execution time").
// Refinement proximity is not an objective (Figure 8.c), so the method
// reports whatever refinement its best combination happens to carry.
func TQGen(e *exec.Engine, q *relq.Query, opts TQGenOptions) (*Outcome, error) {
	return TQGenContext(context.Background(), e, q, opts)
}

// TQGenContext is TQGen with cancellation, checked at every grid-cell
// execution — essential here, since a single round issues GridK^d
// whole queries.
func TQGenContext(ctx context.Context, e *exec.Engine, q *relq.Query, opts TQGenOptions) (*Outcome, error) {
	sp := e.Observer().StartSpan(obs.SpanRef{}, "baseline_tqgen")
	defer sp.End()
	ctx, done := exec.WithSearchScope(ctx, 0) // the grid's queries share their per-table candidates
	defer done()
	opts = opts.withDefaults()
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return nil, err
	}
	errFn := agg.DefaultError(q.Constraint)
	limits, err := core.DomainScores(e, q)
	if err != nil {
		return nil, err
	}

	d := len(q.Dims)
	target := q.Constraint.Target

	lo := make([]float64, d)
	hi := append([]float64(nil), limits...)

	best := math.Inf(1)
	bestScores := make([]float64, d)
	bestVal := math.NaN()

	scores := make([]float64, d)
	idx := make([]int, d)

	// Like BinSearch, the schedule is fixed (§8.4.1: execution time is
	// constant across ratios): every round executes the full k^d grid.
	for round := 0; round < opts.Rounds; round++ {
		// Candidate values per dimension this round.
		cands := make([][]float64, d)
		for i := 0; i < d; i++ {
			cands[i] = gridValues(lo[i], hi[i], opts.GridK)
		}

		// Execute every combination (k^d whole queries).
		for i := range idx {
			idx[i] = 0
		}
		for {
			for i := 0; i < d; i++ {
				scores[i] = cands[i][idx[i]]
			}
			val, err := evalAt(ctx, e, q, spec, scores)
			if err != nil {
				return nil, err
			}
			if ev := errFn(target, val); ev < best {
				best = ev
				copy(bestScores, scores)
				bestVal = val
			}
			// Odometer.
			i := d - 1
			for i >= 0 {
				idx[i]++
				if idx[i] < len(cands[i]) {
					break
				}
				idx[i] = 0
				i--
			}
			if i < 0 {
				break
			}
		}

		// Zoom: shrink each range around the best value.
		for i := 0; i < d; i++ {
			span := (hi[i] - lo[i]) / float64(opts.GridK)
			c := bestScores[i]
			lo[i] = math.Max(0, c-span)
			hi[i] = math.Min(limits[i], c+span)
		}
	}

	return &Outcome{
		Method:     "TQGen",
		Satisfied:  best <= opts.Delta,
		Aggregate:  bestVal,
		Err:        best,
		Scores:     append([]float64(nil), bestScores...),
		QScore:     l1(bestScores),
		Executions: exec.ScopeStats(ctx).Queries,
	}, nil
}

func gridValues(lo, hi float64, k int) []float64 {
	if hi <= lo {
		return []float64{lo}
	}
	if k < 2 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, k)
	for i := 0; i < k; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return out
}
