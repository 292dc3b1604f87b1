// Package baseline implements the three comparison techniques of §8.2,
// each extended as the paper describes to address the ACQ problem, and
// each running against the same evaluation engine as ACQUIRE so
// execution-time comparisons count identical work:
//
//   - Top-k: ORDER BY the normalized-violation expression LIMIT A_exp
//     (tuple-oriented; COUNT only; no join refinement; no query output).
//   - BinSearch [Mishra, Koudas, Zuzarte; SIGMOD'08]: per-predicate
//     binary search toward the target cardinality, sensitive to
//     predicate order.
//   - TQGen [same source]: iterative grid search over predicate-value
//     combinations, executing k^d whole queries per zoom round.
package baseline

import (
	"context"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/relq"
)

// Outcome is the uniform result record the harness compares across
// methods.
type Outcome struct {
	// Method names the technique.
	Method string
	// Satisfied reports whether the aggregate landed within δ.
	Satisfied bool
	// Aggregate is the attained aggregate value.
	Aggregate float64
	// Err is the aggregate error against the constraint target.
	Err float64
	// Scores is the induced per-dimension refinement (PScore units);
	// nil when the method does not produce a refined query (Top-k
	// produces tuples, and its induced refinement is the bounding
	// expansion of the selected set).
	Scores []float64
	// QScore is the L1 refinement score of Scores — the paper's
	// cross-method comparison metric (Figures 8.c, 9.c).
	QScore float64
	// Executions counts evaluation-layer query executions.
	Executions int64
}

func l1(scores []float64) float64 {
	s := 0.0
	for _, v := range scores {
		s += v
	}
	return s
}

// evalAt executes the whole refined query at the score vector and
// returns the aggregate value. Every baseline probe passes through
// here, so the context check makes all three methods cancellable at
// probe granularity.
func evalAt(ctx context.Context, e core.Evaluator, q *relq.Query, spec agg.Spec, scores []float64) (float64, error) {
	parts, err := e.AggregateBatch(ctx, q, []relq.Region{relq.PrefixRegion(scores)})
	if err != nil {
		return 0, err
	}
	return spec.Final(parts[0]), nil
}
