package baseline

import (
	"context"
	"fmt"
	"sort"

	"acquire/internal/exec"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// TopK implements the §8.2 Top-k extension: rank every tuple by its
// normalized violation of the refinable predicates —
//
//	ORDER BY (case when (x <= b1) then 0 else (x-b1)/(x.max-x.min)) +
//	         (case when (y <= b2) then 0 else (y-b2)/(y.max-y.min)) ...
//	LIMIT A_exp
//
// — and take the A_exp best. The whole table is scanned and sorted
// regardless of how little refinement is needed (the ranking function
// never changes), which is exactly the constant-cost profile of
// Figure 8.a. Only COUNT constraints translate to Top-k, and join
// predicates cannot be refined (§8.2); both are enforced.
//
// Top-k returns tuples, not a query; its induced refinement — the
// bounding expansion that would admit the selected set — is reported so
// Figures 8.c/9.c can compare refinement quality. Its aggregate error
// is 0 by construction ("a Top-k query explicitly specifies the number
// of tuples to return", §8.4.1) whenever enough tuples exist.
func TopK(e *exec.Engine, q *relq.Query) (*Outcome, error) {
	return TopKContext(context.Background(), e, q)
}

// TopKContext is TopK with cancellation, checked before the scan and
// before the sort (the two expensive phases).
func TopKContext(ctx context.Context, e *exec.Engine, q *relq.Query) (*Outcome, error) {
	sp := e.Observer().StartSpan(obs.SpanRef{}, "baseline_topk")
	defer sp.End()
	if q.Constraint.Func != relq.AggCount {
		return nil, fmt.Errorf("baseline: Top-k supports only COUNT constraints, got %s", q.Constraint.Func)
	}
	for i := range q.Dims {
		if q.Dims[i].Kind == relq.JoinBand {
			return nil, fmt.Errorf("baseline: Top-k cannot refine join predicates")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := e.ViolationScan(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := int(q.Constraint.Target)

	// Rank by total violation (the ORDER BY key), precomputed once so
	// the sort compares plain floats; ties break on row id so the
	// result is deterministic.
	keys := make([]float64, len(rows))
	perm := make([]int32, len(rows))
	for i := range rows {
		keys[i] = l1(rows[i].Viol)
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		i, j := perm[a], perm[b]
		if keys[i] != keys[j] {
			return keys[i] < keys[j]
		}
		return rows[i].Row < rows[j].Row
	})
	if k > len(rows) {
		k = len(rows)
	}
	selected := make([]exec.RowViolations, k)
	for i := 0; i < k; i++ {
		selected[i] = rows[perm[i]]
	}

	// Induced refinement: per-dimension maximum violation across the
	// selected tuples (the tightest refined query admitting them all).
	scores := make([]float64, len(q.Dims))
	for _, r := range selected {
		for i, v := range r.Viol {
			if v > scores[i] {
				scores[i] = v
			}
		}
	}

	out := &Outcome{
		Method:     "Top-k",
		Aggregate:  float64(len(selected)),
		Scores:     scores,
		QScore:     l1(scores),
		Executions: 1, // the one ViolationScan
	}
	if len(selected) == int(q.Constraint.Target) {
		out.Satisfied = true
		out.Err = 0
	} else {
		out.Err = (q.Constraint.Target - float64(len(selected))) / q.Constraint.Target
	}
	return out, nil
}
