package core

import (
	"fmt"
	"strings"

	"acquire/internal/relq"
)

// classify names a step's outcome, the search.point event's outcome
// attribute.
func classify(satisfied, overshoot, repartitioned bool) string {
	switch {
	case satisfied:
		return "satisfied"
	case repartitioned:
		return "repartitioned"
	case overshoot:
		return "overshoot"
	default:
		return "undershoot"
	}
}

// ExplainResult summarises a Result for human consumption: the layer
// profile and the recommended queries.
func ExplainResult(q *relq.Query, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d grid queries (%d evaluation-layer executions, %d stored points)\n",
		res.Explored, res.CellQueries, res.StoredPoints)
	if res.Exhausted {
		b.WriteString("search exhausted its budget or grid\n")
	}
	if res.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", res.Note)
	}
	if res.Satisfied {
		fmt.Fprintf(&b, "%d refined queries satisfy the constraint; best:\n  %s\n",
			len(res.Queries), res.Best.ToSQL())
		fmt.Fprintf(&b, "  aggregate %.6g (error %.4f), refinement %.4g\n",
			res.Best.Aggregate, res.Best.Err, res.Best.QScore)
	} else if res.Closest != nil {
		fmt.Fprintf(&b, "no refinement satisfied; closest:\n  %s\n  aggregate %.6g (error %.4f)\n",
			res.Closest.ToSQL(), res.Closest.Aggregate, res.Closest.Err)
	}
	return b.String()
}
