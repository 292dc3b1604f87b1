package exec

import (
	"fmt"

	"acquire/internal/relq"
)

// RowViolations is the per-row output of ViolationScan: the row index,
// its violation vector over the query dimensions, and its aggregate
// attribute value (1 for COUNT(*)).
type RowViolations struct {
	Row      int32
	Viol     []float64
	AggValue float64
}

// ViolationScan scans a single-table query and returns, for every row
// passing the fixed filters, its violation vector over the query's
// select dimensions. This is the primitive behind the Top-k baseline's
// ORDER BY <violation expression> LIMIT k query (§8.2): the whole table
// is examined regardless of how much refinement is eventually needed,
// which is exactly the cost profile the paper observes for Top-k.
//
// Counts as one query execution against the evaluation layer. Join
// queries are rejected: "none of the above techniques are capable of
// refining join predicates" (§8.2).
func (e *Engine) ViolationScan(q *relq.Query) ([]RowViolations, error) {
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	if len(b.tables) != 1 {
		return nil, fmt.Errorf("exec: ViolationScan supports single-table queries, got %d tables", len(b.tables))
	}
	if len(b.joinDims) != 0 {
		return nil, fmt.Errorf("exec: ViolationScan does not support join dimensions")
	}
	var st statsCells
	defer e.flush(&st, nil)
	st[cQueries].Add(1)
	return e.violationScanVec(b, &st), nil
}

// violationScanVec runs the full-scan branch of vscanTable — the fixed
// ranges and string sets over every block — on the calling goroutine,
// and then computes the survivors' violation vectors. The emitted rows
// are in ascending row order; a NaN under a fixed range is rejected, as
// on every access path (filterRange).
func (e *Engine) violationScanVec(b *binding, st *statsCells) []RowViolations {
	f := blockFilter{ranges: b.ranges[0], strs: b.strFlts[0], driven: -1}
	rows := fullScan(b, 0, &f, e.obsState.Load(), st, nil)
	d := len(b.q.Dims)
	out := make([]RowViolations, len(rows))
	// One flat backing array for all violation vectors: a 1M-row scan
	// must not allocate 1M tiny slices.
	backing := make([]float64, len(rows)*d)
	for k, r := range rows {
		viol := backing[k*d : (k+1)*d : (k+1)*d]
		for _, sd := range b.selDims {
			viol[sd.di] = sd.dim.Violation(sd.vec[r])
		}
		v := 1.0
		if b.aggTbl >= 0 {
			v = b.aggVec[r]
		}
		out[k] = RowViolations{Row: r, Viol: viol, AggValue: v}
	}
	return out
}
