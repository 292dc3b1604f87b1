package exec

import (
	"fmt"

	"acquire/internal/agg"
	"acquire/internal/relq"
)

// NaiveAggregate evaluates the query by exhaustive nested loops over
// the full cross product, with no pruning, no hash joins and no index.
// It exists as the correctness oracle for Aggregate: every optimization
// in the engine is differential-tested against it on small inputs.
func (e *Engine) NaiveAggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	b, err := e.bind(q)
	if err != nil {
		return agg.Zero(), err
	}
	if len(region) != len(q.Dims) {
		return agg.Zero(), fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(q.Dims))
	}

	rows := make([]int32, len(b.tables))
	viol := make([]float64, len(q.Dims))
	part := agg.Zero()

	var rec func(ti int)
	rec = func(ti int) {
		if ti == len(b.tables) {
			for i := range b.ranges {
				for _, rb := range b.ranges[i] {
					// NaN is outside every range.
					if v := rb.vec[rows[i]]; !(v >= rb.lo && v <= rb.hi) {
						return
					}
				}
				for _, sb := range b.strFlts[i] {
					if _, ok := sb.set[sb.vec[rows[i]]]; !ok {
						return
					}
				}
			}
			for i := range b.equiJoins {
				ej := &b.equiJoins[i]
				if ej.lc*ej.lvec[rows[ej.ltbl]] != ej.rc*ej.rvec[rows[ej.rtbl]] {
					return
				}
			}
			for _, sd := range b.selDims {
				viol[sd.di] = sd.dim.Violation(sd.vec[rows[sd.tbl]])
			}
			for _, jd := range b.joinDims {
				viol[jd.di] = jd.dim.JoinViolation(jd.lvec[rows[jd.ltbl]], jd.rvec[rows[jd.rtbl]])
			}
			if !region.Contains(viol) {
				return
			}
			v := 1.0
			if b.aggTbl >= 0 {
				v = b.aggVec[rows[b.aggTbl]]
			}
			b.spec.StepValue(&part, v)
			return
		}
		for r := 0; r < b.tables[ti].NumRows(); r++ {
			rows[ti] = int32(r)
			rec(ti + 1)
		}
	}
	rec(0)
	return part, nil
}
