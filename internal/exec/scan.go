package exec

import (
	"fmt"
	"math"

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
	e.count(cQueries, 1)
	return e.violationScanVec(b, b.tables[0].NumRows())
}

// violationScanVec scans block at a time: fixed ranges and
// string sets run through the shared selection-vector filter
// primitives, and blocks a fixed-range zone map proves empty are
// skipped without touching rows. RowsScanned counts only rows in
// visited blocks; skipped blocks are reported via BlocksSkipped. The
// emitted rows are in ascending row order; a NaN under a fixed range is
// rejected, as on every access path (filterRange).
func (e *Engine) violationScanVec(b *binding, n int) ([]RowViolations, error) {
	t := b.tables[0]
	ranges := b.ranges[0]
	strs := b.strFlts[0]
	var zps []zonePred
	for i := range ranges {
		rb := &ranges[i]
		if math.IsInf(rb.lo, -1) && math.IsInf(rb.hi, 1) {
			continue
		}
		zps = append(zps, zonePred{zm: e.zoneMapFor(t, rb.ord, rb.vec), lo: rb.lo, hi: rb.hi})
	}
	eo := e.obsState.Load()

	d := len(b.q.Dims)
	out := make([]RowViolations, 0, n)
	// One flat backing array for all violation vectors: a 1M-row scan
	// must not allocate 1M tiny slices. Its capacity is n*d, so
	// extending the length never reallocates (which would invalidate
	// earlier sub-slices).
	backing := make([]float64, 0, n*d)
	var buf [blockRows]int32
	nb := numBlocks(n)
	var rows, scanned, skipped int64
	for bi := 0; bi < nb; bi++ {
		lo := bi * blockRows
		hi := min(lo+blockRows, n)
		if blockSkippable(zps, bi) {
			skipped++
			continue
		}
		scanned++
		rows += int64(hi - lo)
		sel := buf[:0]
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		for i := range ranges {
			if len(sel) == 0 {
				break
			}
			sel = filterRange(sel, ranges[i].vec, ranges[i].lo, ranges[i].hi)
		}
		for i := range strs {
			if len(sel) == 0 {
				break
			}
			sel = filterStringIn(sel, strs[i].vec, strs[i].set)
		}
		observeDensity(eo, len(sel), hi-lo)
		for _, r := range sel {
			start := len(backing)
			backing = backing[:start+d]
			viol := backing[start : start+d]
			for _, sd := range b.selDims {
				viol[sd.di] = sd.dim.Violation(sd.vec[r])
			}
			v := 1.0
			if b.aggTbl >= 0 {
				v = b.aggVec[r]
			}
			out = append(out, RowViolations{Row: r, Viol: viol, AggValue: v})
		}
	}
	e.count(cRowsScanned, rows)
	e.count(cBlocksScanned, scanned)
	e.count(cBlocksSkipped, skipped)
	return out, nil
}

// Count is a convenience wrapper: the COUNT(*) of the query restricted
// to the region, regardless of the query's own constraint aggregate.
func (e *Engine) Count(q *relq.Query, region relq.Region) (int64, error) {
	p, err := e.Aggregate(q, region)
	if err != nil {
		return 0, err
	}
	return p.Count, nil
}
