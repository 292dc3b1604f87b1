package exec

import (
	"log/slog"
	"math"

	"acquire/internal/agg"
	"acquire/internal/index"
	"acquire/internal/relq"
)

// boxConstraint is one select dimension's contribution to the box walk:
// the violation interval it must satisfy, the grid dimension its column
// occupies, and the driving value interval the region admits on it.
type boxConstraint struct {
	sd       *selBind
	pos      int // grid dimension
	iv       relq.ViolInterval
	val      index.Interval // admitted value interval (conservative)
	interior []bool         // per bin offset (binLo..binHi on pos): all rows qualify
}

// boxAggregate answers an eligible single-table region query from an
// aggregate-augmented grid: the region's value box is decomposed into
// interior cells — every row provably qualifies, answered by merging
// the stored per-cell partials with zero row touches (§2.6 OSP) — and
// boundary cells, answered by scanning only their posting lists.
//
// ok=false means the query is not eligible (joins, UDAs, fixed
// predicates, split SelectEQ bands, unindexed dimensions) and the
// caller must run the scan path. The decomposition is conservative:
// a cell is interior only when the padded bin spans prove every
// resident row's violation vector inside the region, so boundary rows
// get the exact per-row check of the scan path and results agree.
func (e *Engine) boxAggregate(p *batchPlan, region relq.Region) (agg.Partial, bool, error) {
	b := p.b
	if p.grids == nil || len(b.tables) != 1 || len(b.joinDims) != 0 || len(b.equiJoins) != 0 ||
		len(b.ranges[0]) != 0 || len(b.strFlts[0]) != 0 || b.spec.Func == relq.AggUser {
		return agg.Zero(), false, nil
	}
	g := p.grids[0].g
	if g == nil || !g.HasAggs() {
		return agg.Zero(), false, nil
	}
	aggIdx := -1
	if b.aggTbl >= 0 {
		if aggIdx = g.AggIndex(b.q.Constraint.Attr.Column); aggIdx < 0 {
			return agg.Zero(), false, nil
		}
	}
	ndims := p.grids[0].dims

	cons := make([]boxConstraint, 0, len(b.selDims))
	for i := range b.selDims {
		sd := &b.selDims[i]
		pos := p.grids[0].pos[i]
		if pos < 0 {
			return agg.Zero(), false, nil // dimension not indexed
		}
		ivs, n := valueIntervals(sd.dim, region[sd.di])
		switch n {
		case 0:
			return agg.Zero(), true, nil // dimension admits nothing
		case 1:
		default:
			// Split SelectEQ band: two disjoint boxes would need
			// double-count bookkeeping; the scan path handles it.
			return agg.Zero(), false, nil
		}
		cons = append(cons, boxConstraint{
			sd: sd, pos: pos, iv: region[sd.di], val: ivs[0],
		})
	}

	// Bin box: per grid dimension, the full bin range intersected with
	// every constraint's driving interval (padded so float rounding at
	// an interval edge can only widen the box, never lose a row).
	los := make([]int, ndims)
	his := make([]int, ndims)
	for d := range los {
		los[d], his[d] = 0, g.Bins(d)-1
	}
	for i := range cons {
		lo, hi := cons[i].val.Lo, cons[i].val.Hi
		// Pad from the finite endpoints only: an infinite side must not
		// poison the pad (Abs(±Inf) = +Inf would blow the finite side to
		// ±Inf and degenerate the box to the whole grid).
		pad := 1e-9
		if !math.IsInf(lo, -1) {
			pad += 1e-9 * math.Abs(lo)
		}
		if !math.IsInf(hi, 1) {
			pad += 1e-9 * math.Abs(hi)
		}
		if !math.IsInf(lo, -1) {
			lo -= pad
		}
		if !math.IsInf(hi, 1) {
			hi += pad
		}
		bl, bh, ok := g.BinRange(cons[i].pos, lo, hi)
		if !ok {
			return agg.Zero(), true, nil // interval misses the domain
		}
		if bl > los[cons[i].pos] {
			los[cons[i].pos] = bl
		}
		if bh < his[cons[i].pos] {
			his[cons[i].pos] = bh
		}
		if los[cons[i].pos] > his[cons[i].pos] {
			return agg.Zero(), true, nil
		}
	}

	// Per-constraint interior flags, one per bin in the box along the
	// constraint's dimension: true when the padded bin span proves every
	// resident value's violation inside (iv.Lo, iv.Hi]. Violation is
	// monotone on each side of the bound for every select kind, so the
	// span's extremes are attained at its endpoints (plus the bound
	// itself for the V-shaped SelectEQ).
	for i := range cons {
		c := &cons[i]
		c.interior = make([]bool, his[c.pos]-los[c.pos]+1)
		for bin := los[c.pos]; bin <= his[c.pos]; bin++ {
			sLo, sHi := g.BinSpan(c.pos, bin)
			vLo, vHi := c.sd.violation(sLo), c.sd.violation(sHi)
			minV, maxV := math.Min(vLo, vHi), math.Max(vLo, vHi)
			if c.sd.dim.Kind == relq.SelectEQ && sLo <= c.sd.bound && c.sd.bound <= sHi {
				minV = 0
			}
			c.interior[bin-los[c.pos]] = minV > c.iv.Lo && maxV <= c.iv.Hi
		}
	}

	// Walk the box in odometer order (deterministic): interior cells
	// merge the stored partial; boundary cells scan their posting list
	// with the exact per-row region check of the scan path.
	out := agg.Zero()
	var cellsMerged, boundaryRows int64
	cur := make([]int, ndims)
	copy(cur, los)
	for {
		cell := 0
		for d, c := range cur {
			cell += c * g.Stride(d)
		}
		if cnt := g.CellCount(cell); cnt > 0 {
			interior := true
			for i := range cons {
				if !cons[i].interior[cur[cons[i].pos]-los[cons[i].pos]] {
					interior = false
					break
				}
			}
			if interior {
				if aggIdx < 0 {
					// COUNT(*): every row steps 1.0, so the cell's fold is
					// exactly {cnt, cnt, 1, 1} — integer sums are exact.
					out = agg.Merge(out, agg.Partial{Count: cnt, Sum: float64(cnt), Min: 1, Max: 1})
				} else {
					sum, mn, mx := g.CellAgg(aggIdx, cell)
					out = agg.Merge(out, agg.Partial{Count: cnt, Sum: sum, Min: mn, Max: mx})
				}
				cellsMerged++
			} else {
				boundaryRows += boundaryCellVec(b, cons, g.PostingList(cell), &out)
			}
		}
		d := len(cur) - 1
		for d >= 0 {
			cur[d]++
			if cur[d] <= his[d] {
				break
			}
			cur[d] = los[d]
			d--
		}
		if d < 0 {
			break
		}
	}

	p.stats[cRowsScanned].Add(boundaryRows)
	p.stats[cBoundaryRows].Add(boundaryRows)
	p.stats[cCellsMerged].Add(cellsMerged)
	if o := e.Observer(); o.LogEnabled(slog.LevelDebug) {
		o.Debug("engine.boxagg", "table", b.q.Tables[0],
			"cells_merged", cellsMerged, "boundary_rows", boundaryRows)
	}
	return out, true, nil
}

// boundaryCellVec folds one boundary cell's posting list, ascending, in
// blockRows-row chunks: each chunk compacts a selection vector one
// constraint at a time — keeping rows with Violation in (iv.Lo, iv.Hi],
// exactly the per-dimension test region.Contains performs, and cons
// covers every query dimension for eligible queries — and the survivors
// step the aggregate in posting-list order. It returns the rows read.
func boundaryCellVec(b *binding, cons []boxConstraint, rows []int32, out *agg.Partial) int64 {
	var buf [blockRows]int32
	for lo := 0; lo < len(rows); lo += blockRows {
		sel := buf[:min(blockRows, len(rows)-lo)]
		copy(sel, rows[lo:])
		for i := range cons {
			if len(sel) == 0 {
				break
			}
			c := &cons[i]
			k := 0
			for _, r := range sel {
				v := c.sd.violation(c.sd.vec[r])
				sel[k] = r
				k += b2i(v > c.iv.Lo && v <= c.iv.Hi)
			}
			sel = sel[:k]
		}
		if b.aggTbl >= 0 {
			for _, r := range sel {
				b.spec.StepValue(out, b.aggVec[r])
			}
		} else {
			for range sel {
				b.spec.StepValue(out, 1.0)
			}
		}
	}
	return int64(len(rows))
}
