package exec

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/relq"
)

// cellGroup is a search's table on one engine; mu guards reads and builds.
type cellGroup struct {
	mu       sync.Mutex
	h        int      // horizon: coordinates 0..h on every dimension
	counts   *[]int32 // (h+1)^d mixed-radix cells; nil before the first build
	gathered int64    // rent: rows the cells' units gathered since the last build
}

func (g *cellGroup) drop(e *Engine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.counts != nil { // a nil one would shadow the pool's slabs
		e.countSlabs.Put(g.counts)
	}
	g.counts = nil
}

func (e *Engine) countSlab(n int) *[]int32 {
	s, _ := e.countSlabs.Get().(*[]int32)
	if s == nil || cap(*s) < n {
		b := make([]int32, n)
		return &b
	}
	*s = (*s)[:n]
	clear(*s)
	return s
}

// cellGrid's cell u admits bnd[u] < v ≤ bnd[u+1]: bnd[0] = −1 and
// bnd[u+1] = float64(u)·step, as CellRegion computes them, up to h.
type cellGrid struct {
	inv, lim float64 // 1/step, finite; float64(h)·step
	bnd      []float64
}

func newCellGrid(step float64, h int) *cellGrid {
	g := &cellGrid{inv: min(1/step, math.MaxFloat64), lim: float64(h) * step, bnd: make([]float64, h+2)}
	g.bnd[0] = -1
	for u := 0; u <= h; u++ {
		g.bnd[u+1] = float64(u) * step
	}
	return g
}

// cellOf is the cell admitting v, or −1. The bounds never decrease, so
// the walks end on it; from ⌈v/step⌉ they rarely take a step.
func (g *cellGrid) cellOf(v float64) int {
	if !(v > -1 && v <= g.lim) {
		return -1
	}
	u := min(max(int(math.Ceil(v*g.inv)), 0), len(g.bnd)-2)
	for v > g.bnd[u+1] {
		u++
	}
	for v <= g.bnd[u] {
		u--
	}
	return u
}

// cellCoords writes into u the coordinates of r, if r is bit for bit a
// relq.CellRegion at the scope's step, and returns the largest.
func (p *batchPlan) cellCoords(r relq.Region, u []int) (maxc int, ok bool) {
	step := p.gscope.step
	for j := range p.b.selDims {
		iv, c := r[p.b.selDims[j].di], 0
		if iv != (relq.ViolInterval{Lo: -1, Hi: 0}) {
			if q := math.Round(iv.Hi / step); q >= 1 && q <= 1<<30 {
				c = int(q)
			}
			if c == 0 || iv.Hi != float64(c)*step || iv.Lo != float64(c-1)*step {
				return 0, false
			}
		}
		u[j], maxc = c, max(maxc, c)
	}
	return maxc, true
}

// groupCells answers the deferred cells the table covers, as units would.
func (p *batchPlan) groupCells(g *cellGroup, sc *regionScratch, out []agg.Partial) {
	keep, n := p.deferred[:0], 0
	for _, k := range p.deferred {
		maxc, ok := 0, false
		if g.counts != nil {
			maxc, ok = p.cellCoords(p.regions[k.i], sc.cell)
		}
		if !ok || maxc > g.h {
			keep = append(keep, k)
			continue
		}
		id := 0
		for _, c := range sc.cell {
			id = id*(g.h+1) + c
		}
		part := agg.Zero()
		if c := int64((*g.counts)[id]); c > 0 {
			part = agg.Partial{Count: c, Sum: float64(c), Min: 1, Max: 1}
		}
		out[k.i], n = part, n+1
	}
	p.deferred = keep
	p.stats[cCellsGrouped].Add(int64(n))
}

// rentOrBuy adds what the placed, sorted cells' units gather to the rent
// and builds the largest table in (m, 2m] it pays for, m their top cell.
func (p *batchPlan) rentOrBuy(ctx context.Context, g *cellGroup, scs []regionScratch, out []agg.Partial) error {
	sc := &scs[0]
	maxc, rent, members := -1, g.gathered, 0
	var prev unitKey
	for _, k := range p.deferred {
		m, ok := p.cellCoords(p.regions[k.i], sc.cell)
		if !ok {
			continue
		}
		if members == 0 || members == maxUnitMembers || k.src == soloSrc ||
			k.src != prev.src || k.lo != prev.lo || k.hi != prev.hi {
			rent, members = rent+int64(k.rows), 0
		}
		maxc, prev, members = max(maxc, m), k, members+1
	}
	if maxc < 0 {
		return nil
	}
	h := maxc + 1
	ac, ok, err := p.horizon(h, rent, sc)
	for top := 2 * maxc; ok && err == nil && top > h; top-- {
		if a, buy, e := p.horizon(top, rent, sc); buy || e != nil {
			h, ac, err = top, a, e
			break
		}
	}
	if err != nil || !ok {
		g.gathered = rent
		return err
	}
	if err := p.buildCells(ctx, g, scs, h, ac); err != nil {
		return err
	}
	p.groupCells(g, sc, out)
	return nil
}

// horizon: the box [0, h·step]^d's path, and if rent pays for a table over
// it, rows plus cells. A box the index cannot narrow is a full scan whose
// cells are as wide as the table's: never a table.
func (p *batchPlan) horizon(h int, rent int64, sc *regionScratch) (ac access, ok bool, err error) {
	n, cells := p.b.tables[0].NumRows(), math.Pow(float64(h+1), float64(len(p.b.selDims)))
	if cells > float64(n) {
		return ac, false, nil
	}
	box := make(relq.Region, len(p.b.q.Dims))
	for i := range box {
		box[i] = relq.ViolInterval{Lo: -1, Hi: float64(h) * p.gscope.step}
	}
	ac, err = p.e.accessPath(p.b, box, 0, sc)
	return ac, err == nil && (ac.indexed || ac.empty) && float64(rent) >= float64(ac.rows(n))+cells, err
}

func (ac *access) rows(n int) int {
	if ac.indexed || ac.empty {
		return ac.hi - ac.lo // 0 when empty
	}
	return n
}

// buildCells replaces the table with one of horizon h over ac's rows.
// Workers bin into counts of their own; a cancelled build changes nothing.
func (p *batchPlan) buildCells(ctx context.Context, g *cellGroup, scs []regionScratch, h int, ac access) error {
	e, b := p.e, p.b
	rows, grid, drive := ac.rows(b.tables[0].NumRows()), newCellGrid(p.gscope.step, h), -1
	f := blockFilter{ranges: b.ranges[0], strs: b.strFlts[0], driven: -1} // foldSlab's, h·step as every hull
	var cands []int32                                                     // the slab
	var vals []float64                                                    // its drive values
	if nr := len(b.ranges[0]); ac.indexed {
		cands, vals = ac.ix.rows[ac.lo:ac.hi], ac.ix.vals[ac.lo:ac.hi]
		if f.driven = ac.drive.src; ac.drive.src >= nr {
			f.driven, drive = -1, ac.drive.src-nr
		}
	}
	cells := 1
	for j := range b.selDims {
		if cells *= h + 1; j != drive {
			sd := &b.selDims[j]
			f.locals = append(f.locals, localDim{dim: sd.dim, vec: sd.vec, hi: grid.lim})
		}
	}
	const chunk = 16 * blockRows
	tasks := (rows + chunk - 1) / chunk
	scs = e.widen(scs, tasks) // a narrow batch still builds on every worker
	scs = scs[:max(min(len(scs), tasks), 1)]
	for k := range scs {
		scs[k].counts = e.countSlab(cells)
	}
	var binned atomic.Int64
	err := drain(ctx, scs, tasks, func(sc *regionScratch, t int) error {
		var rowBuf, posBuf, idBuf [blockRows]int32
		var valBuf [blockRows]float64
		counts, n := *sc.counts, 0
		for blo, hi := t*chunk, min(t*chunk+chunk, rows); blo < hi; blo += blockRows {
			sel := rowBuf[:min(blo+blockRows, hi)-blo]
			copy(sel, cands[blo:])
			sel = f.apply(sel)
			pos, ids := posBuf[:len(sel)], idBuf[:len(sel)]
			clear(ids)
			if drive >= 0 { // the survivors' places in the slab
				at := blo
				for k, r := range sel {
					for cands[at] != r {
						at++
					}
					pos[k], at = int32(at), at+1
				}
			}
			for j := range b.selDims {
				sd, col, idx := &b.selDims[j], b.selDims[j].vec, sel
				if j == drive {
					col, idx = vals, pos
				}
				v := valBuf[:len(idx)] // gather with no branch to mispredict, then bin
				for k, r := range idx {
					v[k] = col[r]
				}
				c := 0
				for k := range v {
					u := grid.cellOf(sd.violation(v[k]))
					sel[c], pos[c], ids[c] = sel[k], pos[k], ids[k]*int32(h+1)+int32(u)
					c += b2i(u >= 0)
				}
				sel, pos, ids = sel[:c], pos[:c], ids[:c]
			}
			for _, id := range ids {
				counts[id]++
			}
			n += len(ids)
		}
		binned.Add(int64(n))
		return nil
	})
	for _, sc := range scs[1:] {
		for i, c := range *sc.counts {
			(*scs[0].counts)[i] += c
		}
		e.countSlabs.Put(sc.counts)
	}
	if err != nil {
		e.countSlabs.Put(scs[0].counts)
		return err
	}
	if g.counts != nil {
		e.countSlabs.Put(g.counts)
	}
	g.h, g.counts, g.gathered = h, scs[0].counts, 0
	p.groupedRows += int64(rows)
	p.stats[cRowsScanned].Add(int64(rows))
	p.stats[cTuplesExamined].Add(binned.Load())
	return nil
}
