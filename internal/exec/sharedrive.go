package exec

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"time"

	"acquire/internal/agg"
	"acquire/internal/exec/regioncache"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// This file is the scan stage of a single-table batch, where the unit
// of work is the index drive, not the region. Per region the
// engine picks the most selective driving interval (accessPath); the
// cells of one Expand layer pick the same slab of the same sorted index
// many times over, and scanning per region gathers it once per cell. So
// the batch runs in two rounds. The first takes every region through its
// front — region cache, empty-cell skip, box kernel (engine.go) — and
// defers the ones that reach the scan stage. Then, only if any did, the
// deferred regions are keyed by their chosen slab, sorted, and cut into
// units: a group of regions driving from one slab, or a single region
// without one. The second round drains the units, and a group folds all
// of its members from one pass over the slab (foldSlab).
//
// A slab longer than slabCut rows is cut into consecutive sub-slabs, and
// each (group, sub-slab) is a unit of its own, so one long drive spreads
// over the pool like many short ones. Such a unit folds into partials of
// its own on the plan, merged into out in sub-slab order when the round
// ends (mergeParts); a slab that is not cut folds straight into out.
// Where a slab is cut depends on its length alone, so every partial is
// the same for every worker count.
//
// Nothing is materialized: the pass works in block-sized buffers on the
// worker's stack, and the keys, units and partials die with the plan.
//
// Regions with no index drive — full scans — keep the per-region scan
// (vscanTable + finalizeVec), one unit each. A third route skips the
// units: a lattice search's COUNT(*) cells are answered from its grouped
// table (grouped.go) before planUnits cuts.

// unitKey places one deferred region in the batch's unit order.
type unitKey struct {
	// src is the predicate the region's slab is driven from
	// (scanDrive.src), or soloSrc for a region that scans alone.
	src int32
	// lo, hi delimit the slab in src's sorted index.
	lo, hi int32
	i      int32 // region index
	rows   int32 // what the region's scan gathers alone (grouped.go's rent)
}

// soloSrc marks a region that scans alone, per region.
const soloSrc = -1

// unitSpan is one unit: the deferred regions keys[lo:hi] and, for a
// group, the rows [slo, shi) of its slab that the unit folds. part is
// where the unit's per-member partials start in batchPlan.parts, or -1
// when the unit folds straight into out.
type unitSpan struct {
	lo, hi   int32
	slo, shi int32
	part     int32
}

// slabCut is the most rows of a slab one unit folds; a longer slab is
// cut into sub-slabs of this length (the last may be shorter). It is a
// constant, not a function of the worker count, so SUM's association —
// one partial per sub-slab, merged in slab order — depends on the slab
// alone.
const slabCut = 32768

// maxUnitMembers caps a group. A slab shared by more regions than this
// is cut into several units, each gathering it again: the gather is
// already amortized 64 ways, and a batch whose regions all share one
// drive still spreads over the workers.
const maxUnitMembers = 64

// front runs the first round for region i: it either resolves the
// region into out[i] or defers it to the units.
//
// With a region cache the region is looked up first. A hit resolves it;
// a miss is recorded in p.missed, whose partials AggregateBatch stores
// once the whole batch has succeeded, and the region runs as it would
// without a cache.
func (p *batchPlan) front(sc *regionScratch, i int, out []agg.Partial) error {
	e := p.e
	t0 := p.regionStart()
	if p.cache != nil {
		if val, hit := p.cache.Get(p.cacheKey(i)); hit {
			p.stats[cCacheHits].Add(1)
			out[i] = val
			p.endRegion(i, t0, true, nil)
			return nil
		}
		p.stats[cCacheMisses].Add(1)
		p.mu.Lock()
		if p.missed == nil {
			p.missed = make([]int32, 0, len(p.regions))
		}
		p.missed = append(p.missed, int32(i))
		p.mu.Unlock()
	}
	part, deferred, err := e.aggregateRegion(p, sc, i)
	if deferred {
		p.mu.Lock()
		if p.deferred == nil {
			p.deferred = make([]unitKey, 0, len(p.regions))
		}
		p.deferred = append(p.deferred, unitKey{i: int32(i)})
		p.mu.Unlock()
		return nil
	}
	out[i] = part
	p.endRegion(i, t0, false, err)
	return err
}

func (p *batchPlan) cacheKey(i int) regioncache.Key {
	k := p.fp.WithRegion(p.regions[i])
	return regioncache.Key{Hi: k.Hi, Lo: k.Lo}
}

// store puts the missed regions' partials into the cache, under the
// generation read before the batch ran. AggregateBatch calls it only
// after both rounds succeeded.
func (p *batchPlan) store(out []agg.Partial) {
	var evicted int64
	for _, i := range p.missed {
		evicted += p.cache.Put(p.cacheKey(int(i)), out[i], p.gen)
	}
	p.stats[cCacheEvictions].Add(evicted)
}

// regionStart reads the clock ahead of a region's front, when the
// batch is timed.
func (p *batchPlan) regionStart() (t0 time.Time) {
	if p.span.Timed() {
		t0 = p.span.Clock().Now()
	}
	return t0
}

// endRegion records the "evaluate" span [t0, now) of a region resolved
// without a scan unit — traced with its fingerprint and cache outcome
// when a cache is attached — and, for an execution, its engine.query
// event. Deferred regions are covered by their unit's span.
func (p *batchPlan) endRegion(i int, t0 time.Time, hit bool, err error) {
	if !p.span.Timed() {
		return
	}
	end := p.span.Clock().Now()
	sp := p.span.AddChild("evaluate", t0, end)
	if sp.Active() && p.cache != nil {
		p.traceCache(sp, i, hit)
	}
	if !hit {
		queryDone(sp.Observer(), p, end.Sub(t0), 1, err)
	}
}

func (p *batchPlan) traceCache(sp obs.SpanRef, i int, hit bool) {
	k := p.fp.WithRegion(p.regions[i])
	sp.SetAttrs(obs.String("fingerprint", fmt.Sprintf("%016x%016x", k.Hi, k.Lo)),
		obs.Bool("cache_hit", hit))
}

// place chooses the deferred region's access path and keys it by the
// slab it drives from.
func (p *batchPlan) place(sc *regionScratch, key *unitKey) error {
	ac, err := p.e.accessPath(p.b, p.regions[key.i], 0, sc)
	if err != nil {
		return err
	}
	key.src, key.rows = soloSrc, int32(ac.rows(p.b.tables[0].NumRows()))
	if ac.indexed {
		key.src, key.lo, key.hi = int32(ac.drive.src), int32(ac.lo), int32(ac.hi)
	}
	return nil
}

// planUnits cuts the deferred regions into units. It runs between the
// two rounds, on one goroutine; a batch whose regions were all resolved
// by their fronts has nothing deferred and no second round. Under a
// lattice scope the search's grouped table first answers the cells it
// covers, and the rest may buy a new one (grouped.go).
func (p *batchPlan) planUnits(ctx context.Context, scs []regionScratch, out []agg.Partial) error {
	sc := &scs[0]
	var g *cellGroup
	if p.gscope != nil {
		p.gscope.mu.Lock()
		g = &p.gscope.stateFor(p.e, p.b).group
		p.gscope.mu.Unlock()
		g.mu.Lock()
		defer g.mu.Unlock()
		sc.cell = make([]int, len(p.b.selDims))
		p.groupCells(g, sc, out)
	}
	keys := p.deferred
	for k := range keys {
		if err := p.place(sc, &keys[k]); err != nil {
			return err
		}
	}
	slices.SortFunc(keys, func(a, b unitKey) int {
		return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.lo, b.lo),
			cmp.Compare(a.hi, b.hi), cmp.Compare(a.i, b.i))
	})
	if g != nil && len(keys) > 0 {
		if err := p.rentOrBuy(ctx, g, scs, out); err != nil {
			return err
		}
		keys = p.deferred
	}
	for lo := 0; lo < len(keys); {
		first, hi := keys[lo], lo+1
		if first.src == soloSrc {
			p.units = append(p.units, unitSpan{lo: int32(lo), hi: int32(hi), part: -1})
			lo = hi
			continue
		}
		for hi < len(keys) && hi-lo < maxUnitMembers &&
			keys[hi].src == first.src && keys[hi].lo == first.lo && keys[hi].hi == first.hi {
			hi++
		}
		if first.hi-first.lo <= slabCut {
			p.units = append(p.units, unitSpan{int32(lo), int32(hi), first.lo, first.hi, -1})
		} else {
			for slo := first.lo; slo < first.hi; slo += slabCut {
				p.units = append(p.units, unitSpan{int32(lo), int32(hi), slo, min(slo+slabCut, first.hi), int32(len(p.parts))})
				p.parts = slices.Grow(p.parts, hi-lo)[:len(p.parts)+hi-lo]
			}
		}
		lo = hi
	}
	return nil
}

// runUnit executes unit u of the second round into out and reports it:
// one "evaluate" span per unit.
func (p *batchPlan) runUnit(sc *regionScratch, u int, out []agg.Partial) error {
	e, us := p.e, p.units[u]
	members := p.deferred[us.lo:us.hi]
	sp := p.span.StartChild("evaluate")
	var err error
	if members[0].src == soloSrc {
		i := int(members[0].i)
		out[i], err = e.scanAggregate(p, sc, i)
	} else {
		var parts []agg.Partial
		if us.part >= 0 {
			parts = p.parts[us.part:][:len(members)]
		}
		err = p.foldSlab(sc, members, us.slo, us.shi, parts, out, e.obsState.Load())
	}
	// A cut slab's regions count on the unit of its first sub-slab alone,
	// so the regions of a batch's spans and events sum to its own.
	n := len(members)
	if us.slo != members[0].lo {
		n = 0
	}
	if sp.Active() {
		sp.SetAttrs(obs.Int("regions", int64(n)))
		if p.cache != nil && n == 1 {
			p.traceCache(sp, int(members[0].i), false)
		}
	}
	queryDone(sp.Observer(), p, sp.End(), n, err)
	return err
}

// mergeParts merges the partials of each cut slab's units into out, in
// sub-slab order: the units of one group follow each other in p.units,
// the first starting at the slab's first row.
func (p *batchPlan) mergeParts(out []agg.Partial) {
	for _, us := range p.units {
		if us.part < 0 {
			continue
		}
		for k, m := range p.deferred[us.lo:us.hi] {
			if part := p.parts[int(us.part)+k]; us.slo == m.lo {
				out[m.i] = part
			} else {
				out[m.i] = agg.Merge(out[m.i], part)
			}
		}
	}
}

// sharedDims is the number of select dimensions whose violation
// buffers foldSlab keeps on its stack; a query with more gets them from
// the heap.
const sharedDims = 6

// foldSlab folds every member region from one pass over the rows
// [slo, shi) of the slab they drive from, in 1024-row blocks: copy the
// block's row ids, apply the fixed filters, drop the rows that exceed
// the members' largest upper bound on a select dimension (the pass's
// only sparse gathers over those rows), compute the survivors'
// violations once into dense buffers, then let each member select
// Lo < v <= Hi on every dimension from those buffers and step its
// partial over what is left.
//
// Per member that is the rows in slab order, qualifying iff
// finalizeVec's test passes on every select dimension (the same
// selBind.violation expressions; a NaN fails every comparison there as
// here), stepped in that order into a partial that started at Zero —
// parts[k] for members[k] when parts is non-nil, out[i] otherwise. On
// a whole slab that is the sequence of a per-region scan and fold, so
// every bit of COUNT, SUM, MIN and MAX is the same. Rows the members'
// hull drops fail some member-independent upper bound and could qualify
// for none.
//
// RowsScanned counts the rows once — the rows physically gathered —
// and TuplesExamined the rows that survive the hull.
func (p *batchPlan) foldSlab(sc *regionScratch, members []unitKey, slo, shi int32, parts, out []agg.Partial, eo *engineObs) error {
	b := p.b
	first := members[0]
	nr := len(b.ranges[0])
	driveSel := int(first.src) - nr // the drive's select dimension, < 0 for a fixed range
	var ord int
	if driveSel >= 0 {
		ord = b.selDims[driveSel].ord
	} else {
		ord = b.ranges[0][first.src].ord
	}
	ix, err := sortedIndex(b.tables[0], ord)
	if err != nil {
		return err
	}
	cands := ix.rows[slo:shi]
	p.stats[cRowsScanned].Add(int64(len(cands)))
	if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.scan", "table", b.q.Tables[0], "rows", int64(len(cands)),
			"full_scan", false, "regions", len(members))
	}

	// The hull: per select dimension the members' largest Hi. The
	// drive's own dimension is left out — the slab already bounds it.
	f := &sc.filter
	*f = blockFilter{ranges: b.ranges[0], strs: b.strFlts[0], driven: -1}
	if driveSel < 0 {
		f.driven = int(first.src)
	}
	locals := sc.locals[:0]
	for j := range b.selDims {
		if j == driveSel {
			continue
		}
		sd := &b.selDims[j]
		hi := math.Inf(-1)
		for _, m := range members {
			hi = max(hi, p.regions[m.i][sd.di].Hi)
		}
		locals = append(locals, localDim{dim: sd.dim, vec: sd.vec, hi: hi})
	}
	sc.locals, f.locals = locals, locals
	dst := func(k int) *agg.Partial { // members[k]'s partial
		if parts != nil {
			return &parts[k]
		}
		return &out[members[k].i]
	}
	for k := range members {
		*dst(k) = agg.Zero()
	}

	var (
		rowBuf  [blockRows]int32
		pickBuf [blockRows]int32
		violBuf [sharedDims * blockRows]float64
	)
	viol := violBuf[:]
	if need := len(b.selDims) * blockRows; need > len(viol) {
		viol = make([]float64, need)
	}
	var tuples int64
	for blo := 0; blo < len(cands); blo += blockRows {
		bhi := min(blo+blockRows, len(cands))
		sel := rowBuf[:bhi-blo]
		copy(sel, cands[blo:bhi])
		sel = f.apply(sel)
		observeDensity(eo, len(sel), bhi-blo)
		if len(sel) == 0 {
			continue
		}
		tuples += int64(len(sel))
		for j := range b.selDims {
			sd := &b.selDims[j]
			col := viol[j*blockRows:][:len(sel)]
			for k, r := range sel {
				col[k] = sd.violation(sd.vec[r])
			}
		}
		for k, m := range members {
			pick := selectRegion(b, p.regions[m.i], viol, len(sel), pickBuf[:])
			part := dst(k)
			if b.aggTbl >= 0 {
				for _, k := range pick {
					b.spec.StepValue(part, b.aggVec[sel[k]])
				}
			} else {
				for range pick {
					b.spec.StepValue(part, 1.0)
				}
			}
		}
	}
	p.stats[cTuplesExamined].Add(tuples)
	return nil
}

// selectRegion returns, in ascending order, the positions k < n of a
// block whose violations (viol holds one blockRows-strided column per
// select dimension) lie inside the region on every dimension.
func selectRegion(b *binding, region relq.Region, viol []float64, n int, pick []int32) []int32 {
	if len(b.selDims) == 0 {
		pick = pick[:n]
		for k := range pick {
			pick[k] = int32(k)
		}
		return pick
	}
	iv := region[b.selDims[0].di]
	c := 0
	for k, v := range viol[:n] {
		pick[c] = int32(k)
		c += b2i(v > iv.Lo && v <= iv.Hi)
	}
	pick = pick[:c]
	for j := 1; j < len(b.selDims) && len(pick) > 0; j++ {
		iv := region[b.selDims[j].di]
		col := viol[j*blockRows:][:n]
		c := 0
		for _, k := range pick {
			v := col[k]
			pick[c] = k
			c += b2i(v > iv.Lo && v <= iv.Hi)
		}
		pick = pick[:c]
	}
	return pick
}
