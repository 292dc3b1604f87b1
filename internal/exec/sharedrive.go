package exec

import (
	"cmp"
	"context"
	"errors"
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
// Nothing is materialized: the pass works in block-sized buffers on the
// worker's stack, each member steps its partial in out[i] directly, and
// the keys and units die with the plan.
//
// Two kinds of region keep the per-region scan (vscanTable +
// finalizeVec): those with no index drive — full scans — and those
// whose slab holds parallelThreshold rows or more. Below that count
// the per-region fold is a single sequential chunk, which the pass
// reproduces step for step; at or above it parallelFold re-associates
// SUM by chunk and the scan fans out inside the region, and the pass
// does neither. The fork reads the slab's length, nothing else.
// A third route skips the units: a lattice search's COUNT(*) cells are
// answered from its grouped table (grouped.go) before planUnits cuts.

// unitKey places one deferred region in the batch's unit order.
type unitKey struct {
	// src is the predicate the region's slab is driven from
	// (scanDrive.src), or one of the two sentinels below.
	src int32
	// lo, hi delimit the slab in src's sorted index.
	lo, hi int32
	i      int32 // region index
	rows   int32 // what the region's scan gathers alone (grouped.go's rent)
}

const (
	// soloSrc marks a region that scans alone, per region.
	soloSrc = -1
	// waitSrc marks a region another caller is executing right now (the
	// region cache says so); its unit waits for that result. It sorts
	// after every other unit: see front for why that matters.
	waitSrc = math.MaxInt32
)

// unitSpan is one unit: the deferred regions keys[lo:hi].
type unitSpan struct{ lo, hi int32 }

// maxUnitMembers caps a group. A slab shared by more regions than this
// is cut into several units, each gathering it again: the gather is
// already amortized 64 ways, and a batch whose regions all share one
// drive still spreads over the workers.
const maxUnitMembers = 64

// errAbandoned ends the flights of deferred regions whose batch stopped
// (an error, a cancellation) before their unit ran; callers waiting on
// them execute for themselves.
var errAbandoned = errors.New("exec: batch ended before the region was executed")

// front runs the first round for region i: it either resolves the
// region into out[i] or defers it to the units.
//
// With a region cache the region is claimed first. A hit resolves it; a
// claim makes this batch the region's one execution, and if the region
// is deferred the claim stays open until its unit fills it. A region
// some other caller has claimed becomes a wait unit. Those run last, so
// by the time a worker blocks in one, every unit holding claims of this
// batch has been taken by a worker that does not block — two batches
// waiting on each other's regions cannot deadlock.
func (p *batchPlan) front(sc *regionScratch, i int, out []agg.Partial) error {
	e := p.e
	t0 := p.traceStart()
	var fl *regioncache.Flight
	if p.cache != nil {
		val, hit, f := p.cache.TryClaim(p.cacheKey(i))
		if hit {
			e.countCacheHits(1)
			out[i] = val
			p.traceRegion(i, t0, true)
			return nil
		}
		if f == nil {
			p.deferRegion(i, waitSrc, nil)
			return nil
		}
		fl = f
	}
	part, deferred, err := e.aggregateBound(p, sc, i)
	if deferred {
		p.deferRegion(i, 0, fl)
		return nil
	}
	if fl != nil {
		p.filled(fl.Fill(part, err), err)
	}
	out[i] = part
	p.traceRegion(i, t0, false)
	return err
}

func (p *batchPlan) cacheKey(i int) regioncache.Key {
	k := p.fp.WithRegion(p.regions[i])
	return regioncache.Key{Hi: k.Hi, Lo: k.Lo}
}

// filled counts one executed region's trip through the cache.
func (p *batchPlan) filled(evicted int64, err error) {
	if err != nil {
		return
	}
	p.e.countCacheMisses(1)
	if evicted > 0 {
		p.e.countCacheEvictions(evicted)
	}
}

// traceStart reads the trace clock ahead of a region's front, when the
// batch is traced.
func (p *batchPlan) traceStart() (t0 time.Time) {
	if p.span.Active() {
		t0 = p.span.Clock().Now()
	}
	return t0
}

// traceRegion records the "evaluate" span of a region resolved without
// a scan unit, with its fingerprint and cache outcome when a cache is
// attached. Deferred regions are covered by their unit's span.
func (p *batchPlan) traceRegion(i int, t0 time.Time, hit bool) {
	if !p.span.Active() {
		return
	}
	sp := p.span.AddChild("evaluate", t0, p.span.Clock().Now())
	if p.cache != nil {
		p.traceCache(sp, i, hit)
	}
}

func (p *batchPlan) traceCache(sp obs.SpanRef, i int, hit bool) {
	k := p.fp.WithRegion(p.regions[i])
	sp.SetAttrs(obs.String("fingerprint", fmt.Sprintf("%016x%016x", k.Hi, k.Lo)),
		obs.Bool("cache_hit", hit))
}

// deferRegion hands region i to the second round, with the cache claim
// its unit is to fill, if it holds one.
func (p *batchPlan) deferRegion(i int, src int32, fl *regioncache.Flight) {
	p.mu.Lock()
	if p.deferred == nil {
		p.deferred = make([]unitKey, 0, len(p.regions))
	}
	p.deferred = append(p.deferred, unitKey{src: src, i: int32(i)})
	if fl != nil {
		if p.flights == nil {
			p.flights = make([]*regioncache.Flight, len(p.regions))
		}
		p.flights[i] = fl
	}
	p.mu.Unlock()
}

// place chooses the deferred region's access path and keys it by the
// slab it drives from.
func (p *batchPlan) place(sc *regionScratch, key *unitKey) error {
	ac, err := p.e.accessPath(p.b, p.regions[key.i], 0, sc)
	if err != nil {
		return err
	}
	key.src, key.rows = soloSrc, int32(ac.rows(p.b.tables[0].NumRows()))
	if ac.indexed && ac.hi-ac.lo < parallelThreshold {
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
		if keys[k].src != waitSrc {
			if err := p.place(sc, &keys[k]); err != nil {
				return err
			}
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
		hi := lo + 1
		if first := keys[lo]; first.src != soloSrc && first.src != waitSrc {
			for hi < len(keys) && hi-lo < maxUnitMembers &&
				keys[hi].src == first.src && keys[hi].lo == first.lo && keys[hi].hi == first.hi {
				hi++
			}
		}
		p.units = append(p.units, unitSpan{int32(lo), int32(hi)})
		lo = hi
	}
	return nil
}

// runUnit executes unit u of the second round.
func (p *batchPlan) runUnit(sc *regionScratch, u int, out []agg.Partial) error {
	members := p.deferred[p.units[u].lo:p.units[u].hi]
	if members[0].src == waitSrc {
		return p.await(sc, int(members[0].i), out)
	}
	return p.scan(sc, members, out)
}

// await resolves a region another caller was executing when its front
// ran: normally a hit on that caller's result; should that execution
// have failed, this one runs the region itself, whole.
func (p *batchPlan) await(sc *regionScratch, i int, out []agg.Partial) error {
	t0 := p.traceStart()
	val, hit, evicted, err := p.cache.Do(p.cacheKey(i), func() (agg.Partial, error) {
		err := p.whole(sc, i, out)
		return out[i], err
	})
	if hit {
		p.e.countCacheHits(1)
		out[i] = val
		p.traceRegion(i, t0, true)
	} else {
		p.filled(evicted, err)
	}
	return err
}

// whole executes region i start to finish on the calling goroutine,
// past the cache: its front and, if it gets that far, its scan stage as
// a unit of one.
func (p *batchPlan) whole(sc *regionScratch, i int, out []agg.Partial) error {
	t0 := p.traceStart()
	part, deferred, err := p.e.aggregateBound(p, sc, i)
	if !deferred {
		out[i] = part
		p.traceRegion(i, t0, false)
		return err
	}
	one := [1]unitKey{{i: int32(i)}}
	if err := p.place(sc, &one[0]); err != nil {
		return err
	}
	return p.scan(sc, one[:], out)
}

// scan runs the scan stage of one unit's regions into out, reports it —
// one "evaluate" phase observation and one "evaluate" span per unit —
// and fills the members' cache claims.
func (p *batchPlan) scan(sc *regionScratch, members []unitKey, out []agg.Partial) error {
	e := p.e
	eo := e.obsState.Load()
	sp := p.span.StartChild("evaluate")
	var ph obs.Span
	if eo != nil {
		ph = eo.o.StartPhase("evaluate")
	}
	var err error
	if members[0].src == soloSrc {
		i := int(members[0].i)
		out[i], err = e.scanAggregate(p, sc, i)
	} else {
		err = p.foldSlab(sc, members, out, eo)
	}
	if eo != nil {
		eo.queryDone(p, ph.End(), len(members), err)
	}
	if sp.Active() {
		sp.SetAttrs(obs.Int("regions", int64(len(members))))
		if p.cache != nil && len(members) == 1 {
			p.traceCache(sp, int(members[0].i), false)
		}
		sp.End()
	}
	if p.flights != nil {
		for _, m := range members {
			if fl := p.flights[m.i]; fl != nil {
				p.flights[m.i] = nil
				p.filled(fl.Fill(out[m.i], err), err)
			}
		}
	}
	return err
}

// abandon ends every claim the batch still holds. It is a no-op after a
// batch that ran all its units.
func (p *batchPlan) abandon() {
	for i, fl := range p.flights {
		if fl != nil {
			p.flights[i] = nil
			fl.Fill(agg.Zero(), errAbandoned)
		}
	}
}

// sharedDims is the number of select dimensions whose violation
// buffers foldSlab keeps on its stack; a query with more gets them from
// the heap.
const sharedDims = 6

// foldSlab folds every member region from one pass over the slab they
// drive from, in 1024-row blocks: copy the block's row ids, apply the
// fixed filters, drop the rows that exceed the members' largest upper
// bound on a select dimension (the pass's only sparse gathers over the
// whole slab), compute the survivors' violations once into dense
// buffers, then let each member select Lo < v <= Hi on every dimension
// from those buffers and step its partial over what is left.
//
// Per member that is the rows of the slab in slab order, qualifying iff
// foldTuples' test passes on every select dimension (the same
// selBind.violation expressions; a NaN fails every comparison there as
// here), stepped in that order into a partial that started at Zero —
// the sequence of a per-region scan and fold of fewer than
// parallelThreshold tuples, so every bit of COUNT, SUM, MIN and MAX is
// the same. Rows the members' hull drops fail some member-independent
// upper bound and could qualify for none.
//
// RowsScanned counts the slab once — the rows physically gathered —
// and TuplesExamined the rows that survive the hull.
func (p *batchPlan) foldSlab(sc *regionScratch, members []unitKey, out []agg.Partial, eo *engineObs) error {
	e, b := p.e, p.b
	first := members[0]
	nr := len(b.ranges[0])
	driveSel := int(first.src) - nr // the drive's select dimension, < 0 for a fixed range
	var ord int
	if driveSel >= 0 {
		ord = b.selDims[driveSel].ord
	} else {
		ord = b.ranges[0][first.src].ord
	}
	ix, err := e.sortedIndex(b.tables[0], ord)
	if err != nil {
		return err
	}
	cands := ix.rows[first.lo:first.hi]
	e.countRows(int64(len(cands)))
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
		locals = append(locals, localDim{dim: sd.dim, vec: sd.vec, ord: sd.ord, hi: hi})
	}
	sc.locals, f.locals = locals, locals
	for _, m := range members {
		out[m.i] = agg.Zero()
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
		for _, m := range members {
			pick := selectRegion(b, p.regions[m.i], viol, len(sel), pickBuf[:])
			part := &out[m.i]
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
	e.countTuples(tuples)
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
