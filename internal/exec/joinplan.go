package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"acquire/internal/exec/regioncache"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// This file is the batch-bound plan. The regions of one AggregateBatch
// are boxes over the same bound query that differ only in their
// violation intervals (§5.1), so everything that does not depend on the
// region is bound once, after bind: the attach order and each attach
// edge's sides, the grid positions of the select dimensions, and — for
// multi-table queries — a memo of per-table candidate lists and
// equi-join build sides keyed by the table's local intervals. A
// table's candidates depend only on the region's intervals
// over that table's own dimensions, and the cells of one Expand layer
// share each such interval combination many times over, so the first
// region that needs a (table, intervals) entry scans and groups it and
// the rest read it.
//
// Per region the plan keeps the attach order, the probe/build roles and
// the emitted tuple stream of a stand-alone execution (same tuples in
// the same order, same MaxIntermediate error), so a region's partial is
// the same bits in a batch as alone. Band-join and cartesian attaches
// depend on the region (the band) or have no build structure, and run
// per region inside the same attach loop.
//
// Lifetime: a plan, its memo and the per-worker scratch are reachable
// only from the call that built them — AggregateBatch, one shard's
// share of a scatter, or the one region of Aggregate — and are garbage
// when it returns. Nothing is parked on Engine or in a sync.Pool: the
// candidate lists are table-sized in the worst case, and state that
// outlives the batch would sit in the heap between searches.

// planEdge records, for one table, how the attach loop reaches it.
// pickNext depends only on the binding's edge lists and the attached
// set — never on candidate contents — so the whole attach order is
// computable before any table is scanned.
type planEdge struct {
	equi *equiBind
	band *joinBind
	// probeTbl is the attached-side table of the edge; -1 for the root
	// table and for cartesian attaches.
	probeTbl int
	// slot is the table's position in the attach order (root = 0) and
	// therefore its column in every joined tuple.
	slot int
	// The edge's sides as the attach uses them: probe values come from
	// the attached table, build values from this one.
	probeVec, buildVec   []float64
	probeCoef, buildCoef float64
}

// joinEdge describes how a new table connects to the attached set.
type joinEdge struct {
	equi *equiBind
	band *joinBind
	// flip is true when the new table is the edge's left side.
	flip bool
}

// pickNext finds an unattached table connected to the attached set,
// preferring equi edges.
func (e *Engine) pickNext(b *binding, attached map[int]int) (int, *joinEdge) {
	for i := range b.equiJoins {
		ej := &b.equiJoins[i]
		_, lIn := attached[ej.ltbl]
		_, rIn := attached[ej.rtbl]
		if lIn && !rIn {
			return ej.rtbl, &joinEdge{equi: ej}
		}
		if rIn && !lIn {
			return ej.ltbl, &joinEdge{equi: ej, flip: true}
		}
	}
	for i := range b.joinDims {
		jd := &b.joinDims[i]
		_, lIn := attached[jd.ltbl]
		_, rIn := attached[jd.rtbl]
		if lIn && !rIn {
			return jd.rtbl, &joinEdge{band: jd}
		}
		if rIn && !lIn {
			return jd.ltbl, &joinEdge{band: jd, flip: true}
		}
	}
	return -1, nil
}

// attachPlan walks the attach order — table 0, then whatever pickNext
// connects, cartesian with the lowest unattached table when nothing
// does — and returns each table's edge, indexed by table.
func (e *Engine) attachPlan(b *binding) []planEdge {
	nt := len(b.tables)
	plan := make([]planEdge, nt)
	for i := range plan {
		plan[i].probeTbl = -1
	}
	if nt == 1 {
		return plan
	}
	attached := map[int]int{0: 0}
	for len(attached) < nt {
		next, edge := e.pickNext(b, attached)
		if next < 0 {
			for ti := 0; ti < nt; ti++ {
				if _, ok := attached[ti]; !ok {
					next = ti
					break
				}
			}
		}
		pe := planEdge{probeTbl: -1, slot: len(attached)}
		// orient assigns the edge's sides: the attached table probes,
		// next builds.
		orient := func(ltbl, rtbl int, lvec, rvec []float64, lc, rc float64) {
			if edge.flip { // next is the edge's left side
				ltbl, lvec, lc, rvec, rc = rtbl, rvec, rc, lvec, lc
			}
			pe.probeTbl, pe.probeVec, pe.probeCoef = ltbl, lvec, lc
			pe.buildVec, pe.buildCoef = rvec, rc
		}
		switch {
		case edge == nil:
		case edge.equi != nil:
			ej := edge.equi
			pe.equi = ej
			orient(ej.ltbl, ej.rtbl, ej.lvec, ej.rvec, ej.lc, ej.rc)
		case edge.band != nil:
			jd := edge.band
			pe.band = jd
			orient(jd.ltbl, jd.rtbl, jd.lvec, jd.rvec, jd.lc, jd.rc)
		}
		plan[next] = pe
		attached[next] = pe.slot
	}
	return plan
}

// batchPlan is one bound query plus everything region-invariant about
// executing it over the given regions. It is shared read-only by the
// batch's workers; the memo entries fill in lazily under sync.Once.
type batchPlan struct {
	e       *Engine
	b       *binding
	regions []relq.Region

	grids []gridBind // per table; nil when no table has a grid
	edges []planEdge // per table
	order []int      // attach order: order[slot] = table
	pos   []int      // pos[table] = slot

	// memo is per table; nil unless the query joins tables.
	memo []tableMemo

	// AggregateBatch's dispatch state: the attached region cache with
	// the batch's query-shape fingerprint, and the tracing span region
	// executions nest under (zero value: inert).
	cache *regioncache.Cache
	fp    relq.Fingerprint
	span  obs.SpanRef

	// The drive-shared scan stage (sharedrive.go) of a plan whose
	// regions scan one table: a region that gets past its front is not
	// scanned there but deferred, and the deferred regions are cut into
	// the units a second round of dispatch drains. flights holds the
	// cache claims of the deferred regions (nil without a cache).
	mu       sync.Mutex // guards deferred while the fronts run
	deferred []unitKey
	units    []unitSpan
	flights  []*regioncache.Flight
}

// tableMemo maps every region of the batch to the entry holding its
// candidates on one table.
type tableMemo struct {
	slot    []int32 // region index -> entry
	entries []candEntry
}

// candEntry is one (table, local intervals) combination of the batch:
// the table's candidate rows under those intervals and, when the table
// is attached through an equi edge, the rows grouped by build key.
// Content is a function of the key alone, so whichever region gets
// there first computes what every other region would have.
type candEntry struct {
	scan sync.Once
	rows []int32
	err  error

	group  sync.Once
	groups *f64Groups

	// pending counts the regions of the batch that map here and have
	// not finished; the last one out drops the content (see release).
	pending atomic.Int32
}

// regionScratch is one worker's reusable memory for the regions it
// executes within a batch. Buffers grow on demand and die with the
// batch.
type regionScratch struct {
	// rows receives scan output: a single-table region's candidates
	// (finalized straight from here), or the staging area a memo entry
	// is copied out of at its exact size.
	rows []int32
	// tuples are the attach loop's two alternating output buffers.
	tuples [2][]int32
	// box and alts serve cellProvablyEmpty.
	box  []index.Interval
	alts []gridAlt
	// drives, locals and filter serve accessPath and the scan it
	// chooses.
	drives []scanDrive
	locals []localDim
	filter blockFilter
}

// newBatchPlan binds the region-invariant state of executing b over
// regions.
func (e *Engine) newBatchPlan(b *binding, regions []relq.Region) *batchPlan {
	p := &batchPlan{
		e: e, b: b, regions: regions,
		grids: e.bindGrids(b),
		edges: e.attachPlan(b),
	}
	nt := len(b.tables)
	slots := make([]int, 2*nt)
	p.order, p.pos = slots[:nt], slots[nt:]
	for ti := range p.edges {
		p.order[p.edges[ti].slot] = ti
		p.pos[ti] = p.edges[ti].slot
	}
	if nt > 1 {
		p.memo = newTableMemos(b, regions)
	}
	return p
}

// newTableMemos interns, per table, the distinct combinations of the
// regions' intervals over that table's select dimensions. Intervals
// compare by bit pattern: equal bits scan identically, and the worst a
// -0/+0 mismatch costs is an unshared entry.
func newTableMemos(b *binding, regions []relq.Region) []tableMemo {
	memo := make([]tableMemo, len(b.tables))
	var key []byte
	for ti := range memo {
		m := &memo[ti]
		m.slot = make([]int32, len(regions))
		ids := make(map[string]int32)
		for i, r := range regions {
			if len(r) != len(b.q.Dims) {
				continue // aggregateRegion rejects it before any lookup
			}
			key = key[:0]
			for j := range b.selDims {
				if sd := &b.selDims[j]; sd.tbl == ti {
					key = binary.LittleEndian.AppendUint64(key, math.Float64bits(r[sd.di].Lo))
					key = binary.LittleEndian.AppendUint64(key, math.Float64bits(r[sd.di].Hi))
				}
			}
			id, ok := ids[string(key)]
			if !ok {
				id = int32(len(ids))
				ids[string(key)] = id
			}
			m.slot[i] = id
		}
		m.entries = make([]candEntry, len(ids))
		for i, r := range regions {
			if len(r) == len(b.q.Dims) {
				m.entries[m.slot[i]].pending.Add(1)
			}
		}
	}
	return memo
}

// entry returns the memo entry of region i on table ti.
func (p *batchPlan) entry(i, ti int) *candEntry {
	m := &p.memo[ti]
	return &m.entries[m.slot[i]]
}

// release marks region i finished with its entries. An entry whose last
// region has finished drops its rows and groups, so a wide batch of
// large regions that share nothing holds each candidate list only as
// long as a stand-alone execution would, not until the batch returns.
// (A region answered by the region cache never executes and never
// releases; its entries simply live to the end of the batch.)
func (p *batchPlan) release(i int) {
	for ti := range p.memo {
		if ent := p.entry(i, ti); ent.pending.Add(-1) == 0 {
			ent.rows, ent.groups = nil, nil
		}
	}
}

// tuples returns region i's joined tuples (stride = number of tables,
// columns in attach order) ahead of the final filter: the scanned
// candidates of a single-table query, the attach loop's output
// otherwise. The result may alias sc and is valid until sc's next use.
func (p *batchPlan) tuples(sc *regionScratch, i int) ([]int32, error) {
	if len(p.b.tables) == 1 {
		rows, err := p.e.vscanTable(p.b, p.regions[i], 0, sc, sc.rows[:0])
		sc.rows = rows[:0]
		return rows, err
	}
	// Every table is scanned before any is attached, in table order,
	// and the first empty candidate list ends the region — the order in
	// which a stand-alone execution touches (and counts) its scans.
	for ti := range p.b.tables {
		ent, err := p.cands(sc, i, ti)
		if err != nil || len(ent.rows) == 0 {
			return nil, err
		}
	}
	return p.join(sc, i)
}

// cands returns the memo entry of region i on table ti with its
// candidate rows scanned.
func (p *batchPlan) cands(sc *regionScratch, i, ti int) (*candEntry, error) {
	ent := p.entry(i, ti)
	ent.scan.Do(func() {
		rows, err := p.e.vscanTable(p.b, p.regions[i], ti, sc, sc.rows[:0])
		sc.rows = rows[:0]
		ent.rows, ent.err = slices.Clone(rows), err
	})
	return ent, ent.err
}

// join attaches the tables in plan order, starting from the root's
// candidates, and returns the flattened tuples of row indexes.
func (p *batchPlan) join(sc *regionScratch, i int) ([]int32, error) {
	tuples := p.entry(i, p.order[0]).rows
	for stride := 1; stride < len(p.order); stride++ {
		next := p.order[stride]
		ent, st := p.entry(i, next), &p.edges[next]
		out := sc.tuples[stride&1][:0]
		var err error
		switch {
		case st.equi != nil:
			out, err = p.attachEqui(out, tuples, stride, st, ent)
		case st.band != nil:
			out, err = p.attachBand(out, tuples, stride, st, ent.rows, p.regions[i])
		default:
			out, err = p.attachCartesian(out, tuples, stride, ent.rows)
		}
		if err != nil {
			return nil, err
		}
		sc.tuples[stride&1] = out[:0]
		tuples = out
		if len(tuples) == 0 {
			return nil, nil
		}
	}
	return tuples, nil
}

func (p *batchPlan) overflow() error {
	return fmt.Errorf("exec: intermediate join result exceeds %d tuples", p.e.MaxIntermediate)
}

// attachEqui hash-joins the tuples with the entry's table: the build
// side is the entry's candidates grouped by key, built by the first
// region that attaches this entry; each region then only probes. The
// overflow check runs ahead of each group's emit, so the error fires
// at the same tuple count as a counting pass would find.
func (p *batchPlan) attachEqui(out, tuples []int32, stride int, st *planEdge, ent *candEntry) ([]int32, error) {
	ent.group.Do(func() {
		ent.groups = buildF64Groups(ent.rows, st.buildVec, st.buildCoef)
	})
	g := ent.groups
	probePos := p.pos[st.probeTbl]
	total := 0
	for t := 0; t+stride <= len(tuples); t += stride {
		tuple := tuples[t : t+stride]
		rows := g.lookup(st.probeCoef * st.probeVec[tuple[probePos]])
		if total += len(rows); total > p.e.MaxIntermediate {
			return nil, p.overflow()
		}
		for _, r := range rows {
			out = append(out, tuple...)
			out = append(out, r)
		}
	}
	return out, nil
}

// attachBand joins on |probe - build| <= band, where the band is the
// join dimension's bound at the region's upper interval end — region
// dependent, so the sorted build side is per region. Both the counting
// and the fill pass run the identical binary-search + linear band walk,
// so they agree row for row (a NaN center compares all-false and emits
// nothing).
func (p *batchPlan) attachBand(out, tuples []int32, stride int, st *planEdge, build []int32, region relq.Region) ([]int32, error) {
	jd := st.band
	maxBand := jd.dim.BoundAt(region[jd.di].Hi)
	if st.buildCoef == 0 {
		return nil, fmt.Errorf("exec: zero join coefficient")
	}
	type kv struct {
		key float64
		row int32
	}
	// NaN keys are left out: no band contains them, and under `<` they
	// have no place in the order the searches below rely on.
	sorted := make([]kv, 0, len(build))
	for _, r := range build {
		if k := st.buildCoef * st.buildVec[r]; k == k {
			sorted = append(sorted, kv{key: k, row: r})
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	ntup := len(tuples) / stride
	probePos := p.pos[st.probeTbl]
	total := 0
	for ti := 0; ti < ntup; ti++ {
		center := st.probeCoef * st.probeVec[tuples[ti*stride+probePos]]
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].key >= center-maxBand })
		for i := lo; i < len(sorted) && sorted[i].key <= center+maxBand; i++ {
			total++
		}
		if total > p.e.MaxIntermediate {
			return nil, p.overflow()
		}
	}
	out = slices.Grow(out, total*(stride+1))
	for ti := 0; ti < ntup; ti++ {
		center := st.probeCoef * st.probeVec[tuples[ti*stride+probePos]]
		lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].key >= center-maxBand })
		for i := lo; i < len(sorted) && sorted[i].key <= center+maxBand; i++ {
			out = append(out, tuples[ti*stride:(ti+1)*stride]...)
			out = append(out, sorted[i].row)
		}
	}
	return out, nil
}

// attachCartesian crosses the tuples with a disconnected table.
func (p *batchPlan) attachCartesian(out, tuples []int32, stride int, build []int32) ([]int32, error) {
	ntup := len(tuples) / stride
	if len(build) > 0 && ntup > p.e.MaxIntermediate/len(build) {
		return nil, p.overflow()
	}
	out = slices.Grow(out, ntup*len(build)*(stride+1))
	for ti := 0; ti < ntup; ti++ {
		for _, r := range build {
			out = append(out, tuples[ti*stride:(ti+1)*stride]...)
			out = append(out, r)
		}
	}
	return out, nil
}
