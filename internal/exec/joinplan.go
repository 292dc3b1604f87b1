package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// This file is the batch-bound plan and the join memo it reads. The
// regions of one AggregateBatch are boxes over the same bound query that
// differ only in their violation intervals (§5.1), so what does not
// depend on the region is bound once, after bind: the attach order and
// each edge's sides, the grid positions of the select dimensions, and —
// for joins — each region's places in the memo.
//
// The memo holds what a join computes from less than the whole region.
// A table's candidates depend only on the region's intervals over that
// table's own dimensions, so they are kept per (table, intervals) with
// the build side made from them (grouped for an equi attach, sorted for
// a band attach). The output of every equi attach but the last depends
// only on the entries attached so far, so it is kept under that tuple of
// entries. A cell (u1,u2,u3) shares u1 with cells of its own Expand
// layer and of every later one: the first region to need an entry or a
// prefix computes it, the rest read it. Each region still sees the
// attach order and tuple stream of a stand-alone execution (same order,
// same MaxIntermediate error), so its partial is the same bits. Band
// (the band is the region's), cartesian and last attaches run per region.
//
// Lifetime: the memo belongs to a joinScope. A search opens one with
// WithJoinScope and every batch it dispatches finds it in the context,
// so a (table, intervals) slab is scanned once per search; a batch that
// finds none (Aggregate, a direct AggregateBatch) gets a private one.
// Nothing is parked on Engine, in a sync.Pool or in the region cache;
// nothing outlives the search. A scope retains at most scopeBudget row
// ids per row of the bound tables; entries beyond that live for their
// batch, under the same bound again, and beyond that for their region.
// Admission is decided as a plan is built (dispatching goroutine, region
// order), never by worker arrival: a search's Stats repeat exactly.

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

	*planMemo // nil unless the query joins tables

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
	// A groupable batch's lattice scope and its build's rows (grouped.go).
	gscope      *joinScope
	groupedRows int64
}

// planMemo is the regions' places in the join memo: ents[ti][i] is region
// i's entry on table ti, nil when there was no room; pre[i*memoStages+s-1]
// its node for attach stage s, if its entries are the scope's (kept, when
// this plan fills it, up to nodeCap row ids).
type planMemo struct {
	state               *scopeState
	ents                [][]*candEntry
	pre                 []*prefixNode
	memoStages, nodeCap int
}

// joinScope owns a join memo: a scopeState per engine that planned a join
// under it, since two engines can see one context (a session's exact engine
// and its sample engine). mu guards the states' maps; entries and nodes fill
// under their own Once.
type joinScope struct {
	mu     sync.Mutex
	states map[*Engine]*scopeState
	step   float64 // the search's relq.CellRegion step; 0: no lattice (grouped.go)
}

func newJoinScope() *joinScope { return &joinScope{states: make(map[*Engine]*scopeState)} }

type scopeKey struct{}

// WithJoinScope returns a context under which the join batches of one search
// share a memo of candidates, build sides and attach prefixes (head of this
// file). Under it the query and, short of InvalidateTable, the tables stay fixed.
func WithJoinScope(ctx context.Context) context.Context {
	return context.WithValue(ctx, scopeKey{}, newJoinScope())
}

// scopeBudget is the row ids a scope may retain per row of the bound tables:
// room for all of a search's disjoint cells; nested regions fit until it is spent.
const scopeBudget = 4

// scopeState is one engine's memo under one binding: the query, its tables
// and row counts, the engine's epoch and MaxIntermediate (a prefix carries
// its overflow error). A plan bound to anything else starts over.
type scopeState struct {
	b        *binding
	rows     []int
	epoch    uint64
	maxInter int

	entries []map[string]*candEntry // per table, by interval bit patterns
	nodes   map[nodeKey]*prefixNode
	// retained is held against budget: entries' scan bounds, nodes' tuples.
	retained atomic.Int64
	budget   int64
	seq      int       // plans built so far
	group    cellGroup // a lattice search's grouped table (grouped.go)
}

// stateFor returns e's memo under s for binding b. The caller holds s.mu.
func (s *joinScope) stateFor(e *Engine, b *binding) *scopeState {
	epoch := e.epoch.Load()
	if st := s.states[e]; st != nil && st.b.q == b.q && st.epoch == epoch && st.maxInter == e.MaxIntermediate &&
		slices.Equal(st.b.tables, b.tables) &&
		slices.EqualFunc(b.tables, st.rows, func(t *data.Table, n int) bool { return t.NumRows() == n }) {
		return st
	}
	st := &scopeState{b: b, epoch: epoch, maxInter: e.MaxIntermediate, nodes: make(map[nodeKey]*prefixNode)}
	for _, t := range b.tables {
		st.rows = append(st.rows, t.NumRows())
		st.budget += scopeBudget * int64(t.NumRows())
		st.entries = append(st.entries, make(map[string]*candEntry))
	}
	s.states[e] = st
	return st
}

// candEntry is one (table, local intervals) combination: the table's
// candidate rows under those intervals and, when the table is attached
// through an equi or a band edge, the rows grouped or sorted by build key.
// Content is a function of the key alone: the first region there fills it.
type candEntry struct {
	scoped bool // kept in the scope, not just for the batch that made it
	scan   sync.Once
	rows   []int32
	err    error

	group  sync.Once
	groups *f64Groups

	band   sync.Once
	sorted *sortedIdx // the rows under their scaled band keys
}

// nodeKey names an equi attach stage's output by what it is made from:
// the stage before (the root table's entry at stage 1) and ent.
type nodeKey struct {
	prev      *prefixNode
	root, ent *candEntry
}

// prefixNode memoizes one equi attach stage's output with its overflow
// error; fill sets kept unless the output exceeds the filling plan's
// nodeCap. seq is the last plan that counted it among those it may fill.
type prefixNode struct {
	fill   sync.Once
	kept   atomic.Bool
	tuples []int32
	err    error
	seq    int
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
	// cell and counts serve grouped.go: coordinates, a worker's counts.
	cell   []int
	counts *[]int32
}

// newBatchPlan binds the region-invariant state of executing b over
// regions; a join's memo is scope's, or a private scope's when it is nil.
func (e *Engine) newBatchPlan(b *binding, regions []relq.Region, scope *joinScope) *batchPlan {
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
		if p.planMemo = new(planMemo); scope == nil {
			scope = newJoinScope()
		}
		for s := 1; s < nt-1 && p.edges[p.order[s]].equi != nil; s++ {
			p.memoStages = s
		}
		p.bindMemo(scope)
	}
	return p
}

// bindMemo resolves every region's entries and prefix nodes in the
// scope. Per table the key is the region's intervals over that table's
// select dimensions by bit pattern (equal bits scan identically; a -0/+0
// mismatch costs an unshared entry). A new entry joins the scope if the
// rows its scan may return fit in the budget, else the batch (lent, the
// same budget again), else no one.
func (p *batchPlan) bindMemo(scope *joinScope) {
	scope.mu.Lock()
	defer scope.mu.Unlock()
	b, st := p.b, scope.stateFor(p.e, p.b)
	st.seq++
	p.state = st
	p.ents = make([][]*candEntry, len(b.tables))
	var key []byte
	var sc regionScratch
	lent := int64(0)
	for ti := range p.ents {
		p.ents[ti] = make([]*candEntry, len(p.regions))
		var batch map[string]*candEntry // this batch's own entries, made on first use
		for i, r := range p.regions {
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
			ent := st.entries[ti][string(key)]
			if ent == nil {
				ent = batch[string(key)]
			}
			if ent == nil {
				bound := int64(st.rows[ti])
				if ac, err := p.e.accessPath(b, r, ti, &sc); err == nil && (ac.indexed || ac.empty) {
					bound = int64(ac.hi - ac.lo) // the slab; 0 when a dimension admits no value
				}
				if st.retained.Load()+bound <= st.budget {
					st.retained.Add(bound)
					ent = &candEntry{scoped: true}
					st.entries[ti][string(key)] = ent
				} else if lent+bound <= st.budget {
					lent += bound
					if ent = new(candEntry); batch == nil {
						batch = make(map[string]*candEntry)
					}
					batch[string(key)] = ent
				}
			}
			p.ents[ti][i] = ent
		}
	}
	if p.memoStages == 0 {
		return
	}
	// The nodes this plan may be first to fill share what is left evenly:
	// together they fit, and which are kept does not depend on fill order.
	p.pre = make([]*prefixNode, len(p.regions)*p.memoStages)
	unfilled := 0
	for i := range p.regions {
		k := nodeKey{root: p.ents[p.order[0]][i]}
		for s := 1; s <= p.memoStages && (k.prev != nil || k.root != nil && k.root.scoped); s++ {
			if k.ent = p.ents[p.order[s]][i]; k.ent == nil || !k.ent.scoped {
				break
			}
			n := st.nodes[k]
			if n == nil {
				n = new(prefixNode)
				st.nodes[k] = n
			}
			if n.seq != st.seq && !n.kept.Load() {
				n.seq = st.seq
				unfilled++
			}
			p.pre[i*p.memoStages+s-1] = n
			k = nodeKey{prev: n}
		}
	}
	p.nodeCap = int(st.budget-st.retained.Load()) / max(unfilled, 1)
}

// tuples returns region i's joined tuples (stride = number of tables,
// columns in attach order) ahead of the final filter: the scanned
// candidates of a single-table query, the attach loop's output
// otherwise. The result may alias sc (or the memo) until sc's next use.
func (p *batchPlan) tuples(sc *regionScratch, i int) ([]int32, error) {
	if len(p.b.tables) == 1 {
		rows, err := p.e.vscanTable(p.b, p.regions[i], 0, sc, sc.rows[:0])
		sc.rows = rows[:0]
		return rows, err
	}
	// Every table is scanned before any is attached, in table order,
	// and the first empty candidate list ends the region — the order in
	// which a stand-alone execution touches (and counts) its scans.
	var buf [8]*candEntry
	ents := buf[:0] // the region's entries per table, its own where p.ents has none
	for ti := range p.b.tables {
		ent, err := p.cands(sc, i, ti)
		if err != nil || len(ent.rows) == 0 {
			return nil, err
		}
		ents = append(ents, ent)
	}
	return p.join(sc, i, ents)
}

// cands returns region i's entry on table ti with its candidate rows
// scanned.
func (p *batchPlan) cands(sc *regionScratch, i, ti int) (*candEntry, error) {
	ent := p.ents[ti][i]
	if ent == nil {
		ent = new(candEntry)
	}
	ent.scan.Do(func() {
		rows, err := p.e.vscanTable(p.b, p.regions[i], ti, sc, sc.rows[:0])
		sc.rows = rows[:0]
		ent.rows, ent.err = slices.Clone(rows), err
	})
	return ent, ent.err
}

// join attaches the tables in plan order, starting from the root's
// candidates, and returns the flattened tuples of row indexes. A stage
// with a node reads its output, filling it first if no region has; a
// node that kept nothing leaves the stage to the region.
func (p *batchPlan) join(sc *regionScratch, i int, ents []*candEntry) ([]int32, error) {
	tuples := ents[p.order[0]].rows
	for stride := 1; stride < len(p.order); stride++ {
		var n *prefixNode
		if stride <= p.memoStages {
			n = p.pre[i*p.memoStages+stride-1]
		}
		if n != nil {
			n.fill.Do(func() {
				if out, err := p.attachOwn(sc, ents[p.order[stride]], i, stride, tuples); err != nil || len(out) <= p.nodeCap {
					n.tuples, n.err = slices.Clone(out), err
					n.kept.Store(true)
					p.state.retained.Add(int64(len(out)))
				}
			})
		}
		var err error
		if n != nil && n.kept.Load() {
			tuples, err = n.tuples, n.err
		} else {
			tuples, err = p.attachOwn(sc, ents[p.order[stride]], i, stride, tuples)
		}
		if err != nil || len(tuples) == 0 {
			return nil, err
		}
	}
	return tuples, nil
}

// attachOwn runs region i's attach stage `stride`, which attaches ent's
// table, into sc's buffers.
func (p *batchPlan) attachOwn(sc *regionScratch, ent *candEntry, i, stride int, tuples []int32) ([]int32, error) {
	st := &p.edges[p.order[stride]]
	out := sc.tuples[stride&1][:0]
	var err error
	switch {
	case st.equi != nil:
		out, err = p.attachEqui(out, tuples, stride, st, ent)
	case st.band != nil:
		out, err = p.attachBand(out, tuples, stride, st, ent, p.regions[i])
	default:
		out, err = p.attachCartesian(out, tuples, stride, ent.rows)
	}
	if err != nil {
		return nil, err
	}
	sc.tuples[stride&1] = out[:0]
	return out, nil
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
// join dimension's bound at the region's upper interval end. Only the
// band is the region's: the build side sorted by key is the entry's, made
// by the first region to attach it. The counting and the fill pass take the
// same slab of it per tuple (a NaN center compares all-false: no rows).
func (p *batchPlan) attachBand(out, tuples []int32, stride int, st *planEdge, ent *candEntry, region relq.Region) ([]int32, error) {
	jd := st.band
	maxBand := jd.dim.BoundAt(region[jd.di].Hi)
	if st.buildCoef == 0 {
		return nil, fmt.Errorf("exec: zero join coefficient")
	}
	ent.band.Do(func() {
		// NaN keys are left out: no band contains them, and under `<` they
		// have no place in the order slab's searches rely on.
		ix := &sortedIdx{rows: make([]int32, 0, len(ent.rows))}
		key := func(i int) float64 { return st.buildCoef * st.buildVec[ix.rows[i]] }
		for _, r := range ent.rows {
			if k := st.buildCoef * st.buildVec[r]; k == k {
				ix.rows = append(ix.rows, r)
			}
		}
		sort.Slice(ix.rows, func(i, j int) bool { return key(i) < key(j) })
		for i := range ix.rows {
			ix.vals = append(ix.vals, key(i))
		}
		ent.sorted = ix
	})
	ix := ent.sorted
	ntup := len(tuples) / stride
	probePos := p.pos[st.probeTbl]
	total := 0
	for ti := 0; ti < ntup; ti++ {
		center := st.probeCoef * st.probeVec[tuples[ti*stride+probePos]]
		lo, hi := ix.slab(center-maxBand, center+maxBand)
		if total += hi - lo; total > p.e.MaxIntermediate {
			return nil, p.overflow()
		}
	}
	out = slices.Grow(out, total*(stride+1))
	for ti := 0; ti < ntup; ti++ {
		center := st.probeCoef * st.probeVec[tuples[ti*stride+probePos]]
		lo, hi := ix.slab(center-maxBand, center+maxBand)
		for _, r := range ix.rows[lo:hi] {
			out = append(out, tuples[ti*stride:(ti+1)*stride]...)
			out = append(out, r)
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
