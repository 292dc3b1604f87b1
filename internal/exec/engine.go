// Package exec is the evaluation layer of the reproduction: an
// in-memory columnar executor for conjunctive select-project-join
// queries with aggregate output. The original system delegated query
// execution to Postgres and noted the layer is modular (§3); every
// technique in this repository — ACQUIRE and the baselines — issues its
// (cell or whole) queries through this same engine, so execution-time
// comparisons count identical work units.
package exec

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// DefaultMaxIntermediate bounds intermediate join results, guarding
// accidental unbounded cartesian products.
const DefaultMaxIntermediate = 1 << 26

// Stats counts evaluation-layer work: the engine's (Snapshot) or one
// search's (ScopeStats). Each engine call counts into its own tally and
// flushes it when it returns, so engine counters move once per batch, not
// once per region, and a search's totals are its own work alone.
type Stats struct {
	// Queries is the number of query executions (cell queries and whole
	// queries alike — each is one round trip to the evaluation layer).
	Queries int64
	// RowsScanned counts base-table rows touched by scans — rows
	// physically read, not rows per region: when the regions of a batch
	// drive from the same sorted-index slab, the slab is gathered once
	// for all of them and counted once (sharedrive.go).
	RowsScanned int64
	// BlocksScanned counts column blocks visited by full scans
	// (index-driven scans count rows, not blocks).
	BlocksScanned int64
	// BlocksSkipped is always 0: no access path skips blocks. It stays
	// because bench/ reads it, and goes with the benchmark change that
	// drops that read.
	BlocksSkipped int64
	// TuplesExamined counts the tuples that reach the final region test:
	// per region, its scanned candidates or joined tuples; per
	// drive-shared pass, the slab rows that survive the fixed filters
	// and the member regions' common upper bounds — each counted once,
	// then tested against every member.
	TuplesExamined int64
	// CellsSkipped counts queries answered empty by the grid index
	// without scanning (§7.4).
	CellsSkipped int64
	// CellsMerged counts grid cells answered by merging stored per-cell
	// partials (the box-aggregate kernel's interior cells) — zero rows
	// touched per cell.
	CellsMerged int64
	// BoundaryRows counts rows scanned from boundary-cell posting lists
	// by the box-aggregate kernel (also included in RowsScanned).
	BoundaryRows int64
	// CellsGrouped counts cells answered from a search's grouped table.
	CellsGrouped int64
	// CacheHits counts regions answered from the attached region cache
	// — these never reach Queries.
	CacheHits int64
	// CacheMisses counts regions the cache did not hold, which then
	// executed (each also increments Queries). Two batches that miss the
	// same region at once both count a miss and both execute it.
	CacheMisses int64
	// CacheEvictions counts entries displaced from the region cache by
	// stores attributed to this engine.
	CacheEvictions int64
}

// Sub returns the counter deltas s minus prev — the work performed
// between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	for _, c := range counters {
		*c.field(&s) -= *c.field(&prev)
	}
	return s
}

// counter indexes the engine's one counter table.
type counter int

const (
	cQueries counter = iota
	cRowsScanned
	cBlocksScanned
	cBlocksSkipped
	cTuplesExamined
	cCellsSkipped
	cCellsMerged
	cBoundaryRows
	cCellsGrouped
	cCacheHits
	cCacheMisses
	cCacheEvictions
	numCounters
)

// counters lists, per counter, its Stats field and the series an
// attached observer mirrors it into. The counter cells, Snapshot, Sub,
// Attrs, flush and SetObserver's eager registration are loops over it,
// and the hot path bumps a counter with one add into its call's tally.
var counters = [numCounters]struct {
	field      func(*Stats) *int64
	name, help string
}{
	cQueries: {func(s *Stats) *int64 { return &s.Queries },
		"acquire_engine_queries_total", "Evaluation-layer query executions (cell and whole queries)."},
	cRowsScanned: {func(s *Stats) *int64 { return &s.RowsScanned },
		"acquire_engine_rows_scanned_total", "Base-table rows touched by scans."},
	cBlocksScanned: {func(s *Stats) *int64 { return &s.BlocksScanned },
		"acquire_engine_blocks_scanned_total", "Column blocks visited by the vectorized full-scan path."},
	cBlocksSkipped: {func(s *Stats) *int64 { return &s.BlocksSkipped },
		"acquire_engine_blocks_skipped_total", "Always 0: no access path skips blocks."},
	cTuplesExamined: {func(s *Stats) *int64 { return &s.TuplesExamined },
		"acquire_engine_tuples_examined_total", "Join tuples tested against regions."},
	cCellsSkipped: {func(s *Stats) *int64 { return &s.CellsSkipped },
		"acquire_engine_cells_skipped_total", "Queries answered empty by the grid index without scanning (§7.4)."},
	cCellsMerged: {func(s *Stats) *int64 { return &s.CellsMerged },
		"acquire_engine_cells_merged_total", "Grid cells answered by merging stored per-cell partials (box-aggregate kernel interior cells)."},
	cBoundaryRows: {func(s *Stats) *int64 { return &s.BoundaryRows },
		"acquire_engine_boundary_rows_total", "Rows scanned from boundary-cell posting lists by the box-aggregate kernel."},
	cCellsGrouped: {func(s *Stats) *int64 { return &s.CellsGrouped },
		"acquire_engine_cells_grouped_total", "Lattice cells answered from a search's grouped COUNT(*) table."},
	cCacheHits: {func(s *Stats) *int64 { return &s.CacheHits },
		"acquire_cache_hits_total", "Region executions answered from the cross-search partial-aggregate cache."},
	cCacheMisses: {func(s *Stats) *int64 { return &s.CacheMisses },
		"acquire_cache_misses_total", "Region executions that missed the cross-search partial-aggregate cache and executed."},
	cCacheEvictions: {func(s *Stats) *int64 { return &s.CacheEvictions },
		"acquire_cache_evictions_total", "Entries displaced from the cross-search partial-aggregate cache by the byte cap."},
}

// statsCells is a call's tally, a scope's totals or one generation of the
// engine's counters. ResetStats swaps in a fresh generation atomically,
// so a concurrent Snapshot reads counters that all belong to the same
// generation — never a half-reset mixture.
type statsCells [numCounters]atomic.Int64

func (c *statsCells) stats() Stats {
	var s Stats
	for k := range counters {
		*counters[k].field(&s) = c[k].Load()
	}
	return s
}

// Attrs returns s as span attributes keyed by the counters' metric names
// without acquire_, engine_ and _total: queries, rows_scanned, cache_hits, …
func (s Stats) Attrs() []obs.Attr {
	out := make([]obs.Attr, numCounters)
	for k, c := range counters {
		key := strings.TrimSuffix(strings.TrimPrefix(c.name, "acquire_"), "_total")
		out[k] = obs.Int(strings.TrimPrefix(key, "engine_"), *c.field(&s))
	}
	return out
}

// engineObs holds the pre-resolved observability handles of an
// attached observer, so the hot path pays one nil check and direct
// atomic increments — no registry lookups per query.
type engineObs struct {
	o          *obs.Observer
	counters   [numCounters]*obs.Counter // mirrors of statsCells
	selDensity *obs.Histogram
}

// Engine executes relq queries against a catalog.
type Engine struct {
	cat *data.Catalog

	mu    sync.RWMutex
	grids map[string]gridEntry

	// MaxIntermediate bounds intermediate join sizes (tuples).
	MaxIntermediate int
	// Parallelism caps the workers of a batch's pool (and of an aggregate
	// grid's build); 0 means GOMAXPROCS.
	Parallelism int

	// stats points at the current counter generation; see statsCells.
	stats atomic.Pointer[statsCells]
	// obsState mirrors counters into an attached obs.Observer; nil
	// (the default) is the uninstrumented fast path.
	obsState atomic.Pointer[engineObs]
	// regionCache memoizes per-region partials across searches and
	// sessions (see cache.go); nil (the default) executes every region.
	regionCache atomic.Pointer[regioncache.Cache]
	// countSlabs recycles grouped tables' *[]int32 counts (grouped.go).
	countSlabs sync.Pool
	sampled    bool // set by NewSampled: its batches keep the scan stage
}

// New creates an engine over the catalog.
func New(cat *data.Catalog) *Engine {
	e := &Engine{
		cat:             cat,
		grids:           make(map[string]gridEntry),
		MaxIntermediate: DefaultMaxIntermediate,
	}
	e.stats.Store(&statsCells{})
	return e
}

// Catalog exposes the underlying catalog (read-only use).
func (e *Engine) Catalog() *data.Catalog { return e.cat }

// SetObserver attaches an observer: engine counters are mirrored into
// its registry (the series of the counters table, registered eagerly so
// they expose as 0 before the first query), an engine call whose
// context carries no span times its "engine.batch" and "evaluate" spans
// into it, and engine-level events (query completion, grid-index skips)
// stream to its structured log. A nil observer detaches, restoring the
// zero-cost fast path.
func (e *Engine) SetObserver(o *obs.Observer) {
	if o == nil {
		e.obsState.Store(nil)
		return
	}
	eo := &engineObs{o: o, selDensity: o.Histogram("acquire_engine_selection_density",
		"Post-filter selection-vector density per scanned block (kept rows / block rows).",
		[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1})}
	for k, c := range counters {
		eo.counters[k] = o.Counter(c.name, c.help)
	}
	e.obsState.Store(eo)
}

// Observer returns the attached observer (nil when detached) —
// baselines and other engine clients time their phases through it.
func (e *Engine) Observer() *obs.Observer {
	if eo := e.obsState.Load(); eo != nil {
		return eo.o
	}
	return nil
}

// Snapshot returns a copy of the engine's counters, all of one generation:
// a snapshot concurrent with ResetStats is entirely pre- or post-reset.
func (e *Engine) Snapshot() Stats { return e.stats.Load().stats() }

// ResetStats zeroes the counters by swapping in a fresh generation.
func (e *Engine) ResetStats() { e.stats.Store(&statsCells{}) }

// flush adds a call's tally to the engine, the observer's mirrors and the
// call's search scope s (nil: none). It is deferred, so a cancelled or
// failed batch counts the work it did.
func (e *Engine) flush(t *statsCells, s *joinScope) {
	c, eo := e.stats.Load(), e.obsState.Load()
	for k := range t {
		n := t[k].Load()
		c[k].Add(n)
		if eo != nil {
			eo.counters[k].Add(n)
		}
		if s != nil {
			s.stats[k].Add(n)
		}
	}
}

// BuildGridIndex builds and registers a §7.4 grid bitmap index over the
// named numeric columns of a table. Subsequent Aggregate calls use it to
// skip empty cell queries on that table.
func (e *Engine) BuildGridIndex(table string, columns []string, binsPerDim int) error {
	return e.registerGrid(table, gridSpec{columns: slices.Clone(columns), bins: binsPerDim})
}

// BuildGridAggIndex builds and registers an aggregate-augmented grid
// over the named numeric columns: per-cell COUNT, SUM/MIN/MAX of each
// aggCols column, and posting lists. Subsequent Aggregate calls on the
// table answer eligible single-table box queries from the stored
// partials (interior cells) plus posting-list scans (boundary cells).
// The build is idempotent: the registered grid is kept as is when it
// is current (see gridEntry), has the same columns and bins per
// dimension, and holds every one of aggCols.
func (e *Engine) BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	if ent := e.gridEntry(table); ent.g != nil && ent.gen == t.Gen() && ent.agg && ent.bins == binsPerDim &&
		sameColumns(ent.columns, columns) &&
		!slices.ContainsFunc(aggCols, func(c string) bool { return ent.g.AggIndex(c) < 0 }) {
		return nil
	}
	return e.registerGrid(table, gridSpec{columns: slices.Clone(columns), aggCols: slices.Clone(aggCols), bins: binsPerDim, agg: true})
}

// QueryGrid is the aggregate grid BuildQueryGrid picked for a query: its
// table, its columns and its bins per dimension — or, in Skipped, why it
// built none.
type QueryGrid struct {
	Table   string
	Columns []string
	Bins    int
	Skipped string
}

// BuildQueryGrid builds (idempotently) the aggregate grid the box kernel
// reads for q: over the distinct columns of its select dimensions,
// materializing the constraint's column when it lives on the queried
// table, at index.BinsForRows bins per dimension. A join, a non-select
// dimension or a query without dimensions builds nothing: the kernel
// never engages for them.
func (e *Engine) BuildQueryGrid(q *relq.Query) (QueryGrid, error) {
	if len(q.Tables) != 1 {
		return QueryGrid{Skipped: "multi-table query"}, nil
	}
	var cols []string
	for i := range q.Dims {
		d := &q.Dims[i]
		switch d.Kind {
		case relq.SelectLE, relq.SelectGE, relq.SelectEQ:
		default:
			return QueryGrid{Skipped: "non-select dimension"}, nil
		}
		if !slices.ContainsFunc(cols, func(c string) bool { return strings.EqualFold(c, d.Col.Column) }) {
			cols = append(cols, d.Col.Column)
		}
	}
	if len(cols) == 0 {
		return QueryGrid{Skipped: "no refinable dimensions"}, nil
	}
	var aggCols []string
	if a := q.Constraint.Attr; a.Column != "" && strings.EqualFold(a.Table, q.Tables[0]) {
		aggCols = []string{a.Column}
	}
	t, err := e.cat.Table(q.Tables[0])
	if err != nil {
		return QueryGrid{}, err
	}
	qg := QueryGrid{Table: q.Tables[0], Columns: cols, Bins: index.BinsForRows(len(cols), t.NumRows())}
	return qg, e.BuildGridAggIndex(qg.Table, cols, aggCols, qg.Bins)
}

// gridSpec is what a grid index was built from: its columns and bins
// per dimension, and for an aggregate grid its aggregate columns.
type gridSpec struct {
	columns, aggCols []string
	bins             int
	agg              bool
}

// gridEntry is a registered grid index, the table generation it was
// built over, its spec, and per grid column whether the column holds a
// NaN. The grid leaves such rows out of every cell, so it speaks for a
// query only when the query constrains each of those columns
// (bindGrids): a select dimension admits no NaN.
//
// An entry is current only for the generation it was built over:
// bindGrids rebuilds a stale entry from its spec, so appends, catalog
// Replaces and Touch keep the table's grid and never serve the old one.
type gridEntry struct {
	g   *index.Grid
	nan []bool
	gen uint64
	gridSpec
}

// buildGrid builds the grid spec describes over t.
func (e *Engine) buildGrid(t *data.Table, spec gridSpec) (gridEntry, error) {
	var g *index.Grid
	var err error
	if spec.agg {
		g, err = index.BuildAgg(t, spec.columns, spec.aggCols, spec.bins, e.workers())
	} else {
		g, err = index.Build(t, spec.columns, spec.bins)
	}
	if err != nil {
		return gridEntry{}, err
	}
	ent := gridEntry{g: g, nan: make([]bool, len(g.Columns())), gen: t.Gen(), gridSpec: spec}
	for d, col := range g.Columns() {
		vec, err := t.NumericColumn(t.Schema().Ordinal(col))
		if err != nil {
			return gridEntry{}, err
		}
		ent.nan[d] = slices.ContainsFunc(vec, func(v float64) bool { return v != v })
	}
	return ent, nil
}

// registerGrid builds the grid spec describes over the named table and
// registers it as the table's grid index.
func (e *Engine) registerGrid(table string, spec gridSpec) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	ent, err := e.buildGrid(t, spec)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.grids[strings.ToLower(t.Name())] = ent
	e.mu.Unlock()
	return nil
}

// currentGrid returns t's grid entry, first rebuilding a stale one from
// its spec. A rebuild that fails — a Replace dropped a grid column, say
// — unregisters the grid, and the table runs without one.
func (e *Engine) currentGrid(t *data.Table) gridEntry {
	key := strings.ToLower(t.Name())
	e.mu.RLock()
	stale, ok := e.grids[key]
	e.mu.RUnlock()
	if !ok || stale.gen == t.Gen() {
		return stale
	}
	ent, err := e.buildGrid(t, stale.gridSpec)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.grids[key]; !ok || cur.g != stale.g {
		return cur // dropped or re-registered meanwhile
	}
	if err != nil {
		delete(e.grids, key)
	} else {
		e.grids[key] = ent
	}
	return ent
}

// sameColumns reports case-insensitive equality of two ordered column
// lists.
func sameColumns(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// DropGridIndex removes a table's grid index.
func (e *Engine) DropGridIndex(table string) {
	e.mu.Lock()
	delete(e.grids, strings.ToLower(table))
	e.mu.Unlock()
}

func (e *Engine) grid(table string) *index.Grid { return e.gridEntry(table).g }

func (e *Engine) gridEntry(table string) gridEntry {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.grids[strings.ToLower(table)]
}

// Aggregate executes the query restricted to the violation region and
// returns the aggregate partial over the qualifying result tuples.
//
// The region has one interval per query dimension (in q.Dims order): a
// result tuple qualifies iff its violation vector lies inside the
// region. PrefixRegion yields whole refined queries; CellRegion yields
// the cell sub-queries of §5.1.1. It is a batch of one region, so it
// consults the region cache and a long drive spreads over the workers
// as in any batch (sharedrive.go).
func (e *Engine) Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	out, err := e.AggregateBatch(context.Background(), q, []relq.Region{region})
	if err != nil {
		return agg.Zero(), err
	}
	return out[0], nil
}

// queryDone emits the debug-level engine.query event of one timed
// execution — a region, or a unit of regions scanned together — to the
// observer its evaluate span timed into.
func queryDone(o *obs.Observer, p *batchPlan, d time.Duration, regions int, err error) {
	if o.LogEnabled(slog.LevelDebug) {
		o.Debug("engine.query",
			"tables", len(p.b.tables), "dims", len(p.b.q.Dims), "regions", regions,
			"duration_ms", float64(d.Microseconds())/1000,
			"err", err != nil)
	}
}

// aggregateRegion executes region i of a bound batch: its front — the
// arity check, the execution count, the empty region, the grid index's
// emptiness proof, the box-aggregate kernel — and then its scan stage.
// A single-table region's scan stage is not run here: deferred=true
// hands the region to the units (sharedrive.go).
func (e *Engine) aggregateRegion(p *batchPlan, sc *regionScratch, i int) (_ agg.Partial, deferred bool, _ error) {
	b, region := p.b, p.regions[i]
	if len(region) != len(b.q.Dims) {
		return agg.Zero(), false, fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(b.q.Dims))
	}
	p.stats[cQueries].Add(1)
	if region.Empty() {
		return agg.Zero(), false, nil
	}

	// Grid-index emptiness check (§7.4): conservative per-table test
	// over the select dimensions.
	for ti := range p.grids {
		if cellProvablyEmpty(b, &p.grids[ti], sc, region, ti) {
			p.stats[cCellsSkipped].Add(1)
			if o := e.Observer(); o.LogEnabled(slog.LevelDebug) {
				o.Debug("engine.grid_skip", "table", b.q.Tables[ti])
			}
			return agg.Zero(), false, nil
		}
	}

	// Box-aggregate kernel: eligible single-table queries are answered
	// from the aggregate grid's stored partials and posting lists.
	if part, ok, err := e.boxAggregate(p, region); ok || err != nil {
		return part, false, err
	}

	if len(b.tables) == 1 {
		return agg.Zero(), true, nil
	}
	part, err := e.scanAggregate(p, sc, i)
	return part, false, err
}

// scanAggregate is the per-region scan stage: region i's candidate
// scans and join (joinplan.go), then the final filter and fold.
func (e *Engine) scanAggregate(p *batchPlan, sc *regionScratch, i int) (agg.Partial, error) {
	tuples, err := p.tuples(sc, i)
	if err != nil || len(tuples) == 0 {
		return agg.Zero(), err
	}

	return finalizeVec(p.b, p.regions[i], tuples, len(p.order), p.pos, &p.stats), nil
}

// gridBind is one table's registered grid index as the bound query sees
// it: the grid, and for every select dimension (aligned with
// binding.selDims) the grid dimension its column occupies, or -1 when
// the dimension is on another table or its column is not indexed.
// Resolved once per batch, so regions do no name lookups.
type gridBind struct {
	g    *index.Grid
	dims int // grid dimensionality
	pos  []int
}

// bindGrids resolves the grid registered on each of b's tables; nil
// when none of them has one that speaks for the query. A grid does not
// when the query leaves one of its NaN-holding columns unconstrained:
// rows the grid left out of every cell would qualify.
func (e *Engine) bindGrids(b *binding) []gridBind {
	var out []gridBind
	for ti, t := range b.tables {
		ent := e.currentGrid(t)
		if ent.g == nil {
			continue
		}
		cols := ent.g.Columns()
		pos := make([]int, len(b.selDims))
		for i, sd := range b.selDims {
			pos[i] = -1
			if sd.tbl != ti {
				continue
			}
			for j, c := range cols {
				if strings.EqualFold(c, sd.dim.Col.Column) {
					pos[i] = j
				}
			}
		}
		usable := true
		for d, nan := range ent.nan {
			usable = usable && (!nan || slices.Contains(pos, d))
		}
		if !usable {
			continue
		}
		if out == nil {
			out = make([]gridBind, len(b.tables))
		}
		out[ti] = gridBind{g: ent.g, dims: len(cols), pos: pos}
	}
	return out
}

// gridAlt is one select dimension's contribution to the emptiness
// test: its grid dimension and the one or two value intervals the
// region admits on it.
type gridAlt struct {
	pos    int
	ivs    [2]index.Interval
	n, cur int
}

// cellProvablyEmpty consults table ti's grid index to prove the region
// empty on it without scanning. It is conservative: it only answers
// true when the index covers every select dimension on the table and
// no occupied grid cell intersects any of the region's value boxes.
func cellProvablyEmpty(b *binding, gb *gridBind, sc *regionScratch, region relq.Region, ti int) bool {
	if gb.g == nil {
		return false
	}
	// Each local select dimension maps its violation interval to one or
	// two value intervals on its column; the cross product of the
	// per-dimension alternatives forms the boxes to test.
	alts := sc.alts[:0]
	for i := range b.selDims {
		sd := &b.selDims[i]
		if sd.tbl != ti {
			continue
		}
		if gb.pos[i] < 0 {
			return false // index does not cover this dimension
		}
		ivs, n := valueIntervals(sd.dim, region[sd.di])
		if n == 0 {
			return true // dimension interval admits no values at all
		}
		alts = append(alts, gridAlt{pos: gb.pos[i], ivs: ivs, n: n})
	}
	sc.alts = alts
	if len(alts) == 0 {
		return false // nothing to prove with
	}

	box := sc.box[:0]
	for d := 0; d < gb.dims; d++ {
		box = append(box, index.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)})
	}
	sc.box = box
	// Odometer over the alternatives, alts[k].cur the k-th digit.
	for {
		for k := range alts {
			box[alts[k].pos] = alts[k].ivs[alts[k].cur]
		}
		if occ, err := gb.g.AnyInBox(box); err != nil || occ {
			return false // on error, assume occupied
		}
		k := len(alts) - 1
		for ; k >= 0; k-- {
			if alts[k].cur++; alts[k].cur < alts[k].n {
				break
			}
			alts[k].cur = 0
		}
		if k < 0 {
			return true
		}
	}
}

// valueIntervals maps a violation interval to the n <= 2 value
// intervals it admits on the dimension's column (closed, conservative).
func valueIntervals(d *relq.Dimension, iv relq.ViolInterval) (ivs [2]index.Interval, n int) {
	if iv.Hi < 0 {
		return ivs, 0
	}
	switch d.Kind {
	case relq.SelectLE:
		hi := d.BoundAt(iv.Hi)
		lo := math.Inf(-1)
		if iv.Lo >= 0 {
			lo = d.BoundAt(iv.Lo)
		}
		ivs[0] = index.Interval{Lo: lo, Hi: hi}
		return ivs, 1
	case relq.SelectGE:
		lo := d.BoundAt(iv.Hi)
		hi := math.Inf(1)
		if iv.Lo >= 0 {
			hi = d.BoundAt(iv.Lo)
		}
		ivs[0] = index.Interval{Lo: lo, Hi: hi}
		return ivs, 1
	case relq.SelectEQ:
		bandHi := d.BoundAt(iv.Hi)
		if iv.Lo <= 0 {
			ivs[0] = index.Interval{Lo: d.Bound - bandHi, Hi: d.Bound + bandHi}
			return ivs, 1
		}
		bandLo := d.BoundAt(iv.Lo)
		ivs[0] = index.Interval{Lo: d.Bound - bandHi, Hi: d.Bound - bandLo}
		ivs[1] = index.Interval{Lo: d.Bound + bandLo, Hi: d.Bound + bandHi}
		return ivs, 2
	default:
		ivs[0] = index.Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
		return ivs, 1
	}
}
