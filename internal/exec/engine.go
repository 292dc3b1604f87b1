// Package exec is the evaluation layer of the reproduction: an
// in-memory columnar executor for conjunctive select-project-join
// queries with aggregate output. The original system delegated query
// execution to Postgres and noted the layer is modular (§3); every
// technique in this repository — ACQUIRE and the baselines — issues its
// (cell or whole) queries through this same engine, so execution-time
// comparisons count identical work units.
package exec

import (
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

// Stats counts the work the engine has performed. All counters are
// cumulative and atomically updated; Snapshot returns a consistent copy.
type Stats struct {
	// Queries is the number of query executions (cell queries and whole
	// queries alike — each is one round trip to the evaluation layer).
	Queries int64
	// RowsScanned counts base-table rows touched by scans — rows
	// physically read, not rows per region: when the regions of a batch
	// drive from the same sorted-index slab, the slab is gathered once
	// for all of them and counted once (sharedrive.go). Rows in
	// zone-map-skipped blocks are never touched and are not counted
	// (see BlocksSkipped).
	RowsScanned int64
	// BlocksScanned counts column blocks visited by full scans
	// (index-driven scans count rows, not blocks).
	BlocksScanned int64
	// BlocksSkipped counts column blocks proven candidate-free by zone
	// maps and skipped without touching any row.
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
	// CacheHits counts region executions answered from the attached
	// region cache (including joins onto another caller's in-flight
	// execution) — these never reach Queries.
	CacheHits int64
	// CacheMisses counts region executions that went through the cache
	// and had to execute (each also increments Queries).
	CacheMisses int64
	// CacheEvictions counts entries displaced from the region cache by
	// fills attributed to this engine.
	CacheEvictions int64
	// DegradedScans counts full scans over clustered tables whose
	// unsorted append tail has outgrown the block size — the layout
	// regime where zone maps still prune the sorted prefix but the tail
	// blocks span the whole domain and are never skippable.
	DegradedScans int64
}

// Sub returns the counter deltas s minus prev — the work performed
// between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Queries:        s.Queries - prev.Queries,
		RowsScanned:    s.RowsScanned - prev.RowsScanned,
		BlocksScanned:  s.BlocksScanned - prev.BlocksScanned,
		BlocksSkipped:  s.BlocksSkipped - prev.BlocksSkipped,
		TuplesExamined: s.TuplesExamined - prev.TuplesExamined,
		CellsSkipped:   s.CellsSkipped - prev.CellsSkipped,
		CellsMerged:    s.CellsMerged - prev.CellsMerged,
		BoundaryRows:   s.BoundaryRows - prev.BoundaryRows,
		CellsGrouped:   s.CellsGrouped - prev.CellsGrouped,
		CacheHits:      s.CacheHits - prev.CacheHits,
		CacheMisses:    s.CacheMisses - prev.CacheMisses,
		CacheEvictions: s.CacheEvictions - prev.CacheEvictions,
		DegradedScans:  s.DegradedScans - prev.DegradedScans,
	}
}

// statsCells holds one generation of the engine's counters. ResetStats
// swaps in a fresh generation atomically, so a concurrent Snapshot
// reads counters that all belong to the same generation — never a
// half-reset mixture.
type statsCells struct {
	queries        atomic.Int64
	rowsScanned    atomic.Int64
	blocksScanned  atomic.Int64
	blocksSkipped  atomic.Int64
	tuplesExamined atomic.Int64
	cellsSkipped   atomic.Int64
	cellsMerged    atomic.Int64
	boundaryRows   atomic.Int64
	cellsGrouped   atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheEvictions atomic.Int64
	degradedScans  atomic.Int64
}

// engineObs holds the pre-resolved observability handles of an
// attached observer, so the hot path pays one nil check and direct
// atomic increments — no registry lookups per query.
type engineObs struct {
	o             *obs.Observer
	queries       *obs.Counter
	rows          *obs.Counter
	blocksScanned *obs.Counter
	blocksSkipped *obs.Counter
	tuples        *obs.Counter
	cells         *obs.Counter
	cellsMerged   *obs.Counter
	boundary      *obs.Counter
	cellsGrouped  *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	cacheEvict    *obs.Counter
	degraded      *obs.Counter
	queryDur      *obs.Histogram
	selDensity    *obs.Histogram

	// axisCtrs are the per-column zone-skip counters, created lazily on
	// first skip attribution for a column (the label set is data-driven:
	// one series per pruning column actually seen).
	axisMu   sync.Mutex
	axisCtrs map[string]*obs.Counter
}

// Engine executes relq queries against a catalog.
type Engine struct {
	cat *data.Catalog

	mu       sync.RWMutex
	colCache map[colKey]colEntry
	grids    map[string]gridEntry
	sortIdx  map[colKey]sortEntry
	zones    map[colKey]zoneEntry

	// MaxIntermediate bounds intermediate join sizes (tuples).
	MaxIntermediate int
	// Parallelism caps scan/aggregation workers; 0 means GOMAXPROCS.
	Parallelism int

	// stats points at the current counter generation; see statsCells.
	stats atomic.Pointer[statsCells]
	// obsState mirrors counters into an attached obs.Observer; nil
	// (the default) is the uninstrumented fast path.
	obsState atomic.Pointer[engineObs]
	// regionCache memoizes per-region partials across searches and
	// sessions (see cache.go); nil (the default) executes every region.
	regionCache atomic.Pointer[regioncache.Cache]
	// epoch counts InvalidateTable calls; it retires join memos (joinplan.go).
	epoch atomic.Uint64
	// countSlabs recycles grouped tables' *[]int32 counts (grouped.go).
	countSlabs sync.Pool
	sampled    bool // set by NewSampled: its batches keep the scan stage
}

type colKey struct {
	table string
	ord   int
}

// colEntry / sortEntry / zoneEntry are derived-state cache slots keyed
// by *table identity*: a hit requires the exact *data.Table the entry
// was built from (pointer equality) at the same row count. Row-count
// generations alone cannot see a catalog Replace that keeps the row
// count — a re-sorted copy of the table, say — while pointer
// identity retires such entries for free (the catalog hands out a new
// *Table, so lookups against it miss and rebuild). In-place rewrites of
// an existing table still require InvalidateTable, as before.
type colEntry struct {
	vec []float64
	src *data.Table
}

type sortEntry struct {
	idx *sortedIdx
	src *data.Table
	n   int // rows at build time
}

type zoneEntry struct {
	zm  *zoneMap
	src *data.Table
	n   int // column length at build time
}

// New creates an engine over the catalog.
func New(cat *data.Catalog) *Engine {
	e := &Engine{
		cat:             cat,
		colCache:        make(map[colKey]colEntry),
		grids:           make(map[string]gridEntry),
		sortIdx:         make(map[colKey]sortEntry),
		zones:           make(map[colKey]zoneEntry),
		MaxIntermediate: DefaultMaxIntermediate,
	}
	e.stats.Store(&statsCells{})
	return e
}

// Catalog exposes the underlying catalog (read-only use).
func (e *Engine) Catalog() *data.Catalog { return e.cat }

// SetObserver attaches an observer: engine counters are mirrored into
// its registry (acquire_engine_* series, registered eagerly so they
// expose as 0 before the first query), per-query durations land in
// the "evaluate" phase histogram, and engine-level events (query
// completion, grid-index skips) stream to its structured log. A nil
// observer detaches, restoring the zero-cost fast path.
func (e *Engine) SetObserver(o *obs.Observer) {
	if o == nil {
		e.obsState.Store(nil)
		return
	}
	e.obsState.Store(&engineObs{
		o:             o,
		queries:       o.Counter("acquire_engine_queries_total", "Evaluation-layer query executions (cell and whole queries)."),
		rows:          o.Counter("acquire_engine_rows_scanned_total", "Base-table rows touched by scans."),
		blocksScanned: o.Counter("acquire_engine_blocks_scanned_total", "Column blocks visited by the vectorized full-scan path."),
		blocksSkipped: o.Counter("acquire_engine_blocks_skipped_total", "Column blocks proven candidate-free by zone maps and skipped without touching rows."),
		tuples:        o.Counter("acquire_engine_tuples_examined_total", "Join tuples tested against regions."),
		cells:         o.Counter("acquire_engine_cells_skipped_total", "Queries answered empty by the grid index without scanning (§7.4)."),
		cellsMerged:   o.Counter("acquire_engine_cells_merged_total", "Grid cells answered by merging stored per-cell partials (box-aggregate kernel interior cells)."),
		boundary:      o.Counter("acquire_engine_boundary_rows_total", "Rows scanned from boundary-cell posting lists by the box-aggregate kernel."),
		cellsGrouped:  o.Counter("acquire_engine_cells_grouped_total", "Lattice cells answered from a search's grouped COUNT(*) table."),
		cacheHits:     o.Counter("acquire_cache_hits_total", "Region executions answered from the cross-search partial-aggregate cache."),
		cacheMisses:   o.Counter("acquire_cache_misses_total", "Region executions that missed the cross-search partial-aggregate cache and executed."),
		cacheEvict:    o.Counter("acquire_cache_evictions_total", "Entries displaced from the cross-search partial-aggregate cache by the byte cap."),
		degraded:      o.Counter("acquire_engine_cluster_degraded_scans_total", "Full scans over clustered tables whose unsorted append tail exceeds one block (zone maps blind on the tail)."),
		queryDur:      o.Histogram(`acquire_phase_duration_seconds{phase="evaluate"}`, "Duration of search/engine phases by phase name.", nil),
		selDensity: o.Histogram("acquire_engine_selection_density",
			"Post-filter selection-vector density per scanned block (kept rows / block rows).",
			[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1}),
	})
}

// Observer returns the attached observer (nil when detached) —
// baselines and other engine clients time their phases through it.
func (e *Engine) Observer() *obs.Observer {
	if eo := e.obsState.Load(); eo != nil {
		return eo.o
	}
	return nil
}

// Snapshot returns a copy of the statistics counters. The copy is
// generation-coherent with ResetStats: all four counters come from
// the same generation, so a snapshot concurrent with a reset is
// either entirely pre-reset or entirely post-reset.
func (e *Engine) Snapshot() Stats {
	c := e.stats.Load()
	return Stats{
		Queries:        c.queries.Load(),
		RowsScanned:    c.rowsScanned.Load(),
		BlocksScanned:  c.blocksScanned.Load(),
		BlocksSkipped:  c.blocksSkipped.Load(),
		TuplesExamined: c.tuplesExamined.Load(),
		CellsSkipped:   c.cellsSkipped.Load(),
		CellsMerged:    c.cellsMerged.Load(),
		BoundaryRows:   c.boundaryRows.Load(),
		CellsGrouped:   c.cellsGrouped.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		CacheEvictions: c.cacheEvictions.Load(),
		DegradedScans:  c.degradedScans.Load(),
	}
}

// ResetStats zeroes the counters by atomically swapping in a fresh
// counter generation (see Snapshot for the coherence contract).
func (e *Engine) ResetStats() {
	e.stats.Store(&statsCells{})
}

// countQueries / countRows / countTuples bump a counter in the current
// stats generation and mirror it into the attached observer, if any.
func (e *Engine) countQueries(n int64) {
	e.stats.Load().queries.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.queries.Add(n)
	}
}

func (e *Engine) countRows(n int64) {
	e.stats.Load().rowsScanned.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.rows.Add(n)
	}
}

func (e *Engine) countBlocks(scanned, skipped int64) {
	c := e.stats.Load()
	c.blocksScanned.Add(scanned)
	c.blocksSkipped.Add(skipped)
	if eo := e.obsState.Load(); eo != nil {
		eo.blocksScanned.Add(scanned)
		eo.blocksSkipped.Add(skipped)
	}
}

func (e *Engine) countTuples(n int64) {
	e.stats.Load().tuplesExamined.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.tuples.Add(n)
	}
}

func (e *Engine) countCellsMerged(n int64) {
	e.stats.Load().cellsMerged.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cellsMerged.Add(n)
	}
}

func (e *Engine) countBoundaryRows(n int64) {
	e.stats.Load().boundaryRows.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.boundary.Add(n)
	}
}

func (e *Engine) countCacheHits(n int64) {
	e.stats.Load().cacheHits.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheHits.Add(n)
	}
}

func (e *Engine) countCacheMisses(n int64) {
	e.stats.Load().cacheMisses.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheMisses.Add(n)
	}
}

func (e *Engine) countCacheEvictions(n int64) {
	e.stats.Load().cacheEvictions.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.cacheEvict.Add(n)
	}
}

func (e *Engine) countDegradedScans(n int64) {
	e.stats.Load().degradedScans.Add(n)
	if eo := e.obsState.Load(); eo != nil {
		eo.degraded.Add(n)
	}
}

// countZoneAxisSkips attributes one scan's zone-map block skips to the
// observer's per-column series for the columns whose predicates fired
// (axisSkips aligned with zps; see skipAxis for the attribution rule).
// Only called when at least one block was skipped, so unskipping scans
// pay nothing.
func (e *Engine) countZoneAxisSkips(t *data.Table, zps []zonePred, axisSkips []int64) {
	eo := e.obsState.Load()
	if eo == nil {
		return
	}
	cols := t.Schema().Columns
	for i, n := range axisSkips {
		if n > 0 {
			eo.zoneSkipCounter(strings.ToLower(cols[zps[i].ord].Name)).Add(n)
		}
	}
}

// zoneSkipCounter returns (creating on first use) the per-column
// zone-skip counter series. Registration is idempotent in the registry,
// so concurrent first touches of the same column are safe.
func (eo *engineObs) zoneSkipCounter(column string) *obs.Counter {
	eo.axisMu.Lock()
	defer eo.axisMu.Unlock()
	if eo.axisCtrs == nil {
		eo.axisCtrs = make(map[string]*obs.Counter)
	}
	if c, ok := eo.axisCtrs[column]; ok {
		return c
	}
	c := eo.o.Counter(
		fmt.Sprintf("acquire_engine_zone_skips_total{column=%q}", column),
		"Zone-map block skips attributed to the pruning column (first firing predicate).")
	eo.axisCtrs[column] = c
	return c
}

// BuildGridIndex builds and registers a §7.4 grid bitmap index over the
// named numeric columns of a table. Subsequent Aggregate calls use it to
// skip empty cell queries on that table.
func (e *Engine) BuildGridIndex(table string, columns []string, binsPerDim int) error {
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	g, err := index.Build(t, columns, binsPerDim)
	if err != nil {
		return err
	}
	return e.registerGrid(t, g)
}

// BuildGridAggIndex builds and registers an aggregate-augmented grid
// over the named numeric columns: per-cell COUNT, SUM/MIN/MAX of each
// aggCols column, and posting lists. Subsequent Aggregate calls on the
// table answer eligible single-table box queries from the stored
// partials (interior cells) plus posting-list scans (boundary cells).
// The build is idempotent: when the registered grid already covers the
// same columns and aggregate columns it is kept as is.
func (e *Engine) BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error {
	if g := e.grid(table); g != nil && g.HasAggs() && sameColumns(g.Columns(), columns) {
		all := true
		for _, c := range aggCols {
			if g.AggIndex(c) < 0 {
				all = false
				break
			}
		}
		if all {
			return nil
		}
	}
	t, err := e.cat.Table(table)
	if err != nil {
		return err
	}
	g, err := index.BuildAgg(t, columns, aggCols, binsPerDim, e.workers())
	if err != nil {
		return err
	}
	return e.registerGrid(t, g)
}

// gridEntry is a registered grid index and, per grid column, whether
// the column holds a NaN. The grid leaves such rows out of every cell,
// so it speaks for a query only when the query constrains each of those
// columns (bindGrids): a select dimension admits no NaN.
type gridEntry struct {
	g   *index.Grid
	nan []bool
}

// registerGrid records g as t's grid index.
func (e *Engine) registerGrid(t *data.Table, g *index.Grid) error {
	ent := gridEntry{g: g, nan: make([]bool, len(g.Columns()))}
	for d, col := range g.Columns() {
		vec, err := t.NumericColumn(t.Schema().Ordinal(col))
		if err != nil {
			return err
		}
		ent.nan[d] = slices.ContainsFunc(vec, func(v float64) bool { return v != v })
	}
	e.mu.Lock()
	e.grids[strings.ToLower(t.Name())] = ent
	e.mu.Unlock()
	return nil
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
// the cell sub-queries of §5.1.1.
func (e *Engine) Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	b, err := e.bind(q)
	if err != nil {
		return agg.Zero(), err
	}
	var out [1]agg.Partial
	err = e.newBatchPlan(b, []relq.Region{region}, nil).whole(new(regionScratch), 0, out[:])
	return out[0], err
}

// aggregateBound executes region i of a bound batch as far as
// aggregateRegion takes it. With an observer attached it also times the
// execution into the "evaluate" phase histogram and emits a debug-level
// engine.query event; without one, the only instrumentation cost is a
// nil pointer load. A deferred region reports nothing here: the unit
// that scans it does (sharedrive.go).
func (e *Engine) aggregateBound(p *batchPlan, sc *regionScratch, i int) (agg.Partial, bool, error) {
	eo := e.obsState.Load()
	if eo == nil {
		return e.aggregateRegion(p, sc, i, nil)
	}
	sp := eo.o.StartPhase("evaluate")
	part, deferred, err := e.aggregateRegion(p, sc, i, eo)
	if !deferred {
		eo.queryDone(p, sp.End(), 1, err)
	}
	return part, deferred, err
}

// queryDone emits the debug-level engine.query event of one timed
// execution: a region, or a unit of regions scanned together.
func (eo *engineObs) queryDone(p *batchPlan, d time.Duration, regions int, err error) {
	if eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.query",
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
func (e *Engine) aggregateRegion(p *batchPlan, sc *regionScratch, i int, eo *engineObs) (_ agg.Partial, deferred bool, _ error) {
	b, region := p.b, p.regions[i]
	if len(region) != len(b.q.Dims) {
		return agg.Zero(), false, fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(b.q.Dims))
	}
	e.stats.Load().queries.Add(1)
	if eo != nil {
		eo.queries.Add(1)
	}
	if region.Empty() {
		return agg.Zero(), false, nil
	}

	// Grid-index emptiness check (§7.4): conservative per-table test
	// over the select dimensions.
	for ti := range p.grids {
		if cellProvablyEmpty(b, &p.grids[ti], sc, region, ti) {
			e.stats.Load().cellsSkipped.Add(1)
			if eo != nil {
				eo.cells.Add(1)
				eo.o.Debug("engine.grid_skip", "table", b.q.Tables[ti])
			}
			return agg.Zero(), false, nil
		}
	}

	// Box-aggregate kernel: eligible single-table queries are answered
	// from the aggregate grid's stored partials and posting lists.
	if part, ok, err := e.boxAggregate(p, region, eo); ok || err != nil {
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

	return e.finalizeVec(p.b, p.regions[i], tuples, len(p.order), p.pos), nil
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
	for ti := range b.tables {
		ent := e.gridEntry(b.q.Tables[ti])
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
