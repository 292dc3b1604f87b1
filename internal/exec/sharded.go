package exec

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// ShardedEvaluator executes queries by scatter-gather over N
// range-partitioned in-process shards, the architectural form of the
// §2.6 merge rule: each shard owns a full Engine over its shard
// catalog (its own column/sort caches, grid indexes and region cache,
// so hot-path state is shard-local and uncontended), AggregateBatch
// scatters every region to all shards in parallel, and the per-shard
// partials fold back in fixed shard order — COUNT/SUM add, MIN/MAX
// compare, AVG recomposes from SUM+COUNT.
//
// The partitioner cuts one fact table into contiguous row ranges and
// broadcasts the rest (see data.Partitioner), so each result tuple of
// a fact-referencing query lives in exactly one shard and the merged
// partial equals the monolithic one: COUNT/MIN/MAX bit-identically,
// SUM up to float re-association across shard boundaries (within
// agg.ApproxEqual tolerance). Queries that do not reference the fact
// table are routed whole to shard 0 — scattering them would count the
// broadcast tables once per shard. The fixed merge order makes results
// deterministic for every worker count; at one shard the fold is the
// identity, so a single-shard evaluator is bit-identical to a plain
// Engine.
//
// Shards are in-process behind the Evaluator interface; a later
// multi-process/RPC backend replaces the engine slice with stubs
// speaking the same contract — a transport swap, not a rewrite.
type ShardedEvaluator struct {
	cat     *data.Catalog
	part    *data.Partition
	engines []*Engine

	// Parallelism caps the scatter worker pool; 0 means GOMAXPROCS.
	Parallelism int

	// Scatter-layer counters (shard-engine work lands in the engines'
	// own Stats; Snapshot merges those).
	scatters atomic.Int64
	routed   atomic.Int64
	partials atomic.Int64

	obsShard atomic.Pointer[shardedObs]
}

// shardedObs holds the pre-resolved scatter-layer metric handles.
type shardedObs struct {
	o         *obs.Observer
	partials  *obs.Counter
	scatters  *obs.Counter
	routed    *obs.Counter
	regions   []*obs.Counter // per shard
	skew      *obs.Gauge     // slowest/fastest shard busy time per scatter round
	straggler *obs.Histogram // slowest shard's busy time per scatter round
}

// clock returns the observer's clock (Real when detached) — the
// scatter timing path works with or without an attached observer.
func (so *shardedObs) clock() obs.Clock {
	if so == nil {
		return obs.Real
	}
	return so.o.Clock()
}

// NewSharded partitions the catalog into n shards (fact table = the
// largest; see data.Partitioner) and builds one engine per shard.
func NewSharded(cat *data.Catalog, n int) (*ShardedEvaluator, error) {
	return NewShardedOn(cat, "", n)
}

// NewShardedOn is NewSharded with an explicitly designated fact table.
func NewShardedOn(cat *data.Catalog, factTable string, n int) (*ShardedEvaluator, error) {
	part, err := data.Partitioner{Shards: n, Table: factTable}.Partition(cat)
	if err != nil {
		return nil, err
	}
	sv := &ShardedEvaluator{cat: cat, part: part}
	for i := 0; i < part.NumShards(); i++ {
		sv.engines = append(sv.engines, New(part.Shard(i).Catalog))
	}
	return sv, nil
}

// Catalog returns the full parent catalog: refinement models anchor
// predicate domains on whole-table statistics, so searches behave
// identically with and without sharding.
func (sv *ShardedEvaluator) Catalog() *data.Catalog { return sv.cat }

// NumShards returns the shard count.
func (sv *ShardedEvaluator) NumShards() int { return len(sv.engines) }

// FactTable returns the range-partitioned table's name.
func (sv *ShardedEvaluator) FactTable() string { return sv.part.Table() }

// scatterable reports whether the query references the fact table —
// the condition under which per-shard execution partitions the result
// tuples (and scattering is therefore correct).
func (sv *ShardedEvaluator) scatterable(q *relq.Query) bool {
	for _, t := range q.Tables {
		if strings.EqualFold(t, sv.part.Table()) {
			return true
		}
	}
	return false
}

func (sv *ShardedEvaluator) workers() int {
	w := sv.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetParallelism bounds both the scatter pool and every shard engine's
// internal worker pool. 0 restores GOMAXPROCS.
func (sv *ShardedEvaluator) SetParallelism(workers int) {
	sv.Parallelism = workers
	for _, e := range sv.engines {
		e.Parallelism = workers
	}
}

// Aggregate executes one region by serial scatter-gather (the oracle
// path: shard engines bypass their region caches exactly as
// Engine.Aggregate does).
func (sv *ShardedEvaluator) Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	if !sv.scatterable(q) {
		sv.countRouted()
		return sv.engines[0].Aggregate(q, region)
	}
	sv.countScatter(1)
	var out agg.Partial
	for s, e := range sv.engines {
		p, err := e.Aggregate(q, region)
		if err != nil {
			return agg.Zero(), err
		}
		if s == 0 {
			out = p // identity at one shard: bit-identical to Engine
		} else {
			out = agg.Merge(out, p)
		}
	}
	return out, nil
}

// AggregateBatch scatters each region to all shards on one worker
// pool (the flattened shard × region task grid, so wide batches and
// many shards both saturate the pool) and gathers the per-shard
// partials per region in fixed shard order.
func (sv *ShardedEvaluator) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !sv.scatterable(q) {
		sv.countRouted()
		return sv.engines[0].AggregateBatch(ctx, q, regions)
	}
	ns, nr := len(sv.engines), len(regions)
	if nr == 0 {
		return nil, nil
	}
	// One batch plan per shard engine: each binds against its own shard
	// catalog, keeps its own join memo in the context's scope (joinplan.go)
	// and cuts its own scan units (sharedrive.go).
	plans := make([]*batchPlan, ns)
	scope, _ := ctx.Value(scopeKey{}).(*joinScope)
	for s, e := range sv.engines {
		b, err := e.bind(q)
		if err != nil {
			return nil, err
		}
		plans[s] = e.newBatchPlan(b, regions, scope)
		plans[s].attachCache(q)
	}
	defer func() {
		for _, p := range plans {
			p.abandon()
		}
	}()
	sv.countScatter(nr)
	so := sv.obsShard.Load()
	if so != nil && so.o.LogEnabled(slog.LevelDebug) {
		so.o.Debug("engine.scatter", "shards", ns, "regions", nr)
	}

	// Shard-skew visibility: with an observer or an active trace span,
	// every per-shard task is timed so the round's busy-time spread is
	// measurable. Tracing additionally opens one "scatter" span with a
	// "scatter.shard" child per shard (interval = dispatch to that
	// shard's last task completion; attrs = partial counts, busy time
	// and the shard engine's stat deltas). The skew ratio
	// (slowest/fastest shard) feeds acquire_shard_skew_ratio and the
	// straggler histogram. Untraced, unobserved runs skip all of it.
	parentSp := obs.SpanFromContext(ctx)
	timed := parentSp.Active() || so != nil
	var (
		ssp        obs.SpanRef
		shardSpans []obs.SpanRef
		before     []Stats
		busyNS     []atomic.Int64
		lastEnd    []atomic.Int64 // unix nanos of each shard's latest task end
		clk        obs.Clock
	)
	if timed {
		clk = so.clock()
		if parentSp.Active() {
			clk = parentSp.Clock()
			ssp = parentSp.StartChild("scatter")
			ssp.SetAttrs(obs.Int("shards", int64(ns)), obs.Int("regions", int64(nr)))
			shardSpans = make([]obs.SpanRef, ns)
			before = make([]Stats, ns)
			for s := range shardSpans {
				sp := ssp.StartChild("scatter.shard")
				sp.SetAttrs(obs.Int("shard", int64(s)),
					obs.Int("regions", int64(nr)), obs.Int("partials", int64(nr)))
				shardSpans[s] = sp
				before[s] = sv.engines[s].Snapshot()
			}
		}
		busyNS = make([]atomic.Int64, ns)
		lastEnd = make([]atomic.Int64, ns)
	}
	// account books one finished task of shard s that started at t0.
	account := func(s int, t0 time.Time) {
		t1 := clk.Now()
		busyNS[s].Add(t1.Sub(t0).Nanoseconds())
		for n := t1.UnixNano(); ; {
			cur := lastEnd[s].Load()
			if n <= cur || lastEnd[s].CompareAndSwap(cur, n) {
				break
			}
		}
	}

	// Two rounds on one pool, as in Engine.AggregateBatch: the flattened
	// shard × region grid of fronts, then the shards' scan units laid end
	// to end. parts is shard-major, one row of nr partials per shard.
	parts := make([]agg.Partial, ns*nr)
	row := func(s int) []agg.Partial { return parts[s*nr : (s+1)*nr] }
	scs := make([]regionScratch, min(sv.workers(), ns*nr))
	if err := drain(ctx, scs, ns*nr, func(sc *regionScratch, t int) error {
		s, i := t/nr, t%nr
		if timed {
			defer account(s, clk.Now())
		}
		return plans[s].front(sc, i, row(s))
	}); err != nil {
		return nil, err
	}
	ends := make([]int, ns) // ends[s]: the units of shards 0..s
	total := 0
	for s, p := range plans {
		if err := p.planUnits(&scs[0]); err != nil {
			return nil, err
		}
		total += len(p.units)
		ends[s] = total
	}
	if err := drain(ctx, scs, total, func(sc *regionScratch, t int) error {
		s := sort.SearchInts(ends, t+1)
		u := t - (ends[s] - len(plans[s].units))
		if timed {
			defer account(s, clk.Now())
		}
		return plans[s].runUnit(sc, u, row(s))
	}); err != nil {
		return nil, err
	}

	if timed {
		minB, maxB := int64(math.MaxInt64), int64(0)
		for s := 0; s < ns; s++ {
			b := busyNS[s].Load()
			if b < minB {
				minB = b
			}
			if b > maxB {
				maxB = b
			}
			if shardSpans != nil {
				d := sv.engines[s].Snapshot().Sub(before[s])
				shardSpans[s].SetAttrs(obs.Int("busy_ns", b),
					obs.Int("rows_scanned", d.RowsScanned),
					obs.Int("queries", d.Queries),
					obs.Int("cache_hits", d.CacheHits))
				if e := lastEnd[s].Load(); e != 0 {
					shardSpans[s].EndAt(time.Unix(0, e))
				} else {
					shardSpans[s].End()
				}
			}
		}
		skew := 0.0
		if minB > 0 {
			skew = float64(maxB) / float64(minB)
		}
		if ssp.Active() {
			ssp.SetAttrs(obs.Float("skew_ratio", skew))
			ssp.End()
		}
		if so != nil {
			if skew > 0 {
				so.skew.Set(skew)
			}
			so.straggler.ObserveDuration(time.Duration(maxB))
		}
	}

	// Gather: fold shard partials per region in shard order (§2.6).
	// The order is fixed, so the float association of every SUM is the
	// same for any worker count — deterministic at a given shard count.
	out := parts[:nr:nr]
	for s := 1; s < ns; s++ {
		row := parts[s*nr : (s+1)*nr]
		for i := range out {
			out[i] = agg.Merge(out[i], row[i])
		}
	}
	return out, nil
}

// ViolationScan concatenates per-shard scans in shard order with local
// row ids translated to parent row ids. Range partitioning preserves
// row order, so the output is identical to the monolithic scan.
func (sv *ShardedEvaluator) ViolationScan(q *relq.Query) ([]RowViolations, error) {
	if !sv.scatterable(q) {
		sv.countRouted()
		return sv.engines[0].ViolationScan(q)
	}
	sv.countScatter(1)
	var out []RowViolations
	for s, e := range sv.engines {
		part, err := e.ViolationScan(q)
		if err != nil {
			return nil, err
		}
		if lo := int32(sv.part.Shard(s).Lo); lo != 0 {
			for j := range part {
				part[j].Row += lo
			}
		}
		out = append(out, part...)
	}
	return out, nil
}

// Snapshot merges the shard engines' counters — the cumulative work of
// the whole sharded evaluator. Note Queries counts physical per-shard
// region executions: one scattered region costs NumShards executions.
func (sv *ShardedEvaluator) Snapshot() Stats {
	var out Stats
	for _, e := range sv.engines {
		s := e.Snapshot()
		out.Queries += s.Queries
		out.RowsScanned += s.RowsScanned
		out.BlocksScanned += s.BlocksScanned
		out.BlocksSkipped += s.BlocksSkipped
		out.TuplesExamined += s.TuplesExamined
		out.CellsSkipped += s.CellsSkipped
		out.CellsMerged += s.CellsMerged
		out.BoundaryRows += s.BoundaryRows
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.CacheEvictions += s.CacheEvictions
		out.DegradedScans += s.DegradedScans
	}
	return out
}

// ZoneSkips merges the shard engines' per-column zone-skip attribution
// ("table.column" -> blocks skipped because that column's predicate
// fired first).
func (sv *ShardedEvaluator) ZoneSkips() map[string]int64 {
	out := make(map[string]int64)
	for _, e := range sv.engines {
		for k, v := range e.ZoneSkips() {
			out[k] += v
		}
	}
	return out
}

// ResetStats zeroes every shard engine's counters and the scatter
// counters.
func (sv *ShardedEvaluator) ResetStats() {
	for _, e := range sv.engines {
		e.ResetStats()
	}
	sv.scatters.Store(0)
	sv.routed.Store(0)
	sv.partials.Store(0)
}

// ShardStat is one shard's identity and work: its fact-table row
// range, its current row count, and its engine counters.
type ShardStat struct {
	Shard int    `json:"shard"`
	Table string `json:"table"`
	Lo    int    `json:"lo"`
	Hi    int    `json:"hi"`
	Rows  int    `json:"rows"`
	Stats Stats  `json:"stats"`
}

// ShardStats reports per-shard statistics in shard order.
func (sv *ShardedEvaluator) ShardStats() []ShardStat {
	out := make([]ShardStat, len(sv.engines))
	for i, e := range sv.engines {
		sh := sv.part.Shard(i)
		out[i] = ShardStat{
			Shard: i,
			Table: sv.part.Table(),
			Lo:    sh.Lo,
			Hi:    sh.Hi,
			Rows:  sh.Hi - sh.Lo,
			Stats: e.Snapshot(),
		}
	}
	return out
}

// ScatterStats counts scatter-layer dispatch decisions.
type ScatterStats struct {
	// Scatters counts fact-referencing calls fanned out to all shards.
	Scatters int64
	// Routed counts calls sent whole to shard 0 (no fact reference).
	Routed int64
	// Partials counts per-shard partials gathered by the merge fold.
	Partials int64
}

// ScatterStats returns the scatter-layer counters.
func (sv *ShardedEvaluator) ScatterStats() ScatterStats {
	return ScatterStats{
		Scatters: sv.scatters.Load(),
		Routed:   sv.routed.Load(),
		Partials: sv.partials.Load(),
	}
}

func (sv *ShardedEvaluator) countScatter(regions int) {
	sv.scatters.Add(1)
	n := int64(regions) * int64(len(sv.engines))
	sv.partials.Add(n)
	if so := sv.obsShard.Load(); so != nil {
		so.scatters.Add(1)
		so.partials.Add(n)
		for _, c := range so.regions {
			c.Add(int64(regions))
		}
	}
}

func (sv *ShardedEvaluator) countRouted() {
	sv.routed.Add(1)
	if so := sv.obsShard.Load(); so != nil {
		so.routed.Add(1)
		if len(so.regions) > 0 {
			so.regions[0].Add(1)
		}
	}
}

// SetObserver attaches one observer to every shard engine (their
// acquire_engine_* counters share the registry series, so the mirrored
// totals sum across shards exactly like Snapshot) and registers the
// scatter-layer acquire_shard_* metrics. Nil detaches everywhere.
func (sv *ShardedEvaluator) SetObserver(o *obs.Observer) {
	for _, e := range sv.engines {
		e.SetObserver(o)
	}
	if o == nil {
		sv.obsShard.Store(nil)
		return
	}
	so := &shardedObs{
		o:         o,
		partials:  o.Counter("acquire_shard_partials_total", "Per-shard partials gathered by the sharded evaluator's §2.6 merge fold."),
		scatters:  o.Counter("acquire_shard_scatters_total", "Evaluator calls scattered to all shards (fact-referencing queries)."),
		routed:    o.Counter("acquire_shard_routed_total", "Evaluator calls routed whole to shard 0 (no fact-table reference)."),
		skew:      o.Gauge("acquire_shard_skew_ratio", "Slowest/fastest shard busy time of the most recent scatter round (1.0 = perfectly balanced)."),
		straggler: o.Histogram("acquire_shard_straggler_seconds", "Busy time of the slowest shard per scatter round — the scatter's critical path.", nil),
	}
	for i := range sv.engines {
		so.regions = append(so.regions,
			o.Counter(fmt.Sprintf(`acquire_shard_regions_total{shard="%d"}`, i),
				"Regions dispatched to each shard by scatter (plus routed calls for shard 0)."))
	}
	sv.obsShard.Store(so)
}

// Observer returns the attached observer (nil when detached).
func (sv *ShardedEvaluator) Observer() *obs.Observer {
	if so := sv.obsShard.Load(); so != nil {
		return so.o
	}
	return nil
}

// BuildGridIndex builds the §7.4 bitmap grid on every non-empty shard.
func (sv *ShardedEvaluator) BuildGridIndex(table string, columns []string, binsPerDim int) error {
	for _, e := range sv.engines {
		t, err := e.Catalog().Table(table)
		if err != nil {
			return err
		}
		if t.NumRows() == 0 {
			continue // nothing to index; scans of the empty shard are free
		}
		if err := e.BuildGridIndex(table, columns, binsPerDim); err != nil {
			return err
		}
	}
	return nil
}

// BuildGridAggIndex builds an aggregate-augmented grid per non-empty
// shard, reusing the deterministic fixed-shard build of
// index.BuildAgg. binsPerDim <= 0 auto-sizes each shard's grid from
// its own row count (index.BinsForRows), so small shards get
// proportionally coarse grids.
func (sv *ShardedEvaluator) BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error {
	for _, e := range sv.engines {
		t, err := e.Catalog().Table(table)
		if err != nil {
			return err
		}
		if t.NumRows() == 0 {
			continue
		}
		bins := binsPerDim
		if bins <= 0 {
			bins = index.BinsForRows(len(columns), t.NumRows())
		}
		if err := e.BuildGridAggIndex(table, columns, aggCols, bins); err != nil {
			return err
		}
	}
	return nil
}

// DropGridIndex removes the table's grid from every shard.
func (sv *ShardedEvaluator) DropGridIndex(table string) {
	for _, e := range sv.engines {
		e.DropGridIndex(table)
	}
}

// EnableRegionCache attaches one region cache PER SHARD, each sized
// maxBytes/NumShards (<= 0 detaches all). Shard caches are never
// shared: two shards of near-equal row count would produce colliding
// fingerprints for different row ranges, so instance-per-shard is a
// correctness requirement, not a tuning choice.
func (sv *ShardedEvaluator) EnableRegionCache(maxBytes int64) {
	if maxBytes <= 0 {
		for _, e := range sv.engines {
			e.SetRegionCache(nil)
		}
		return
	}
	per := maxBytes / int64(len(sv.engines))
	if per < 1 {
		per = 1
	}
	for _, e := range sv.engines {
		e.SetRegionCache(regioncache.New(per))
	}
}

// InvalidateRegionCache drops every shard's cached partials.
func (sv *ShardedEvaluator) InvalidateRegionCache() {
	for _, e := range sv.engines {
		e.InvalidateRegionCache()
	}
}

// CacheStats sums the shard caches' counters (zero when detached).
func (sv *ShardedEvaluator) CacheStats() regioncache.Stats {
	var out regioncache.Stats
	for _, e := range sv.engines {
		if c := e.RegionCache(); c != nil {
			s := c.Stats()
			out.Hits += s.Hits
			out.Misses += s.Misses
			out.Evictions += s.Evictions
			out.Entries += s.Entries
			out.Bytes += s.Bytes
		}
	}
	return out
}

// InvalidateTable broadcasts an in-place table mutation to every
// layer: the partition re-resolves the table from the parent catalog
// (re-slicing the fact table, re-broadcasting a dimension pointer),
// then every shard engine drops its derived state — column and sort
// caches, grid indexes, and its shard-local region cache. Without the
// broadcast, a monolithic-style single-instance drop would silently
// miss the shard-local caches and serve stale partials.
func (sv *ShardedEvaluator) InvalidateTable(table string) {
	_ = sv.part.Refresh(table) // unknown names still clear engine state below
	for _, e := range sv.engines {
		e.InvalidateTable(table)
	}
}
