// Package acq is the public API of the ACQUIRE reproduction: it
// processes Aggregation Constrained Queries (ACQs) — SQL
// select-project-join queries extended with CONSTRAINT and NOREFINE
// clauses — by refinement, returning the set of minimally refined
// queries whose aggregate meets the constraint.
//
// Typical use:
//
//	s, _ := acq.NewTPCHSession(100_000, 0, 1)
//	res, _ := s.RefineSQL(`
//	    SELECT * FROM supplier, part, partsupp
//	    CONSTRAINT SUM(ps_availqty) >= 0.1M
//	    WHERE (s_suppkey = ps_suppkey) NOREFINE AND
//	          (p_partkey = ps_partkey) NOREFINE AND
//	          (p_retailprice < 1000) AND (s_acctbal < 2000)`,
//	    acq.Options{})
//	fmt.Println(res.Best.ToSQL())
//
// The package re-exports the library's core types by alias so the full
// machinery (engine statistics, norms, baselines, ontologies) is
// reachable without importing internal packages.
package acq

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/baseline"
	"acquire/internal/core"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/exec/regioncache"
	"acquire/internal/histogram"
	"acquire/internal/norms"
	"acquire/internal/obs"
	"acquire/internal/ontology"
	"acquire/internal/relq"
	"acquire/internal/sqlparse"
	"acquire/internal/tpch"
)

// Re-exported model types. Aliases keep a single definition while
// making the internal machinery usable by downstream importers.
type (
	// Query is an analyzed aggregation constrained query.
	Query = relq.Query
	// Dimension is one refinable predicate.
	Dimension = relq.Dimension
	// FixedPred is a NOREFINE predicate.
	FixedPred = relq.FixedPred
	// Constraint is the CONSTRAINT clause.
	Constraint = relq.Constraint
	// ColumnRef names a table column.
	ColumnRef = relq.ColumnRef
	// RefinedQuery is one refined answer with its scores and aggregate.
	RefinedQuery = relq.RefinedQuery
	// Options tunes the refinement search (γ, δ, norm, ...).
	Options = core.Options
	// Result is the refinement search output.
	Result = core.Result
	// Norm scores refinement vectors (§2.3).
	Norm = norms.Norm
	// Outcome is a baseline comparison record.
	Outcome = baseline.Outcome
	// EngineStats counts evaluation-layer work.
	EngineStats = exec.Stats
	// Taxonomy is an ontology tree for categorical refinement (§7.3).
	Taxonomy = ontology.Tree
	// UDA is a user-defined OSP aggregate (§2.6).
	UDA = agg.UDA
	// Partial is a mergeable aggregate summary fed to UDA finalizers.
	Partial = agg.Partial
	// BinSearchOptions tunes the BinSearch baseline.
	BinSearchOptions = baseline.BinSearchOptions
	// TQGenOptions tunes the TQGen baseline.
	TQGenOptions = baseline.TQGenOptions
)

// Re-exported enumeration values for programmatic query construction.
const (
	// SelectLE is a v <= bound dimension.
	SelectLE = relq.SelectLE
	// SelectGE is a v >= bound dimension.
	SelectGE = relq.SelectGE
	// SelectEQ is a v = bound dimension refined into a band.
	SelectEQ = relq.SelectEQ
	// JoinBand is a refinable join dimension.
	JoinBand = relq.JoinBand

	// FixedRangeKind, FixedEquiJoinKind and FixedStringInKind name the
	// NOREFINE predicate shapes.
	FixedRangeKind    = relq.FixedRange
	FixedEquiJoinKind = relq.FixedEquiJoin
	FixedStringInKind = relq.FixedStringIn

	// AggCount .. AggUser name the constraint aggregates.
	AggCount = relq.AggCount
	AggSum   = relq.AggSum
	AggMin   = relq.AggMin
	AggMax   = relq.AggMax
	AggAvg   = relq.AggAvg
	AggUser  = relq.AggUser

	// CmpEQ .. CmpLT name the constraint comparison operators.
	CmpEQ = relq.CmpEQ
	CmpGE = relq.CmpGE
	CmpGT = relq.CmpGT
	CmpLE = relq.CmpLE
	CmpLT = relq.CmpLT
)

// Norm constructors.

// L1Norm returns the paper's default norm (Eq. 3).
func L1Norm() Norm { return norms.L1{} }

// LpNorm returns a weighted p-norm; weights nil means unweighted.
func LpNorm(p float64, weights []float64) (Norm, error) { return norms.NewLp(p, weights) }

// LInfNorm returns the L∞ norm, optionally weighted.
func LInfNorm(weights []float64) Norm { return norms.LInf{Weights: weights} }

// CustomNorm wraps a user scoring function; it must be monotone and is
// probed for monotonicity at search start.
func CustomNorm(label string, fn func([]float64) float64) Norm {
	return norms.Custom{Fn: fn, Label: label}
}

// NewTaxonomy creates an ontology tree with the given root.
func NewTaxonomy(root string) *Taxonomy { return ontology.NewTree(root) }

// ParseTaxonomy reads a taxonomy from an indentation-based outline
// (see ontology.ParseOutline for the format).
func ParseTaxonomy(r io.Reader) (*Taxonomy, error) { return ontology.ParseOutline(r) }

// LoadTaxonomy reads a taxonomy outline from a file.
func LoadTaxonomy(path string) (*Taxonomy, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ontology.ParseOutline(f)
}

// RegisterUDA registers a user-defined aggregate usable in CONSTRAINT
// clauses by name.
func RegisterUDA(u UDA) error { return agg.RegisterUDA(u) }

// Evaluator is the modular evaluation layer of §3; sessions default to
// exact execution and can switch to sampling or histogram estimation.
type Evaluator = core.Evaluator

// Session binds a catalog of tables to an execution engine and an
// evaluation layer for refinement searches.
type Session struct {
	cat *data.Catalog
	eng *exec.Engine
	// eval answers the refinement search's aggregate queries; defaults
	// to eng (exact execution).
	eval Evaluator
	// obs instruments the session (see Observe/Metrics in observe.go);
	// nil keeps every search uninstrumented at ~zero cost.
	obs *obs.Observer
	// searchSeq numbers RefineReport searches within the session.
	searchSeq atomic.Int64
	// cacheBytes is the region-cache capacity (0 = caching off); kept
	// so an evaluation-layer switch re-attaches an equally sized cache.
	cacheBytes int64
	// approx rebuilds the active approximate evaluation layer from the
	// current catalog with the settings it was made with (UseSampling,
	// UseHistograms); nil under exact execution.
	approx func() error
}

// NewSession creates an empty session; load tables with LoadCSV or
// build one of the generated datasets with NewTPCHSession /
// NewUsersSession.
func NewSession() *Session {
	cat := data.NewCatalog()
	eng := exec.New(cat)
	return &Session{cat: cat, eng: eng, eval: eng}
}

// NewTPCHSession generates the TPC-H subset of §8.3 (supplier, part,
// partsupp) with `rows` partsupp tuples, Zipf skew z (0 = uniform,
// 1 = the skewed datasets of §8.4.4) and a deterministic seed.
func NewTPCHSession(rows int, z float64, seed int64) (*Session, error) {
	cat, err := tpch.Generate(tpch.Config{Rows: rows, Zipf: z, Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := exec.New(cat)
	return &Session{cat: cat, eng: eng, eval: eng}, nil
}

// NewUsersSession generates the Example-1 advertising dataset.
func NewUsersSession(rows int, z float64, seed int64) (*Session, error) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Zipf: z, Seed: seed})
	if err != nil {
		return nil, err
	}
	eng := exec.New(cat)
	return &Session{cat: cat, eng: eng, eval: eng}, nil
}

// LoadCSV loads a table written by SaveCSV (or any name:TYPE-headed
// CSV) under the given table name.
func (s *Session) LoadCSV(name, path string) error {
	t, err := data.LoadCSVFile(name, path)
	if err != nil {
		return err
	}
	return s.cat.Register(t)
}

// SaveCSV writes a table to path.
func (s *Session) SaveCSV(name, path string) error {
	t, err := s.cat.Table(name)
	if err != nil {
		return err
	}
	return data.SaveCSVFile(t, path)
}

// Tables lists the loaded table names.
func (s *Session) Tables() []string { return s.cat.Names() }

// TableRows returns a table's cardinality.
func (s *Session) TableRows(name string) (int, error) {
	t, err := s.cat.Table(name)
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// Parse parses and analyzes an ACQ statement against the session's
// catalog.
func (s *Session) Parse(sql string) (*Query, error) {
	return sqlparse.ParseAndAnalyze(sql, s.cat)
}

// Estimate executes the original (unrefined) query and returns its
// actual aggregate value — step 1 of the Figure 2 architecture: if it
// already meets the constraint, no refinement is needed.
func (s *Session) Estimate(q *Query) (float64, error) {
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return 0, err
	}
	p, err := s.eng.Aggregate(q, relq.PrefixRegion(make([]float64, q.NumDims())))
	if err != nil {
		return 0, err
	}
	return spec.Final(p), nil
}

// Refine runs ACQUIRE on the query through the session's evaluation
// layer (exact by default; see UseSampling / UseHistograms). When the
// session has an attached observer (Observe/Metrics) and the options
// don't name one, the search runs under the session observer.
func (s *Session) Refine(q *Query, opts Options) (*Result, error) {
	if opts.Observer == nil {
		opts.Observer = s.obs
	}
	return core.Run(s.eval, q, opts)
}

// RefineContext is Refine with cancellation: the context is checked at
// every exploration layer and repartition iteration, and inside the
// evaluation layer's batch loops. On cancellation the partial result
// accumulated so far is returned alongside the context's error, so
// callers can report the best refinement found before the interrupt.
func (s *Session) RefineContext(ctx context.Context, q *Query, opts Options) (*Result, error) {
	if opts.Observer == nil {
		opts.Observer = s.obs
	}
	return core.RunContext(ctx, s.eval, q, opts)
}

// DefaultCacheBytes is the region-cache capacity EnableCache uses when
// passed 0: 64 MiB, roughly 400k cached partials.
const DefaultCacheBytes = 64 << 20

// CacheStats reports the region cache's hit/miss/eviction counters and
// current size (see EnableCache).
type CacheStats = regioncache.Stats

// EnableCache attaches a cross-search partial-aggregate cache to the
// session's evaluation layer: every region the refinement search
// dispatches is first looked up by its canonical (query shape,
// aggregate spec, region) fingerprint, and the regions it missed are
// stored when their batch succeeds, so repeated or overlapping
// searches — including concurrent ones on this session — reuse each
// other's work. Two searches that miss a region at the same moment
// both execute it. Cached partials are the exact bytes a cold execution
// produces, so results are bit-identical with the cache on, off or
// pre-warmed. maxBytes bounds the cache's memory (LRU eviction);
// 0 selects DefaultCacheBytes. A sampling evaluation layer keeps its
// own cache instance, sized equally, because its partials are
// sample-space values.
func (s *Session) EnableCache(maxBytes int64) {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	s.cacheBytes = maxBytes
	s.eng.SetRegionCache(regioncache.New(maxBytes))
	if sm, ok := s.eval.(*exec.Sampled); ok {
		sm.SetRegionCache(regioncache.New(maxBytes))
	}
}

// DisableCache detaches the session's region caches; searches execute
// every region again.
func (s *Session) DisableCache() {
	s.cacheBytes = 0
	s.eng.SetRegionCache(nil)
	if sm, ok := s.eval.(*exec.Sampled); ok {
		sm.SetRegionCache(nil)
	}
}

// InvalidateCache drops every cached partial, freeing the caches' memory.
// Stale partials are never served without it: a cache key mixes each
// table's generation, which appends and ApplyTaxonomy's replacement move.
func (s *Session) InvalidateCache() {
	s.eng.InvalidateRegionCache()
	if sm, ok := s.eval.(*exec.Sampled); ok {
		sm.InvalidateRegionCache()
	}
}

// CacheStats returns the region cache's counters; the zero value when
// caching is disabled.
func (s *Session) CacheStats() CacheStats {
	if c := s.eng.RegionCache(); c != nil {
		return c.Stats()
	}
	return CacheStats{}
}

// UseSampling switches the evaluation layer to exact execution over a
// Bernoulli sample with extrapolated COUNT/SUM aggregates (§3's
// "sampling" alternative). Refinements get cheaper and noisier; the
// Estimate/Preview methods still use the full data.
func (s *Session) UseSampling(fraction float64, seed int64) error {
	sampled, err := exec.NewSampled(s.cat, fraction, seed)
	if err != nil {
		return err
	}
	sampled.SetObserver(s.obs)
	if s.cacheBytes > 0 {
		sampled.SetRegionCache(regioncache.New(s.cacheBytes))
	}
	s.eval, s.approx = sampled, func() error { return s.UseSampling(fraction, seed) }
	return nil
}

// UseHistograms switches the evaluation layer to scan-free COUNT
// estimation from per-column equi-depth histograms (§3's "estimation"
// alternative). Only single-table COUNT constraints are estimable.
func (s *Session) UseHistograms(buckets int) error {
	ev, err := histogram.NewEvaluator(s.cat, buckets)
	if err != nil {
		return err
	}
	s.eval, s.approx = ev, func() error { return s.UseHistograms(buckets) }
	return nil
}

// UseExact restores exact execution (the default evaluation layer).
func (s *Session) UseExact() { s.eval, s.approx = s.eng, nil }

// Explain renders a human-readable summary of a refinement result: the
// search profile and the recommended (or closest) query.
func Explain(q *Query, res *Result) string { return core.ExplainResult(q, res) }

// RefineSQL parses, analyzes and refines in one call.
func (s *Session) RefineSQL(sql string, opts Options) (*Result, error) {
	q, err := s.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Refine(q, opts)
}

// BuildGridIndex builds the §7.4 grid bitmap index over numeric
// columns of a table; subsequent refinements skip provably empty cell
// queries.
func (s *Session) BuildGridIndex(table string, columns []string, binsPerDim int) error {
	return s.eng.BuildGridIndex(table, columns, binsPerDim)
}

// BuildGridAggIndex builds an aggregate-augmented grid over numeric
// columns of a table: per-cell COUNT, SUM/MIN/MAX of each aggCols
// column, and posting lists. Eligible single-table refinement queries
// are then answered by merging stored cell partials (interior cells)
// and scanning only boundary-cell posting lists.
func (s *Session) BuildGridAggIndex(table string, columns, aggCols []string, binsPerDim int) error {
	return s.eng.BuildGridAggIndex(table, columns, aggCols, binsPerDim)
}

// DropGridIndex removes a table's grid index.
func (s *Session) DropGridIndex(table string) { s.eng.DropGridIndex(table) }

// Stats returns the exact engine's cumulative statistics.
func (s *Session) Stats() EngineStats { return s.eng.Snapshot() }

// ResetStats zeroes the statistics counters.
func (s *Session) ResetStats() { s.eng.ResetStats() }

// ResultSet is a materialised SELECT * result.
type ResultSet = exec.ResultSet

// Plan is the engine's EXPLAIN output.
type Plan = exec.Plan

// ExplainPlan returns the access plan the engine would use for the
// (unrefined) query: per-table access paths and join order.
func (s *Session) ExplainPlan(q *Query) (*Plan, error) {
	return s.eng.Explain(q, relq.PrefixRegion(make([]float64, q.NumDims())))
}

// Preview materialises up to limit result tuples of a refined query —
// what the user would see after picking one of ACQUIRE's
// recommendations.
func (s *Session) Preview(rq *RefinedQuery, limit int) (*ResultSet, error) {
	return s.eng.Materialize(rq.Base, relq.PrefixRegion(rq.Scores), limit)
}

// PreviewOriginal materialises the original (unrefined) query.
func (s *Session) PreviewOriginal(q *Query, limit int) (*ResultSet, error) {
	return s.eng.Materialize(q, relq.PrefixRegion(make([]float64, q.NumDims())), limit)
}

// TopK runs the Top-k baseline (§8.2) on the query.
func (s *Session) TopK(q *Query) (*Outcome, error) { return baseline.TopK(s.eng, q) }

// BinSearch runs the BinSearch baseline (§8.2) on the query.
func (s *Session) BinSearch(q *Query, opts BinSearchOptions) (*Outcome, error) {
	return baseline.BinSearch(s.eng, q, opts)
}

// TQGen runs the TQGen baseline (§8.2) on the query.
func (s *Session) TQGen(q *Query, opts TQGenOptions) (*Outcome, error) {
	return baseline.TQGen(s.eng, q, opts)
}

// ApplyTaxonomy rewrites a categorical IN/=-predicate on table.column
// into a refinable ontology-distance dimension (§7.3): the table gains
// a materialised distance column, and the returned dimension can be
// appended to a query's Dims (remove the corresponding FixedStringIn
// predicate first; RewriteCategorical does both).
func (s *Session) ApplyTaxonomy(tree *Taxonomy, table, column string, target []string) (Dimension, error) {
	t, err := s.cat.Table(table)
	if err != nil {
		return Dimension{}, err
	}
	rewritten, dim, err := ontology.BindColumn(tree, t, column, target)
	if err != nil {
		return Dimension{}, err
	}
	s.cat.Replace(rewritten)
	// A sample or histograms drawn from the old table lack the new
	// column: rebuild them, with the same fraction and seed or bucket
	// count.
	if s.approx != nil {
		if err := s.approx(); err != nil {
			return Dimension{}, err
		}
	}
	return dim, nil
}

// RewriteCategorical converts the i-th fixed predicate of q (which
// must be a string IN/=-predicate) into a refinable ontology-distance
// dimension using the taxonomy, returning the rewritten query.
func (s *Session) RewriteCategorical(q *Query, fixedIdx int, tree *Taxonomy) (*Query, error) {
	if fixedIdx < 0 || fixedIdx >= len(q.Fixed) {
		return nil, fmt.Errorf("acq: fixed predicate index %d out of range", fixedIdx)
	}
	p := q.Fixed[fixedIdx]
	if p.Kind != relq.FixedStringIn {
		return nil, fmt.Errorf("acq: fixed predicate %d is not a string predicate", fixedIdx)
	}
	dim, err := s.ApplyTaxonomy(tree, p.Col.Table, p.Col.Column, p.Values)
	if err != nil {
		return nil, err
	}
	out := q.Clone()
	out.Fixed = append(out.Fixed[:fixedIdx], out.Fixed[fixedIdx+1:]...)
	out.Dims = append(out.Dims, dim)
	return out, nil
}
