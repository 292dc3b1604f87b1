package main

// surface.go is the only file of the benchmark that imports the
// repository's packages. Everything the benchmark needs from the system
// under test goes through the aliases and functions below, so this file
// is the exact exported surface the benchmark pins: a later PR that
// renames or removes one of these has to edit this file and nothing
// else in bench/. Every layer is measured from outside, by timing these
// calls.

import (
	"context"
	"fmt"
	"math/rand"

	"acquire/internal/agg"
	"acquire/internal/core"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/index"
	"acquire/internal/relq"
	"acquire/internal/sqlparse"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

type (
	catalog      = data.Catalog
	engine       = exec.Engine
	engineStats  = exec.Stats
	evaluator    = core.Evaluator
	searchResult = core.Result
	query        = relq.Query
	refinedQuery = relq.RefinedQuery
	region       = relq.Region
	partial      = agg.Partial
	acqSpec      = workload.Spec
	sqlAST       = sqlparse.AST
)

// Search options of harness.acquireOpts: γ = 20, δ = 0.05.
var searchOptions = core.Options{Gamma: 20, Delta: 0.05}

func generateUsers(rows int, seed int64) (*catalog, error) {
	return tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: seed})
}

func generateTPCH(rows int, seed int64) (*catalog, error) {
	return tpch.Generate(tpch.Config{Rows: rows, Seed: seed})
}

// permuteRows rewrites every table of the catalog in a row order drawn
// from seed. The multiset of rows is unchanged, so every aggregate and
// every search is the same for all seeds; the physical input the engine
// scans (block contents, zone-map bounds, hash-build order, SUM
// association) is not.
func permuteRows(cat *catalog, seed int64) error {
	for ti, name := range cat.Names() {
		src, err := cat.Table(name)
		if err != nil {
			return err
		}
		cols := len(src.Schema().Columns)
		dst := data.NewTable(src.Name(), src.Schema())
		vals := make([]data.Value, cols)
		rng := rand.New(rand.NewSource(seed + int64(ti)))
		for _, row := range rng.Perm(src.NumRows()) {
			for c := range vals {
				vals[c] = src.ValueAt(row, c)
			}
			if err := dst.AppendRow(vals...); err != nil {
				return fmt.Errorf("permute %s: %w", name, err)
			}
		}
		cat.Replace(dst)
	}
	return nil
}

func tableRows(cat *catalog, table string) (int, error) {
	t, err := cat.Table(table)
	if err != nil {
		return 0, err
	}
	return t.NumRows(), nil
}

// numericColumn returns one column as float64s, for the TPC-H oracle.
func numericColumn(cat *catalog, table, column string) ([]float64, error) {
	t, err := cat.Table(table)
	if err != nil {
		return nil, err
	}
	ord := t.Schema().Ordinal(column)
	if ord < 0 {
		return nil, fmt.Errorf("table %s has no column %q", table, column)
	}
	return t.NumericColumn(ord)
}

func newEngine(cat *catalog) *engine { return exec.New(cat) }

// buildGridAgg builds the aggregate grid the way cmd/acquire -gridagg
// does: over the query's select columns, at index.BinsForRows bins.
func buildGridAgg(e *engine, table string, columns []string) error {
	rows, err := tableRows(e.Catalog(), table)
	if err != nil {
		return err
	}
	return e.BuildGridAggIndex(table, columns, nil, index.BinsForRows(len(columns), rows))
}

func enableRegionCache(e *engine, maxBytes int64) { e.EnableRegionCache(maxBytes) }

func snapshot(e *engine) engineStats { return e.Snapshot() }

func usersSpec(dims int, ratio float64) acqSpec {
	return acqSpec{Kind: workload.Users, Dims: dims, Agg: relq.AggCount, Ratio: ratio}
}

func tpchSpec(fn string, ratio float64) acqSpec {
	f := map[string]relq.AggFunc{"count": relq.AggCount, "sum": relq.AggSum, "max": relq.AggMax}[fn]
	return acqSpec{Kind: workload.TPCH, Dims: 3, Agg: f, Ratio: ratio}
}

func buildCalibrated(e *engine, spec acqSpec) (*query, error) {
	return workload.BuildCalibrated(e, spec)
}

func parseSQL(sql string) (*sqlAST, error) { return sqlparse.Parse(sql) }

func analyzeSQL(ast *sqlAST, cat *catalog) (*query, error) { return sqlparse.Analyze(ast, cat) }

func runSearch(ctx context.Context, ev evaluator, q *query) (*searchResult, error) {
	return core.RunContext(ctx, ev, q, searchOptions)
}

// isProbe reports whether an evaluation-layer call carries a single
// prefix region: a §6 repartitioning probe or the origin estimate, as
// opposed to a batch of cell regions.
func isProbe(regions []region) bool {
	if len(regions) != 1 {
		return false
	}
	for _, iv := range regions[0] {
		if iv.Lo >= 0 {
			return false
		}
	}
	return true
}

// constraintValue extracts the constraint's aggregate from a partial.
func constraintValue(q *query, p partial) (float64, error) {
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return 0, err
	}
	return spec.Final(p), nil
}

// naiveAggregate re-evaluates a refined query by the engine's
// exhaustive nested-loop oracle, which shares no scan, index, cache or
// join code with the optimised path.
func naiveAggregate(e *engine, rq *refinedQuery) (float64, error) {
	p, err := e.NaiveAggregate(rq.Base, relq.PrefixRegion(rq.Scores))
	if err != nil {
		return 0, err
	}
	return constraintValue(rq.Base, p)
}

// sumConstraint reports whether the query's aggregate is a float sum,
// whose value depends on association order.
func sumConstraint(q *query) bool { return q.Constraint.Func == relq.AggSum }

// oracleDim is one refinable select predicate as the TPC-H oracle sees
// it: the column it reads and the violation function that defines it.
type oracleDim struct {
	table, column string
	violation     func(float64) float64
}

// oracleView flattens a query for the key-lookup join in oracle.go. It
// rejects every shape that oracle does not implement, so a new workload
// cannot pass the gate by not being checked.
func oracleView(q *query) (dims []oracleDim, aggFn, aggTable, aggColumn string, err error) {
	if len(q.Fixed) != 2 {
		return nil, "", "", "", fmt.Errorf("oracle: want the 2 NOREFINE key joins, got %d fixed predicates", len(q.Fixed))
	}
	for i := range q.Fixed {
		if q.Fixed[i].Kind != relq.FixedEquiJoin {
			return nil, "", "", "", fmt.Errorf("oracle: fixed predicate %d is not an equi-join", i)
		}
	}
	for i := range q.Dims {
		d := &q.Dims[i]
		if d.Kind == relq.JoinBand {
			return nil, "", "", "", fmt.Errorf("oracle: join-band dimension %s not supported", d.Label())
		}
		dims = append(dims, oracleDim{table: d.Col.Table, column: d.Col.Column, violation: d.Violation})
	}
	switch q.Constraint.Func {
	case relq.AggCount:
		aggFn = "count"
	case relq.AggSum:
		aggFn = "sum"
	case relq.AggMax:
		aggFn = "max"
	default:
		return nil, "", "", "", fmt.Errorf("oracle: aggregate %s not supported", q.Constraint.Func)
	}
	return dims, aggFn, q.Constraint.Attr.Table, q.Constraint.Attr.Column, nil
}
