package harness

import (
	"context"
	"strconv"

	"acquire/internal/core"
	"acquire/internal/relq"
	"acquire/internal/workload"
)

// Ratios is the aggregate-ratio axis of Figures 8 and 11.
var Ratios = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// DimCounts is the dimensionality axis of Figure 9.
var DimCounts = []int{1, 2, 3, 4, 5}

var allMethods = []string{"ACQUIRE", "Top-k", "TQGen", "BinSearch"}
var errMethods = []string{"ACQUIRE", "TQGen", "BinSearch"} // Top-k has no error by definition (§8.4.1)

// Figure8 reproduces Figures 8.a-8.c: 3 flexible predicates, δ=0.05,
// aggregate ratio 0.1-0.9, all four methods; reports execution time,
// relative aggregate error and refinement score.
func Figure8(ctx context.Context, cfg Config) ([]Figure, error) {
	rows, err := figure8Rows(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return figure8Figures(rows), nil
}

// figure8Rows measures every method at each of Ratios; rows[i][method]
// carries the deterministic work counters next to the timings.
func figure8Rows(ctx context.Context, cfg Config) ([]map[string]Measurement, error) {
	cfg = cfg.WithDefaults()
	e, err := usersEngine(cfg)
	if err != nil {
		return nil, err
	}
	var rows []map[string]Measurement
	for _, r := range Ratios {
		row, err := compareAll(ctx, e, cfg, 3, r)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func figure8Figures(rows []map[string]Measurement) []Figure {
	xs := Ratios
	return []Figure{
		{ID: "8.a", Title: "Execution time vs aggregate ratio", XLabel: "aggregate ratio", X: xs,
			YLabel: "time (ms)", Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Millis })},
		{ID: "8.b", Title: "Relative aggregate error vs aggregate ratio", XLabel: "aggregate ratio", X: xs,
			YLabel: "relative error", Series: seriesFrom(errMethods, rows, func(m Measurement) float64 { return m.Err })},
		{ID: "8.c", Title: "Refinement score vs aggregate ratio", XLabel: "aggregate ratio", X: xs,
			YLabel: "refinement score", Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Refinement })},
	}
}

// Figure9 reproduces Figures 9.a-9.c: ratio 0.3, 1-5 flexible
// predicates.
func Figure9(ctx context.Context, cfg Config) ([]Figure, error) {
	rows, err := figure9Rows(ctx, cfg)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(DimCounts))
	for i, d := range DimCounts {
		xs[i] = float64(d)
	}
	return []Figure{
		{ID: "9.a", Title: "Execution time vs number of dimensions", XLabel: "dimensions", X: xs,
			YLabel: "time (ms)", Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Millis })},
		{ID: "9.b", Title: "Relative aggregate error vs dimensions", XLabel: "dimensions", X: xs,
			YLabel: "relative error", Series: seriesFrom(errMethods, rows, func(m Measurement) float64 { return m.Err })},
		{ID: "9.c", Title: "Refinement score vs dimensions", XLabel: "dimensions", X: xs,
			YLabel: "refinement score", Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Refinement })},
	}, nil
}

// figure9Rows measures every method at each of DimCounts.
func figure9Rows(ctx context.Context, cfg Config) ([]map[string]Measurement, error) {
	cfg = cfg.WithDefaults()
	e, err := usersEngine(cfg)
	if err != nil {
		return nil, err
	}
	var rows []map[string]Measurement
	for _, d := range DimCounts {
		row, err := compareAll(ctx, e, cfg, d, 0.3)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableSizes is the Figure 10.a axis at default bench scale; pass a
// custom list through Figure10a for the paper's 1K-1M sweep.
var TableSizes = []int{1000, 10000, 100000}

// Figure10a reproduces Figure 10.a: execution time vs table size, all
// four methods, ratio 0.3, 3 predicates.
func Figure10a(ctx context.Context, cfg Config, sizes []int) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	if sizes == nil {
		sizes = TableSizes
	}
	var rows []map[string]Measurement
	var xs []float64
	for _, n := range sizes {
		c := cfg
		c.Rows = n
		e, err := usersEngine(c)
		if err != nil {
			return nil, err
		}
		row, err := compareAll(ctx, e, c, 3, 0.3)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		xs = append(xs, float64(n))
	}
	return []Figure{
		{ID: "10.a", Title: "Execution time vs table size", XLabel: "table size (rows)", X: xs,
			YLabel: "time (ms)", Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Millis })},
	}, nil
}

// Gammas is the Figure 10.b refinement-threshold axis.
var Gammas = []float64{2, 4, 6, 8, 10, 12}

// Figure10b reproduces Figure 10.b: ACQUIRE execution time vs the
// refinement threshold γ. Smaller γ means a finer grid — more queries
// to reach the same aggregate — so time grows as γ shrinks.
func Figure10b(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	e, err := usersEngine(cfg)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, g := range Gammas {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: 0.3,
		})
		if err != nil {
			return nil, err
		}
		if cfg.GridAgg {
			if err := ensureGridAgg(e, q); err != nil {
				return nil, err
			}
		}
		m, err := RunACQUIRE(ctx, e, q, core.Options{Gamma: g, Delta: cfg.Delta, Observer: cfg.Obs})
		if err != nil {
			return nil, err
		}
		xs = append(xs, g)
		ys = append(ys, m.Millis)
	}
	return []Figure{
		{ID: "10.b", Title: "ACQUIRE time vs refinement threshold", XLabel: "refinement threshold γ", X: xs,
			YLabel: "time (ms)", Series: []Series{{Name: "ACQUIRE", Y: ys}}},
	}, nil
}

// Deltas is the Figure 10.c cardinality-threshold axis.
var Deltas = []float64{0.0001, 0.001, 0.01, 0.1}

// Figure10c reproduces Figure 10.c: ACQUIRE execution time vs the
// aggregate (cardinality) threshold δ. Stricter thresholds force more
// repartitioning and deeper exploration.
func Figure10c(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	e, err := usersEngine(cfg)
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for _, d := range Deltas {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: 0.3,
		})
		if err != nil {
			return nil, err
		}
		if cfg.GridAgg {
			if err := ensureGridAgg(e, q); err != nil {
				return nil, err
			}
		}
		m, err := RunACQUIRE(ctx, e, q, core.Options{Gamma: cfg.Gamma, Delta: d, RepartitionDepth: 12, Observer: cfg.Obs})
		if err != nil {
			return nil, err
		}
		xs = append(xs, d)
		ys = append(ys, m.Millis)
	}
	return []Figure{
		{ID: "10.c", Title: "ACQUIRE time vs cardinality threshold", XLabel: "cardinality threshold δ", X: xs,
			YLabel: "time (ms)", Series: []Series{{Name: "ACQUIRE", Y: ys}}},
	}, nil
}

// Figure11 reproduces Figures 11.a-11.b: ACQUIRE on SUM, COUNT and MAX
// constraints over the TPC-H skeleton (Q2 of Example 2), ratio sweep;
// MIN is omitted as MAX(-attribute) (§8.4.6).
func Figure11(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	e, err := tpchEngine(cfg)
	if err != nil {
		return nil, err
	}
	aggs := []struct {
		name string
		f    relq.AggFunc
	}{
		{"SUM", relq.AggSum}, {"COUNT", relq.AggCount}, {"MAX", relq.AggMax},
	}
	timeFig := Figure{ID: "11.a", Title: "ACQUIRE time per aggregate type", XLabel: "aggregate ratio",
		X: Ratios, YLabel: "time (ms)"}
	refFig := Figure{ID: "11.b", Title: "ACQUIRE refinement per aggregate type", XLabel: "aggregate ratio",
		X: Ratios, YLabel: "refinement score"}
	for _, a := range aggs {
		ts := Series{Name: a.name, Y: make([]float64, len(Ratios))}
		rs := Series{Name: a.name, Y: make([]float64, len(Ratios))}
		for i, r := range Ratios {
			q, err := workload.BuildCalibrated(e, workload.Spec{
				Kind: workload.TPCH, Dims: 3, Agg: a.f, Ratio: r,
			})
			if err != nil {
				return nil, err
			}
			m, err := RunACQUIRE(ctx, e, q, acquireOpts(cfg))
			if err != nil {
				return nil, err
			}
			ts.Y[i] = m.Millis
			rs.Y[i] = m.Refinement
		}
		timeFig.Series = append(timeFig.Series, ts)
		refFig.Series = append(refFig.Series, rs)
	}
	return []Figure{timeFig, refFig}, nil
}

// SkewStudy reproduces §8.4.4: the Figure-8-style ratio sweep re-run on
// Zipf Z=1 data; the paper reports "trends in results were same".
func SkewStudy(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	out := make([]Figure, 0, 2)
	for _, z := range []float64{0, 1} {
		c := cfg
		c.Zipf = z
		e, err := usersEngine(c)
		if err != nil {
			return nil, err
		}
		var rows []map[string]Measurement
		for _, r := range Ratios {
			row, err := compareAll(ctx, e, c, 3, r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		id := "skew.Z0"
		if z > 0 {
			id = "skew.Z1"
		}
		out = append(out, Figure{
			ID: id, Title: "Execution time vs ratio (Zipf Z=" + strconv.Itoa(int(z)) + ")",
			XLabel: "aggregate ratio", X: Ratios, YLabel: "time (ms)",
			Series: seriesFrom(allMethods, rows, func(m Measurement) float64 { return m.Millis }),
		})
	}
	return out, nil
}

// JoinRefinementStudy exercises the capability no baseline has
// (Table 1): refining a join predicate. ACQUIRE only.
func JoinRefinementStudy(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	e, err := tpchEngine(cfg)
	if err != nil {
		return nil, err
	}
	var xs, ys, refs []float64
	for _, r := range Ratios {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.TPCH, Dims: 3, Agg: relq.AggCount, Ratio: r, RefinableJoin: true,
		})
		if err != nil {
			return nil, err
		}
		m, err := RunACQUIRE(ctx, e, q, acquireOpts(cfg))
		if err != nil {
			return nil, err
		}
		xs = append(xs, r)
		ys = append(ys, m.Millis)
		refs = append(refs, m.Refinement)
	}
	return []Figure{
		{ID: "join.time", Title: "ACQUIRE with refinable join", XLabel: "aggregate ratio", X: xs,
			YLabel: "time (ms)", Series: []Series{{Name: "ACQUIRE", Y: ys}}},
		{ID: "join.ref", Title: "Join refinement score", XLabel: "aggregate ratio", X: xs,
			YLabel: "refinement score", Series: []Series{{Name: "ACQUIRE", Y: refs}}},
	}, nil
}

// AblationIncremental quantifies §5's contribution: ACQUIRE with and
// without incremental aggregate computation, ratio sweep. The workload
// is the three-table TPC-H skeleton, where re-executing each refined
// query whole repeats the join work the incremental store shares.
func AblationIncremental(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	e, err := tpchEngine(cfg)
	if err != nil {
		return nil, err
	}
	inc := Series{Name: "incremental", Y: make([]float64, len(Ratios))}
	naive := Series{Name: "whole-query", Y: make([]float64, len(Ratios))}
	for i, r := range Ratios {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.TPCH, Dims: 3, Agg: relq.AggCount, Ratio: r,
		})
		if err != nil {
			return nil, err
		}
		m, err := RunACQUIRE(ctx, e, q, acquireOpts(cfg))
		if err != nil {
			return nil, err
		}
		inc.Y[i] = m.Millis
		m, err = RunACQUIRE(ctx, e, q, core.Options{Gamma: cfg.Gamma, Delta: cfg.Delta, NoIncremental: true, Observer: cfg.Obs})
		if err != nil {
			return nil, err
		}
		naive.Y[i] = m.Millis
	}
	return []Figure{{
		ID: "ablation.incremental", Title: "Incremental aggregate computation ablation",
		XLabel: "aggregate ratio", X: Ratios, YLabel: "time (ms)",
		Series: []Series{inc, naive},
	}}, nil
}

// AblationGridIndex quantifies §7.4: ACQUIRE with and without the grid
// bitmap index. Cell skipping only matters when the search crawls a
// sparse region in fine steps, so this ablation uses a dedicated
// workload: Zipf Z=1 users (ages concentrate at 18-25), a query
// anchored at age <= 30, and targets that force the search deep into
// the sparse integer tail with sub-year cells. The x-axis is the count
// multiplier demanded of the original query; the third series is the
// fraction of cell queries the index answered without scanning.
func AblationGridIndex(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	c := cfg
	c.Zipf = 1
	e, err := usersEngine(c)
	if err != nil {
		return nil, err
	}
	users, err := e.Catalog().Table("users")
	if err != nil {
		return nil, err
	}
	ageStats, err := users.Stats(users.Schema().Ordinal("age"))
	if err != nil {
		return nil, err
	}

	multipliers := []float64{1.05, 1.1, 1.2, 1.3, 1.4}
	without := Series{Name: "no index", Y: make([]float64, len(multipliers))}
	with := Series{Name: "grid index", Y: make([]float64, len(multipliers))}
	skipped := Series{Name: "cells skipped (frac)", Y: make([]float64, len(multipliers))}
	xs := make([]float64, len(multipliers))

	for i, mult := range multipliers {
		xs[i] = mult
		q := &relq.Query{
			Tables: []string{"users"},
			Dims: []relq.Dimension{{
				Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"},
				Bound: 30, Width: ageStats.Max - ageStats.Min,
			}},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
		}
		if _, err := workload.Calibrate(e, q, 1/mult); err != nil {
			return nil, err
		}
		opts := core.Options{Gamma: 0.5, Delta: 0.01, Observer: cfg.Obs} // step = 0.5 score units ≈ 0.3 years

		m, err := RunACQUIRE(ctx, e, q, opts)
		if err != nil {
			return nil, err
		}
		without.Y[i] = m.Millis

		if err := e.BuildGridIndex("users", []string{"age"}, 256); err != nil {
			return nil, err
		}
		m, err = RunACQUIRE(ctx, e, q, opts)
		if err != nil {
			return nil, err
		}
		with.Y[i] = m.Millis
		if m.Executions > 0 {
			skipped.Y[i] = float64(m.CellsSkipped) / float64(m.Executions)
		}
		e.DropGridIndex("users")
	}
	return []Figure{{
		ID: "ablation.gridindex", Title: "Grid bitmap index ablation (§7.4, sparse integer tail)",
		XLabel: "count multiplier", X: xs, YLabel: "time (ms)",
		Series: []Series{without, with, skipped},
	}}, nil
}
