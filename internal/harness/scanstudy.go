package harness

import (
	"context"
	"fmt"
	"time"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

// ScanStudyRounds is how many interleaved timing rounds each scan path
// gets per workload; the reported figure is the per-path minimum, the
// standard low-interference estimator.
var ScanStudyRounds = 10

// ScanPathStudy measures the vectorized block-scan path against the
// legacy row-at-a-time path on two workloads, after verifying both
// produce identical partials:
//
//   - "clustered": the Figure 8 users workload with the fact table
//     re-clustered by age (cfg.Cluster, default "age"), so per-block
//     zone maps can prove blocks out of range and skip them without
//     touching rows. The rows-touched figure records the reduction.
//   - "join": the TPCH supplier ⋈ partsupp ⋈ part SUM workload on the
//     generators' unclustered layout, where the win comes from the
//     batch-bound join plan (partsupp, which carries no flexible
//     predicate here, is scanned and grouped once per batch rather
//     than once per region) and pre-sized join hash tables.
//
// Both engines share one catalog per workload; the legacy engine is the
// same Engine with SetLegacyScan(true). When cfg.Obs is set, the study
// publishes acquire_scan_join_speedup and acquire_scan_clustered_speedup
// gauges so CI can assert the vectorized path actually pays for itself.
func ScanPathStudy(ctx context.Context, cfg Config) ([]Figure, error) {
	cfg = cfg.WithDefaults()
	cluster := cfg.Cluster
	if cluster == "" {
		cluster = "age"
	}

	type pathRun struct {
		millis        float64
		rows          int64
		blocksScanned int64
		blocksSkipped int64
	}
	// measure verifies vectorized == legacy on the batch, then times
	// both paths interleaved and reports per-path stats deltas.
	measure := func(e exec.Evaluator, q *relq.Query, regions []relq.Region) (vec, leg pathRun, err error) {
		run := func(legacy bool) (pathRun, []agg.Partial, error) {
			e.SetLegacyScan(legacy)
			before := e.Snapshot()
			parts, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				return pathRun{}, nil, err
			}
			d := e.Snapshot()
			return pathRun{
				rows:          d.RowsScanned - before.RowsScanned,
				blocksScanned: d.BlocksScanned - before.BlocksScanned,
				blocksSkipped: d.BlocksSkipped - before.BlocksSkipped,
			}, parts, nil
		}
		vec, want, err := run(false)
		if err != nil {
			return vec, leg, err
		}
		leg, got, err := run(true)
		if err != nil {
			return vec, leg, err
		}
		for i := range got {
			if got[i].Count != want[i].Count || !agg.ApproxEqual(got[i], want[i], 0) {
				return vec, leg, fmt.Errorf("scanstudy: region %d diverged: legacy %+v vs vectorized %+v",
					i, got[i], want[i])
			}
		}
		best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
		for round := 0; round < ScanStudyRounds; round++ {
			for pi, legacy := range [2]bool{false, true} {
				if err := ctx.Err(); err != nil {
					return vec, leg, err
				}
				e.SetLegacyScan(legacy)
				start := time.Now()
				if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
					return vec, leg, err
				}
				if d := time.Since(start); d < best[pi] {
					best[pi] = d
				}
			}
		}
		e.SetLegacyScan(false)
		vec.millis = float64(best[0].Microseconds()) / 1000
		leg.millis = float64(best[1].Microseconds()) / 1000
		return vec, leg, nil
	}

	// Workload 1: clustered users, prefix-region ladder reaching broad
	// regions so the planner picks full scans and zone maps engage.
	ucat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: cfg.Rows, Zipf: cfg.Zipf, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	ue, err := newEngine(ucat, Config{Obs: cfg.Obs, CacheMB: cfg.CacheMB, Cluster: cluster})
	if err != nil {
		return nil, err
	}
	uq, err := workload.BuildCalibrated(ue, workload.Spec{
		Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: 0.3,
	})
	if err != nil {
		return nil, err
	}
	var uregions []relq.Region
	for i := 0; i < 8; i++ {
		h := 10 + float64(i)*8
		uregions = append(uregions, relq.Region{{Lo: -1, Hi: h}, {Lo: -1, Hi: 70 - h/2}, {Lo: -1, Hi: h}})
	}
	uvec, uleg, err := measure(ue, uq, uregions)
	if err != nil {
		return nil, err
	}

	// Workload 2: the three-table SUM join. partsupp has no select
	// dimension of its own, so every region of a batch shares one scan
	// and one grouped build of it.
	tcat, err := tpch.Generate(tpch.Config{Rows: cfg.Rows, Zipf: cfg.Zipf, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	te, err := newEngine(tcat, Config{Obs: cfg.Obs, CacheMB: cfg.CacheMB})
	if err != nil {
		return nil, err
	}
	tq, err := workload.BuildCalibrated(te, workload.Spec{
		Kind: workload.TPCH, Dims: 2, Agg: relq.AggSum, Ratio: 0.3,
	})
	if err != nil {
		return nil, err
	}
	var tregions []relq.Region
	for i := 0; i < 8; i++ {
		h := 2 + float64(i)*3
		tregions = append(tregions, relq.Region{{Lo: -1, Hi: h}, {Lo: -1, Hi: h / 2}})
	}
	tvec, tleg, err := measure(te, tq, tregions)
	if err != nil {
		return nil, err
	}

	speedup := func(leg, vec pathRun) float64 {
		if vec.millis <= 0 {
			return 1
		}
		return leg.millis / vec.millis
	}
	clusteredSpeedup := speedup(uleg, uvec)
	joinSpeedup := speedup(tleg, tvec)
	if cfg.Obs != nil {
		cfg.Obs.Gauge("acquire_scan_clustered_speedup",
			"Legacy/vectorized wall-clock ratio of the clustered fig. 8 batch (ScanPathStudy).").Set(clusteredSpeedup)
		cfg.Obs.Gauge("acquire_scan_join_speedup",
			"Legacy/vectorized wall-clock ratio of the TPCH join batch (ScanPathStudy).").Set(joinSpeedup)
	}

	x := []float64{1, 2} // 1 = clustered users, 2 = tpch join
	return []Figure{
		{ID: "scan.batch", Title: "AggregateBatch wall-clock: legacy vs vectorized scan path (min of rounds)",
			XLabel: "workload (1=clustered fig. 8, 2=tpch join)", X: x, YLabel: "ms/batch", Series: []Series{
				{Name: "legacy", Y: []float64{uleg.millis, tleg.millis}},
				{Name: "vectorized", Y: []float64{uvec.millis, tvec.millis}},
				{Name: "speedup", Y: []float64{clusteredSpeedup, joinSpeedup}},
			}},
		{ID: "scan.rows", Title: "Rows touched per verification batch: legacy vs vectorized (zone-skipped blocks excluded)",
			XLabel: "workload (1=clustered fig. 8, 2=tpch join)", X: x, YLabel: "rows", Series: []Series{
				{Name: "legacy", Y: []float64{float64(uleg.rows), float64(tleg.rows)}},
				{Name: "vectorized", Y: []float64{float64(uvec.rows), float64(tvec.rows)}},
			}},
		{ID: "scan.blocks", Title: "Vectorized block accounting per verification batch",
			XLabel: "workload (1=clustered fig. 8, 2=tpch join)", X: x, YLabel: "blocks", Series: []Series{
				{Name: "scanned", Y: []float64{float64(uvec.blocksScanned), float64(tvec.blocksScanned)}},
				{Name: "skipped", Y: []float64{float64(uvec.blocksSkipped), float64(tvec.blocksSkipped)}},
			}},
	}, nil
}
