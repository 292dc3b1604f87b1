package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/histogram"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// samePartial reports bit-identity (not approximate equality): the
// determinism contract is that worker count must not change a single
// bit of any partial.
func samePartial(a, b agg.Partial) bool {
	return a.Count == b.Count &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		math.Float64bits(a.User) == math.Float64bits(b.User)
}

// aggQ builds a one-dimensional query over lineTable with the given
// constraint aggregate (v is the attribute for SUM/MIN/MAX/AVG).
func aggQ(f relq.AggFunc, op relq.CmpOp, target float64) *relq.Query {
	c := relq.Constraint{Func: f, Op: op, Target: target}
	if f != relq.AggCount {
		c.Attr = relq.ColumnRef{Table: "t", Column: "v"}
	}
	return &relq.Query{Tables: []string{"t"}, Dims: []relq.Dimension{leDim(10)}, Constraint: c}
}

// AggregateBatch must return bit-identical partials for every worker
// count, on every evaluation layer and aggregate. The 70K-row table
// crosses the engine's intra-region parallel threshold, so both the
// across-regions pool and the within-region fold are exercised.
func TestAggregateBatchDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("70K-row table")
	}
	e := lineTable(t, 70000)
	ctx := context.Background()

	regions := make([]relq.Region, 0, 16)
	for u := 0; u < 16; u++ {
		regions = append(regions, relq.PrefixRegion([]float64{float64(u)}))
	}

	aggs := []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMin, relq.AggMax, relq.AggAvg}
	for _, f := range aggs {
		q := aggQ(f, relq.CmpGE, 1)

		// Exact layer.
		e.Parallelism = 1
		serial, err := e.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatalf("%s serial: %v", f, err)
		}
		// The batch must agree with one-at-a-time Aggregate calls.
		for i, r := range regions {
			p, err := e.Aggregate(q, r)
			if err != nil {
				t.Fatalf("%s Aggregate: %v", f, err)
			}
			if !samePartial(serial[i], p) {
				t.Fatalf("%s region %d: batch %+v != Aggregate %+v", f, i, serial[i], p)
			}
		}
		for _, w := range []int{2, 4, 8} {
			e.Parallelism = w
			got, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatalf("%s w=%d: %v", f, w, err)
			}
			for i := range got {
				if !samePartial(got[i], serial[i]) {
					t.Errorf("%s w=%d region %d: %+v != serial %+v", f, w, i, got[i], serial[i])
				}
			}
		}
		e.Parallelism = 0

		// Sampling layer (extrapolated partials must be deterministic
		// too — the sample membership is seed-fixed, not scheduling
		// dependent).
		sampled, err := exec.NewSampled(e.Catalog(), 0.2, 7)
		if err != nil {
			t.Fatal(err)
		}
		sampled.Parallelism = 1
		sSerial, err := sampled.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatalf("%s sampled serial: %v", f, err)
		}
		sampled.Parallelism = 4
		sPar, err := sampled.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatalf("%s sampled w=4: %v", f, err)
		}
		for i := range sPar {
			if !samePartial(sPar[i], sSerial[i]) {
				t.Errorf("%s sampled w=4 region %d: %+v != serial %+v", f, i, sPar[i], sSerial[i])
			}
		}
	}

	// Histogram layer (COUNT only): batch must agree with per-region
	// estimation and with itself across calls.
	hist, err := histogram.NewEvaluator(e.Catalog(), 64)
	if err != nil {
		t.Fatal(err)
	}
	q := aggQ(relq.AggCount, relq.CmpGE, 1)
	h1, err := hist.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatalf("histogram batch: %v", err)
	}
	h2, err := hist.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range regions {
		p, err := hist.Aggregate(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !samePartial(h1[i], p) || !samePartial(h1[i], h2[i]) {
			t.Errorf("histogram region %d not deterministic: %+v / %+v / %+v", i, h1[i], h2[i], p)
		}
	}
}

// sameResult asserts two refinement results are identical: same
// satisfied/best, the same refined-query list bit-for-bit, and the same
// work accounting — in particular CellQueries, the §5 scan-at-most-once
// invariant the batched driver must preserve.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Satisfied != b.Satisfied || a.Explored != b.Explored {
		t.Fatalf("%s: satisfied/explored differ: %v/%d vs %v/%d",
			label, a.Satisfied, a.Explored, b.Satisfied, b.Explored)
	}
	if a.CellQueries != b.CellQueries {
		t.Errorf("%s: cell queries differ: %d vs %d (scan-at-most-once violated)",
			label, a.CellQueries, b.CellQueries)
	}
	if a.StoredPoints != b.StoredPoints {
		t.Errorf("%s: stored points differ: %d vs %d", label, a.StoredPoints, b.StoredPoints)
	}
	if len(a.Queries) != len(b.Queries) {
		t.Fatalf("%s: query counts differ: %d vs %d", label, len(a.Queries), len(b.Queries))
	}
	for i := range a.Queries {
		qa, qb := a.Queries[i], b.Queries[i]
		if math.Float64bits(qa.Aggregate) != math.Float64bits(qb.Aggregate) ||
			math.Float64bits(qa.QScore) != math.Float64bits(qb.QScore) {
			t.Errorf("%s: query %d differs: %+v vs %+v", label, i, qa, qb)
		}
		for d := range qa.Scores {
			if math.Float64bits(qa.Scores[d]) != math.Float64bits(qb.Scores[d]) {
				t.Errorf("%s: query %d score %d differs: %v vs %v", label, i, d, qa.Scores[d], qb.Scores[d])
			}
		}
	}
	ba, bb := a.Best, b.Best
	if (ba == nil) != (bb == nil) {
		t.Fatalf("%s: best presence differs", label)
	}
	if ba != nil && math.Float64bits(ba.Aggregate) != math.Float64bits(bb.Aggregate) {
		t.Errorf("%s: best aggregate differs: %v vs %v", label, ba.Aggregate, bb.Aggregate)
	}
}

// The refined-query output of a whole search must be identical whether
// the evaluation layer runs the layer batches serially or on a worker
// pool — the tentpole's semantics-preservation claim, across aggregates
// and evaluation layers.
func TestRefineDeterministicSerialVsParallel(t *testing.T) {
	e := lineTable(t, 4000)

	cases := []struct {
		name string
		q    *relq.Query
	}{
		{"count-eq", countQ(300, leDim(10))},
		{"count-2d", countQ(500, leDim(10), relq.Dimension{
			Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "v"}, Bound: 2, Width: 7,
		})},
		{"sum-ge", aggQ(relq.AggSum, relq.CmpGE, 900)},
		{"min-eq", aggQ(relq.AggMin, relq.CmpEQ, 0)},
		{"max-ge", aggQ(relq.AggMax, relq.CmpGE, 6)},
		{"avg-ge", aggQ(relq.AggAvg, relq.CmpGE, 3)},
	}
	for _, tc := range cases {
		e.Parallelism = 1
		serial, err := Run(e, tc.q, Options{Gamma: 10, Delta: 0.01})
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		for _, w := range []int{2, 4} {
			e.Parallelism = w
			par, err := Run(e, tc.q, Options{Gamma: 10, Delta: 0.01})
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, w, err)
			}
			sameResult(t, tc.name, serial, par)
		}
		e.Parallelism = 0
	}

	// Sampling layer drives the same search machinery; its searches must
	// be equally worker-count independent.
	sampled, err := exec.NewSampled(e.Catalog(), 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	sampled.Parallelism = 1
	serial, err := Run(sampled, countQ(300, leDim(10)), Options{Gamma: 10, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sampled.Parallelism = 4
	par, err := Run(sampled, countQ(300, leDim(10)), Options{Gamma: 10, Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "sampled", serial, par)
}

// cancelEval cancels the search's context once its n-th batch has
// returned, and counts the batches in flight.
type cancelEval struct {
	*exec.Engine
	n        int64
	cancel   context.CancelFunc
	batches  atomic.Int64
	inflight atomic.Int64
}

func (c *cancelEval) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	parts, err := c.Engine.AggregateBatch(ctx, q, regions)
	if c.batches.Add(1) == c.n {
		c.cancel()
	}
	return parts, err
}

// Cancellation mid-refinement must return with the context's error and
// the partial result found so far, and leave none of the evaluation
// layer's work running: every batch the search sent has returned by
// the time the search does, and the batches' worker goroutines exit.
func TestRunContextCancellation(t *testing.T) {
	e := lineTable(t, 2000)
	e.Parallelism = 4
	// Deep search: target near the table's edge with a fine grid.
	q := countQ(1900, leDim(10))
	opts := Options{Gamma: 2, Delta: 0.001}
	full, err := Run(e, q, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &cancelEval{Engine: e, n: 3, cancel: cancel}
	before := runtime.NumGoroutine()
	res, err := RunContext(ctx, ev, q, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if n := ev.inflight.Load(); n != 0 {
		t.Errorf("%d batches still running after the search returned", n)
	}
	// Each pool has signalled done before its batch returned; its
	// workers get a bounded number of scheduling points to exit.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after cancellation", before, n)
	}
	if res.Explored == 0 || res.Explored >= full.Explored {
		t.Errorf("cancelled after %d batches: explored %d, the whole search %d", ev.n, res.Explored, full.Explored)
	}

	// A pre-expired deadline is reported as such.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := RunContext(dctx, e, q, Options{Gamma: 2, Delta: 0.001}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// Contraction searches honour cancellation too.
func TestContractContextCancellation(t *testing.T) {
	e := lineTable(t, 500)
	q := &relq.Query{
		Tables:     []string{"t"},
		Dims:       []relq.Dimension{leDim(400)},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 10},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &cancelEval{Engine: e, n: 2, cancel: cancel}
	res, err := RunContext(ctx, ev, q, Options{Gamma: 1, Delta: 0.001})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled contraction returned no partial result")
	}
}

// A context cancelled between two §6 probes stops the repartition before
// the next probe is sent and returns the partial result with the
// context's error.
func TestRepartitionCancelledBetweenProbes(t *testing.T) {
	e := lineTable(t, 1000)
	// Step 10: the origin counts 10, the next grid point 20, and the
	// first probe, 5 score units out, 15 — not yet 17±1 %. The second
	// probe would be the answer.
	q := countQ(17, leDim(10))
	opts := Options{Gamma: 10, Delta: 0.01,
		Observer: obs.NewObserver(nil).WithRecorder(obs.NewFlightRecorder(obs.RecorderConfig{}))}
	if res, err := Run(e, q, opts); err != nil || !res.Satisfied || res.CellQueries != 4 {
		t.Fatalf("uncancelled: %+v, %v; want an answer on the second probe", res, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel as soon as the evaluation layer has answered the first probe.
	log := &fetchLog{Evaluator: e, afterProbe: cancel}
	res, err := RunContext(ctx, log, q, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Satisfied || res.Explored != 2 || res.CellQueries != 3 || res.Closest == nil {
		t.Errorf("partial result %+v, want 2 explored, 2 cells + 1 probe, the closest grid query", res)
	}
	if len(log.explore) != 2 || len(log.open) != 1 {
		t.Errorf("%d cells and %d probes reached the evaluation layer, want 2 and 1: no probe after the cancellation", len(log.explore), len(log.open))
	}
}
