package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

// This file checks §5's "every region of the data is scanned at most
// once" one level below fetchonce_test.go: on a join, the base-table
// slab behind each (table, intervals) combination is scanned once per
// search, because RunContext opens one join scope for all its batches.
// Everything here is a deterministic counter; nothing reads a clock.

// regionLog forwards to an Evaluator and records every region sent.
type regionLog struct {
	Evaluator
	regions []relq.Region
}

func (l *regionLog) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	l.regions = append(l.regions, regions...)
	return l.Evaluator.AggregateBatch(ctx, q, regions)
}

// scopePerBatch gives every batch a join scope of its own, shadowing the
// search's: the memo's lifetime before it was the search's.
type scopePerBatch struct{ Evaluator }

func (s scopePerBatch) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	ctx, done := exec.WithSearchScope(ctx, 0)
	defer done()
	return s.Evaluator.AggregateBatch(ctx, q, regions)
}

// tpchSearch is the fig. 11 COUNT skeleton over a small TPC-H catalog:
// supplier, part and partsupp with one SelectLE dimension each.
func tpchSearch(t *testing.T, rows int) (*exec.Engine, *relq.Query) {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{Rows: rows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(cat)
	q, err := workload.BuildCalibrated(e, workload.Spec{Kind: workload.TPCH, Dims: 3, Agg: relq.AggCount, Ratio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// rowsScanned runs one search and returns its result with the engine's
// RowsScanned delta, which the search's own totals must equal — unless a
// scope per batch shadows the search's, which then counts nothing.
func rowsScanned(t *testing.T, e *exec.Engine, ev Evaluator, q *relq.Query, opts Options) (*Result, int64) {
	t.Helper()
	before := e.Snapshot()
	res, err := RunContext(context.Background(), ev, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Snapshot().Sub(before)
	if _, perBatch := ev.(scopePerBatch); !perBatch && res.Engine != d {
		t.Errorf("the search's totals %+v, the engine's delta %+v", res.Engine, d)
	}
	return res, d.RowsScanned
}

// answer is r without its engine work, which a scope per batch, a scope
// restarted mid-search or a second engine changes and the answer must not.
func answer(r *Result) Result {
	c := *r
	c.Engine = exec.Stats{}
	return c
}

// slabSum replays what a join that scans each (table, intervals) key
// once must read for the regions, from the tables' columns alone. A
// region scans its tables in FROM order and stops at the first one
// without candidates, so a key counts once some region reaches it; what
// it costs is its slab, the rows whose value lies in the closed value
// interval of the region's violation interval — the sorted-index range
// the engine drives the scan from. Every dimension is SelectLE, one per
// table. A slab over half its table counts as the whole table (the
// engine scans blocks instead, skipping some) and is reported in wide:
// with any, the sum is an upper bound.
func slabSum(t *testing.T, e *exec.Engine, q *relq.Query, regions []relq.Region) (sum int64, wide int) {
	t.Helper()
	type key struct {
		table  int
		lo, hi float64
	}
	cols := make([][]float64, len(q.Tables))
	dimOf := make([]int, len(q.Tables))
	for ti, name := range q.Tables {
		tbl, err := e.Catalog().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		dimOf[ti] = -1
		for di, d := range q.Dims {
			if d.Kind != relq.SelectLE {
				t.Fatalf("dimension %d is not SelectLE", di)
			}
			if strings.EqualFold(d.Col.Table, name) {
				dimOf[ti] = di
				if cols[ti], err = tbl.NumericColumn(tbl.Schema().Ordinal(d.Col.Column)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if dimOf[ti] < 0 {
			t.Fatalf("table %s has no dimension", name)
		}
	}
	seen := make(map[key]int) // key -> candidates
	for _, r := range regions {
		for ti := range q.Tables {
			d, iv := &q.Dims[dimOf[ti]], r[dimOf[ti]]
			k := key{ti, iv.Lo, iv.Hi}
			cands, ok := seen[k]
			if !ok && iv.Hi >= 0 {
				slab := 0
				for _, v := range cols[ti] {
					if v <= d.BoundAt(iv.Hi) && (iv.Lo < 0 || v >= d.BoundAt(iv.Lo)) {
						slab++
						if d.Violation(v) <= iv.Hi {
							cands++
						}
					}
				}
				if 2*slab > len(cols[ti]) {
					slab = len(cols[ti])
					wide++
				}
				sum += int64(slab)
			}
			seen[k] = cands
			if cands == 0 {
				break
			}
		}
	}
	return sum, wide
}

// TestJoinScanOnce: a whole search over the TPC-H join reads a
// RowsScanned delta that repeats exactly, lies strictly below the same
// search with a scope per batch, and equals the slabs of the distinct
// (table, intervals) keys its regions reach — each scanned exactly once.
func TestJoinScanOnce(t *testing.T) {
	e, q := tpchSearch(t, 6000)
	opts := Options{Gamma: 12, Delta: 0.05}
	log := &regionLog{Evaluator: e}
	res, rows := rowsScanned(t, e, log, q, opts)
	if !res.Satisfied || len(log.regions) < 100 {
		t.Fatalf("satisfied=%v after %d regions: the fixture does not search", res.Satisfied, len(log.regions))
	}
	if _, again := rowsScanned(t, e, e, q, opts); again != rows {
		t.Errorf("RowsScanned %d on the first run, %d on the second", rows, again)
	}
	perBatchRes, perBatch := rowsScanned(t, e, scopePerBatch{e}, q, opts)
	if !reflect.DeepEqual(answer(res), answer(perBatchRes)) {
		t.Errorf("result differs with a scope per batch:\n%+v\n%+v", res, perBatchRes)
	}
	if rows >= perBatch {
		t.Errorf("RowsScanned %d with one scope, %d with a scope per batch: want strictly fewer", rows, perBatch)
	}
	if want, wide := slabSum(t, e, q, log.regions); rows != want || wide > 0 {
		t.Errorf("RowsScanned %d, the distinct (table, intervals) slabs of the search hold %d rows (%d over half a table)", rows, want, wide)
	}
}

// TestContractionCountsItsWork: a contraction search (COUNT(*) <=, §7.2),
// on one table and on the TPC-H join, reports in Result.Engine the
// engine's movement over the same search run alone: one execution per
// candidate it evaluated.
func TestContractionCountsItsWork(t *testing.T) {
	line := lineTable(t, 100)
	lineQ := countQ(20, leDim(60))
	join, joinQ := tpchSearch(t, 3000)
	for _, c := range []struct {
		name string
		e    *exec.Engine
		q    *relq.Query
	}{{"one table", line, lineQ}, {"join", join, joinQ}} {
		orig, err := c.e.Aggregate(c.q, relq.PrefixRegion(make([]float64, len(c.q.Dims))))
		if err != nil {
			t.Fatal(err)
		}
		c.q.Constraint.Op, c.q.Constraint.Target = relq.CmpLE, float64(orig.Count/2)
		res, _ := rowsScanned(t, c.e, c.e, c.q, Options{Gamma: 12, Delta: 0.05})
		if res.Engine.Queries == 0 || res.Engine.Queries != int64(res.CellQueries) {
			t.Errorf("%s: %d executions for %d candidates evaluated", c.name, res.Engine.Queries, res.CellQueries)
		}
	}
}

// TestJoinScopeOverrun: a NoIncremental search sends nested prefix
// regions, whose slabs add up to many times the tables; the scope stops
// admitting when its budget is spent (RowsScanned rises above scan-once)
// and the search still returns the result of a scope per batch, with
// counters that repeat.
func TestJoinScopeOverrun(t *testing.T) {
	e, q := tpchSearch(t, 6000)
	opts := Options{Gamma: 12, Delta: 0.05, NoIncremental: true}
	log := &regionLog{Evaluator: e}
	res, rows := rowsScanned(t, e, log, q, opts)
	if _, again := rowsScanned(t, e, e, q, opts); again != rows {
		t.Errorf("RowsScanned %d on the first run, %d on the second", rows, again)
	}
	perBatchRes, perBatch := rowsScanned(t, e, scopePerBatch{e}, q, opts)
	if !reflect.DeepEqual(answer(res), answer(perBatchRes)) {
		t.Errorf("result differs with a scope per batch:\n%+v\n%+v", res, perBatchRes)
	}
	if rows >= perBatch {
		t.Errorf("RowsScanned %d with one scope, %d with a scope per batch: want strictly fewer", rows, perBatch)
	}
	if once, _ := slabSum(t, e, q, log.regions); rows <= once {
		t.Errorf("RowsScanned %d is scan-once (%d): the fixture does not overrun the scope's budget", rows, once)
	}
}

// twinScope sends every batch to a second engine over another catalog
// as well, concurrently and under the same context — so both engines
// read one join scope at once — and checks each engine's partials
// against its own Aggregate.
type twinScope struct {
	*exec.Engine
	twin *exec.Engine
	t    *testing.T
}

func (w twinScope) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	var twin []agg.Partial
	var twinErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		twin, twinErr = w.twin.AggregateBatch(ctx, q, regions)
	}()
	got, err := w.Engine.AggregateBatch(ctx, q, regions)
	<-done
	if err != nil || twinErr != nil {
		return nil, errors.Join(err, twinErr)
	}
	for _, side := range []struct {
		e   *exec.Engine
		got []agg.Partial
	}{{w.Engine, got}, {w.twin, twin}} {
		for i, r := range regions {
			single, err := side.e.Aggregate(q, r)
			if err != nil {
				return nil, err
			}
			if side.got[i] != single {
				w.t.Errorf("region %v under a shared scope: batch %+v != Aggregate %+v", r, side.got[i], single)
			}
		}
	}
	return got, nil
}

// TestJoinScopeConcurrentSearches runs whole searches from eight
// goroutines on one shared engine, each under the scope its RunContext
// opened, while the catalog keeps replacing a table (same rows, new
// identity, so scopes restart mid-search), and one more search whose
// batches also go to a second engine over another catalog under the
// same scope, so two engines keep their own state in it at once. Every
// search must return the result of an undisturbed one. Run with -race.
func TestJoinScopeConcurrentSearches(t *testing.T) {
	e, q := tpchSearch(t, 3000)
	e.Parallelism = 2
	opts := Options{Gamma: 12, Delta: 0.05}
	want, err := Run(e, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	cat := e.Catalog()
	other, _ := tpchSearch(t, 2000)
	twin := twinScope{Engine: e, twin: other, t: t}
	search := func(ev Evaluator, rounds int) {
		for r := 0; r < rounds; r++ {
			got, err := RunContext(context.Background(), ev, q, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(answer(got), answer(want)) {
				t.Errorf("round %d: result differs from the undisturbed search:\n%+v\n%+v", r, got, want)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search(e, 3)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		search(twin, 2)
	}()
	part, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 20; r++ {
		cat.Replace(copyTable(t, part))
		if _, err := RunContext(context.Background(), e, q, opts); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// copyTable returns a new table with t's name, schema and rows: to a
// catalog Replace it is a different table with the same contents.
func copyTable(tb testing.TB, t *data.Table) *data.Table {
	tb.Helper()
	out := data.NewTable(t.Name(), t.Schema())
	vals := make([]data.Value, t.Schema().Len())
	for r := 0; r < t.NumRows(); r++ {
		for c := range vals {
			vals[c] = t.ValueAt(r, c)
		}
		if err := out.AppendRow(vals...); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}
