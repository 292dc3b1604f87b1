package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"acquire/internal/relq"
	"acquire/internal/tpch"
)

// Parallel and sequential execution must produce identical partials,
// SUM bits included, on a table whose regions drive from long slabs.
func TestParallelMatchesSequential(t *testing.T) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 150_000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := &relq.Query{
		Tables: []string{"users"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 61},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 90000, Width: 180000},
		},
		Constraint: relq.Constraint{Func: relq.AggSum,
			Attr: relq.ColumnRef{Table: "users", Column: "spend"}, Op: relq.CmpGE, Target: 1},
	}

	seq := New(cat)
	seq.Parallelism = 1
	par := New(cat)
	par.Parallelism = 8

	for _, scores := range [][]float64{{0, 0}, {20, 10}, {60, 60}} {
		region := relq.PrefixRegion(scores)
		a, err := seq.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if a.Count != b.Count {
			t.Errorf("scores %v: counts differ %d vs %d", scores, a.Count, b.Count)
		}
		if a.Sum != b.Sum {
			t.Errorf("scores %v: sums differ %v vs %v", scores, a.Sum, b.Sum)
		}
		if a.Min != b.Min || a.Max != b.Max {
			t.Errorf("scores %v: extrema differ", scores)
		}
	}
}

// Parallel runs are deterministic: repeated executions give bit-equal
// sums (where a slab is cut depends on its length, not on scheduling).
func TestParallelDeterministic(t *testing.T) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 120_000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	e.Parallelism = 4
	q := &relq.Query{
		Tables: []string{"users"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 150000, Width: 180000},
		},
		Constraint: relq.Constraint{Func: relq.AggSum,
			Attr: relq.ColumnRef{Table: "users", Column: "spend"}, Op: relq.CmpGE, Target: 1},
	}
	region := relq.PrefixRegion([]float64{0})
	first, err := e.Aggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if again.Sum != first.Sum || again.Count != first.Count {
			t.Fatalf("run %d differs: %v/%d vs %v/%d", i, again.Sum, again.Count, first.Sum, first.Count)
		}
	}
}

// drain cancelled mid-pool: every worker is inside a task when the last
// of them cancels. drain must return the context's error with no task
// in flight, start no task after the cancellation, and leave none of
// its workers running.
func TestDrainCancelledMidway(t *testing.T) {
	const workers, n = 4, 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, inflight, late atomic.Int64
	var returned atomic.Bool
	before := runtime.NumGoroutine()
	err := drain(ctx, make([]regionScratch, workers), n, func(_ *regionScratch, _ int) error {
		if returned.Load() {
			late.Add(1)
		}
		inflight.Add(1)
		defer inflight.Add(-1)
		if started.Add(1) == workers {
			cancel()
		}
		<-ctx.Done() // each worker holds its task until the cancellation
		return nil
	})
	returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if k := inflight.Load(); k != 0 {
		t.Errorf("%d tasks still running when drain returned", k)
	}
	if k := started.Load(); k != workers {
		t.Errorf("%d tasks started, want the %d running at the cancellation", k, workers)
	}
	// The workers have signalled done; give them a bounded number of
	// scheduling points to exit.
	for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if k := runtime.NumGoroutine(); k > before {
		t.Errorf("%d goroutines before drain, %d after it returned", before, k)
	}
	if k := late.Load(); k != 0 {
		t.Errorf("%d tasks started after drain returned", k)
	}
}
