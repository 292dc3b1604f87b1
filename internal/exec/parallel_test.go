package exec

import (
	"math"
	"testing"

	"acquire/internal/relq"
	"acquire/internal/tpch"
)

func TestChunks(t *testing.T) {
	cases := []struct {
		n, k, want int
	}{
		{10, 3, 3}, {3, 10, 3}, {0, 4, 0}, {100, 1, 1},
	}
	for _, c := range cases {
		parts := chunks(c.n, c.k)
		if len(parts) != c.want {
			t.Errorf("chunks(%d,%d) = %d parts, want %d", c.n, c.k, len(parts), c.want)
		}
		// Parts must tile [0, n) exactly.
		next := 0
		for _, p := range parts {
			if p[0] != next || p[1] <= p[0] {
				t.Fatalf("chunks(%d,%d): bad part %v", c.n, c.k, p)
			}
			next = p[1]
		}
		if c.n > 0 && next != c.n {
			t.Errorf("chunks(%d,%d) ends at %d", c.n, c.k, next)
		}
	}
}

// Parallel and sequential execution must produce identical counts and
// near-identical sums (chunked float association) on a table large
// enough to trigger fan-out.
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
		if math.Abs(a.Sum-b.Sum) > 1e-6*(1+math.Abs(a.Sum)) {
			t.Errorf("scores %v: sums differ %v vs %v", scores, a.Sum, b.Sum)
		}
		if a.Min != b.Min || a.Max != b.Max {
			t.Errorf("scores %v: extrema differ", scores)
		}
	}
}

// Parallel runs are deterministic: repeated executions give bit-equal
// sums (chunk layout is fixed by Parallelism, not scheduling).
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
