package exec_test

import (
	"context"
	"math"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

// bandJoinFixture is the refinable-join workload (supplier within a
// band of partsupp's supplier key, part equi-joined) at a scale the
// nested-loop oracle can cross, with the 4x4x4 cells of its grid plus
// two prefix regions.
func bandJoinFixture(t testing.TB, rows int, f relq.AggFunc) (*exec.Engine, *relq.Query, []relq.Region) {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{Rows: rows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := exec.New(cat)
	q, err := workload.Build(e, workload.Spec{Kind: workload.TPCH, Dims: 3, Agg: f, RefinableJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	var regions []relq.Region
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				regions = append(regions, relq.CellRegion([]int{a, b, c}, 6))
			}
		}
	}
	regions = append(regions, relq.PrefixRegion([]float64{9, 15, 21}), relq.PrefixRegion([]float64{24, 24, 24}))
	return e, q, regions
}

// TestBandJoinBatch: a band-join batch, whose build sides are sorted
// once per (table, intervals) entry and not once per region, returns
// for every region the bits of a stand-alone Aggregate and the
// nested-loop oracle's result.
func TestBandJoinBatch(t *testing.T) {
	for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum} {
		e, q, regions := bandJoinFixture(t, 400, f)
		got, err := e.AggregateBatch(context.Background(), q, regions)
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		for i, r := range regions {
			single, err := e.Aggregate(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Count != single.Count || math.Float64bits(got[i].Sum) != math.Float64bits(single.Sum) {
				t.Fatalf("%s region %v: batch %+v != Aggregate %+v", f, r, got[i], single)
			}
			naive, err := e.NaiveAggregate(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if got[i].Count != naive.Count || !agg.ApproxEqual(got[i], naive, 1e-9) {
				t.Fatalf("%s region %v: batch %+v != oracle %+v", f, r, got[i], naive)
			}
			if got[i].Count > 0 {
				matched++
			}
		}
		if matched < len(regions)/4 {
			t.Fatalf("%s: only %d of %d regions join to anything", f, matched, len(regions))
		}
	}
}

// TestBandJoinAllocsPerRegion guards the sort's move onto the entry: a
// region of a band-join batch allocates no build side of its own (at
// the parent commit, a []kv of the whole build side and a sort.Slice
// closure per region). A counter, not a timing.
func TestBandJoinAllocsPerRegion(t *testing.T) {
	e, q, regions := bandJoinFixture(t, 20000, relq.AggSum)
	e.Parallelism = 1
	ctx := context.Background()
	if _, err := e.AggregateBatch(ctx, q, regions); err != nil { // warm the tables' float views and sorted indexes
		t.Fatal(err)
	}
	perBatch := testing.AllocsPerRun(5, func() {
		if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
			t.Fatal(err)
		}
	})
	if perRegion := perBatch / float64(len(regions)); perRegion > 4 {
		t.Fatalf("%.1f allocations per region of a %d-region band-join batch (%.0f per batch), want <= 4",
			perRegion, len(regions), perBatch)
	}
}
