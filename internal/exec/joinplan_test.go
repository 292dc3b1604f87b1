package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// This file is the batch plan's property suite: on random join graphs
// and random batches, AggregateBatch through the plan's memo must equal
// a stand-alone Aggregate of every region and the nested-loop oracle,
// for every worker and shard count.

// jpKey draws a join key: a small domain so keys repeat on both sides
// (N:M), plus the values the key structures special-case.
func jpKey(rng *rand.Rand, halves bool) float64 {
	switch r := rng.Intn(40); r {
	case 0:
		return math.NaN()
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	}
	k := float64(rng.Intn(9))
	if halves && rng.Intn(2) == 0 {
		k += 0.5 // non-integral keys force the hash-mode build
	}
	return k
}

// jpCatalog builds nt tables t0..t{nt-1}(k0, k1, v, w, s): two key
// columns, a select-dimension column v with NaN/±Inf rows, a finite
// aggregate/filter column w and a string column s. Table `empty` (if
// >= 0) gets no rows.
func jpCatalog(t testing.TB, rng *rand.Rand, nt, maxRows, empty int) *data.Catalog {
	t.Helper()
	cat := data.NewCatalog()
	halves := rng.Intn(3) == 0
	for ti := 0; ti < nt; ti++ {
		tbl := data.NewTable(fmt.Sprintf("t%d", ti), data.MustSchema(
			data.Column{Name: "k0", Type: data.Float64},
			data.Column{Name: "k1", Type: data.Float64},
			data.Column{Name: "v", Type: data.Float64},
			data.Column{Name: "w", Type: data.Float64},
			data.Column{Name: "s", Type: data.String},
		))
		n := 1 + rng.Intn(maxRows)
		if ti == empty {
			n = 0
		}
		for r := 0; r < n; r++ {
			v := math.Floor(rng.Float64() * 100)
			switch rng.Intn(30) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1)
			case 2:
				v = math.Inf(-1)
			}
			if err := tbl.AppendRow(
				data.FloatValue(jpKey(rng, halves)),
				data.FloatValue(jpKey(rng, halves)),
				data.FloatValue(v),
				data.FloatValue(math.Floor(rng.Float64()*1000)/8),
				data.StringValue([]string{"a", "b", "c"}[rng.Intn(3)]),
			); err != nil {
				t.Fatal(err)
			}
		}
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func jpCol(ti int, col string) relq.ColumnRef {
	return relq.ColumnRef{Table: fmt.Sprintf("t%d", ti), Column: col}
}

// jpQuery draws a query over t0..t{nt-1}: a star, chain or cyclic
// equi-join graph (occasionally with one edge turned into a refinable
// band or dropped, leaving a cartesian attach), one select dimension
// per table, and fixed range and string filters on random tables.
func jpQuery(rng *rand.Rand, nt int) *relq.Query {
	q := &relq.Query{}
	for ti := 0; ti < nt; ti++ {
		q.Tables = append(q.Tables, fmt.Sprintf("t%d", ti))
	}
	type edge struct{ l, r relq.ColumnRef }
	var edges []edge
	shape := rng.Intn(3)
	for ti := 1; ti < nt; ti++ {
		if shape == 0 { // star around t0
			edges = append(edges, edge{jpCol(0, "k0"), jpCol(ti, "k0")})
		} else { // chain
			edges = append(edges, edge{jpCol(ti-1, "k1"), jpCol(ti, "k0")})
		}
	}
	if shape == 2 && nt > 2 { // close the cycle
		edges = append(edges, edge{jpCol(nt-1, "k1"), jpCol(0, "k0")})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	special := rng.Intn(8) // 0: one band edge, 1: one dropped edge
	for i, e := range edges {
		switch {
		case i == 0 && special == 0:
			q.Dims = append(q.Dims, relq.Dimension{Kind: relq.JoinBand, Left: e.l, Right: e.r, Base: 0, Width: 100})
		case i == 0 && special == 1:
		default:
			p := relq.FixedPred{Kind: relq.FixedEquiJoin, Left: e.l, Right: e.r}
			if rng.Intn(5) == 0 {
				p.LCoef, p.RCoef = 2, 2
			}
			q.Fixed = append(q.Fixed, p)
		}
	}
	kinds := []relq.DimKind{relq.SelectLE, relq.SelectGE, relq.SelectEQ}
	for ti := 0; ti < nt; ti++ {
		q.Dims = append(q.Dims, relq.Dimension{
			Kind: kinds[rng.Intn(3)], Col: jpCol(ti, "v"),
			Bound: math.Floor(20 + rng.Float64()*60), Width: 100,
		})
		if rng.Intn(3) == 0 {
			q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: jpCol(ti, "w"), Lo: 10, Hi: 60 + rng.Float64()*60})
		}
		if rng.Intn(4) == 0 {
			q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedStringIn, Col: jpCol(ti, "s"), Values: []string{"a", "c"}})
		}
	}
	attr := jpCol(rng.Intn(nt), "w")
	q.Constraint = relq.Constraint{Op: relq.CmpGE, Target: 1}
	switch rng.Intn(5) {
	case 0:
		q.Constraint.Func = relq.AggCount
	case 1:
		q.Constraint.Func, q.Constraint.Attr = relq.AggSum, attr
	case 2:
		q.Constraint.Func, q.Constraint.Attr = relq.AggMin, attr
	case 3:
		q.Constraint.Func, q.Constraint.Attr = relq.AggMax, attr
	default:
		q.Constraint.Func, q.Constraint.Attr = relq.AggAvg, attr
	}
	return q
}

// jpRegions draws a batch: cells of a small grid (so regions share
// their per-table intervals), sub-query and prefix regions, empty
// regions, and duplicates of earlier ones.
func jpRegions(rng *rand.Rand, d, n int) []relq.Region {
	step := 10 + 5*float64(rng.Intn(4))
	u := make([]int, d)
	var out []relq.Region
	for len(out) < n {
		for i := range u {
			u[i] = rng.Intn(4)
		}
		switch r := rng.Intn(12); {
		case r < 7:
			out = append(out, relq.CellRegion(u, step))
		case r < 9:
			out = append(out, relq.SubQueryRegion(u, 1+rng.Intn(d+1), step))
		case r == 9:
			scores := make([]float64, d)
			for i := range scores {
				scores[i] = rng.Float64() * 90
			}
			out = append(out, relq.PrefixRegion(scores))
		case r == 10:
			reg := relq.CellRegion(u, step)
			reg[rng.Intn(d)] = relq.ViolInterval{Lo: 30, Hi: 30}
			out = append(out, reg)
		case len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		}
	}
	return out
}

func jpSameBits(a, b agg.Partial) bool {
	return a.Count == b.Count &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max) &&
		math.Float64bits(a.User) == math.Float64bits(b.User)
}

// TestJoinPlanBatchEquivalence is the property test: 240 random
// batches over 2-4-table join graphs.
func TestJoinPlanBatchEquivalence(t *testing.T) {
	ctx := context.Background()
	maxRows := map[int]int{2: 60, 3: 24, 4: 11} // keeps the nested-loop oracle's cross product small
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		nt := 2 + rng.Intn(3)
		empty := -1
		if rng.Intn(12) == 0 {
			empty = rng.Intn(nt)
		}
		cat := jpCatalog(t, rng, nt, maxRows[nt], empty)
		q := jpQuery(rng, nt)
		regions := jpRegions(rng, len(q.Dims), 24+rng.Intn(24))
		label := func(what string, i int) string {
			return fmt.Sprintf("seed %d (%d tables) %s region %d %v", seed, nt, what, i, regions[i])
		}

		vec := New(cat)
		base, err := vec.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		overflows := false // some region joins to more than 3 tuples
		for i := range regions {
			single, err := vec.Aggregate(q, regions[i])
			if err != nil {
				t.Fatal(err)
			}
			if !jpSameBits(base[i], single) {
				t.Fatalf("%s: batch %+v != Aggregate %+v", label("single", i), base[i], single)
			}
			checkOracle(t, vec, label("naive", i), q, regions[i], base[i])
			overflows = overflows || base[i].Count > 3
		}
		for _, w := range []int{1, 2, 8} {
			e := New(cat)
			e.SetParallelism(w)
			got, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range regions {
				if !jpSameBits(base[i], got[i]) {
					t.Fatalf("%s: %+v != %+v", label(fmt.Sprintf("workers=%d", w), i), got[i], base[i])
				}
			}
		}
		for shards := 1; shards <= 4; shards++ {
			sv, err := NewSharded(cat, shards)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sv.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range regions {
				// One shard is the identity fold; more re-associate SUM
				// across shard boundaries and nothing else.
				if shards == 1 && !jpSameBits(base[i], got[i]) || !agg.ApproxEqual(base[i], got[i], 1e-9) {
					t.Fatalf("%s: %+v != %+v", label(fmt.Sprintf("shards=%d", shards), i), got[i], base[i])
				}
			}
		}

		// A tight intermediate bound: a region with more than three
		// qualifying tuples joined to more than three, so the batch must
		// fail, and only with the overflow error; a batch that stays
		// under the bound is unchanged.
		vec.MaxIntermediate = 3
		tight, err := vec.AggregateBatch(ctx, q, regions)
		switch {
		case err == nil && overflows:
			t.Fatalf("seed %d: MaxIntermediate=3: no error from a batch that joins to more than 3 tuples", seed)
		case err != nil && err.Error() != "exec: intermediate join result exceeds 3 tuples":
			t.Fatalf("seed %d: MaxIntermediate=3: %v", seed, err)
		case err == nil:
			for i := range regions {
				if !jpSameBits(base[i], tight[i]) {
					t.Fatalf("%s: %+v != %+v", label("MaxIntermediate=3", i), tight[i], base[i])
				}
			}
		}
	}
}

// jpStarCatalog is a fixed three-table star for the concurrency and
// allocation tests: fact(f_a, f_b, f_v, f_w) joins dima(a_key, a_v) and
// dimb(b_key, b_v).
func jpStarCatalog(t testing.TB, nFact int) (*data.Catalog, *relq.Query) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	cat := data.NewCatalog()
	dim := func(name, key, val string, n int) *data.Table {
		tbl := data.NewTable(name, data.MustSchema(
			data.Column{Name: key, Type: data.Int64},
			data.Column{Name: val, Type: data.Float64},
		))
		for i := 0; i < n; i++ {
			if err := tbl.AppendRow(data.IntValue(int64(i)), data.FloatValue(rng.Float64()*100)); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	fact := data.NewTable("fact", data.MustSchema(
		data.Column{Name: "f_a", Type: data.Int64},
		data.Column{Name: "f_b", Type: data.Int64},
		data.Column{Name: "f_v", Type: data.Float64},
		data.Column{Name: "f_w", Type: data.Float64},
	))
	for i := 0; i < nFact; i++ {
		if err := fact.AppendRow(data.IntValue(int64(rng.Intn(200))), data.IntValue(int64(rng.Intn(400))),
			data.FloatValue(rng.Float64()*100), data.FloatValue(rng.Float64()*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []*data.Table{dim("dima", "a_key", "a_v", 200), dim("dimb", "b_key", "b_v", 400), fact} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	le := func(tbl, col string) relq.Dimension {
		return relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: tbl, Column: col}, Bound: 20, Width: 100}
	}
	q := &relq.Query{
		Tables: []string{"dima", "dimb", "fact"},
		Dims:   []relq.Dimension{le("dima", "a_v"), le("dimb", "b_v"), le("fact", "f_v")},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin, Left: relq.ColumnRef{Table: "dima", Column: "a_key"}, Right: relq.ColumnRef{Table: "fact", Column: "f_a"}},
			{Kind: relq.FixedEquiJoin, Left: relq.ColumnRef{Table: "dimb", Column: "b_key"}, Right: relq.ColumnRef{Table: "fact", Column: "f_b"}},
		},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "fact", Column: "f_w"}, Op: relq.CmpGE, Target: 1},
	}
	return cat, q
}

// jpLayer returns the 128 cells u in {0..7}x{0..3}x{0..3} of the star
// query's grid.
func jpLayer() []relq.Region {
	var out []relq.Region
	for a := 0; a < 8; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				out = append(out, relq.CellRegion([]int{a, b, c}, 8))
			}
		}
	}
	return out
}

// TestJoinPlanConcurrentBatchesUnderReplace batches from 8 goroutines
// on one engine while the catalog replaces the fact table (same rows,
// new *Table identity) between
// batches. Every batch binds one identity or the other and must return
// the same partials. Run with -race.
func TestJoinPlanConcurrentBatchesUnderReplace(t *testing.T) {
	cat, q := jpStarCatalog(t, 4000)
	regions := jpLayer()
	e := New(cat)
	e.SetParallelism(2)
	ctx := context.Background()
	want, err := e.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	fact, err := cat.Table("fact")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				got, err := e.AggregateBatch(ctx, q, regions)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if !jpSameBits(got[i], want[i]) {
						t.Errorf("round %d region %d: %+v != %+v", round, i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 12; round++ {
		cat.Replace(fact.Slice(0, fact.NumRows()))
		if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestJoinPlanAllocsPerRegion guards the point of the plan: a region of
// a join batch allocates nothing table- or span-sized of its own. The
// batch's allocations (the plan, one scan and one build per distinct
// per-table interval, the worker's scratch) spread over its 128
// regions must stay under a small fixed count — a counter, not a
// timing. The parent commit measured 52 per region, this one 1.5.
func TestJoinPlanAllocsPerRegion(t *testing.T) {
	cat, q := jpStarCatalog(t, 20000)
	regions := jpLayer()
	e := New(cat)
	e.SetParallelism(1)
	ctx := context.Background()
	if _, err := e.AggregateBatch(ctx, q, regions); err != nil { // warm the column and sort-index caches
		t.Fatal(err)
	}
	perBatch := testing.AllocsPerRun(5, func() {
		if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
			t.Fatal(err)
		}
	})
	if perRegion := perBatch / float64(len(regions)); perRegion > 4 {
		t.Fatalf("%.1f allocations per region of a %d-region join batch (%.0f per batch), want <= 4",
			perRegion, len(regions), perBatch)
	}
}
