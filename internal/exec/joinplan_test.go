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
// for every worker count.

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
			e.Parallelism = w
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
	return jpStar(t, 200, 400, nFact)
}

// jpStar is jpStarCatalog with nA rows in dima and nB in dimb.
func jpStar(t testing.TB, nA, nB, nFact int) (*data.Catalog, *relq.Query) {
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
		if err := fact.AppendRow(data.IntValue(int64(rng.Intn(nA))), data.IntValue(int64(rng.Intn(nB))),
			data.FloatValue(rng.Float64()*100), data.FloatValue(rng.Float64()*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range []*data.Table{dim("dima", "a_key", "a_v", nA), dim("dimb", "b_key", "b_v", nB), fact} {
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
	e.Parallelism = 2
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
		cat.Replace(copyTable(t, fact))
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
		t.Fatalf("%.1f allocations per region of a %d-region join batch (%.0f per batch), want <= 4",
			perRegion, len(regions), perBatch)
	}
}

// jpExpandLayers returns the batches of an Expand sequence over d
// dimensions: layer L holds the cells u with |u|₁ = L, so a cell shares
// each of its per-table intervals with cells of its own layer and of
// every other one; each batch also gets a few of jpRegions' prefix,
// sub-query, empty and duplicate regions.
func jpExpandLayers(rng *rand.Rand, d, layers int) [][]relq.Region {
	step := 10 + 5*float64(rng.Intn(4))
	out := make([][]relq.Region, layers)
	u := make([]int, d)
	var walk func(i, left int, batch *[]relq.Region)
	walk = func(i, left int, batch *[]relq.Region) {
		if i == d-1 {
			u[i] = left
			*batch = append(*batch, relq.CellRegion(u, step))
			return
		}
		for u[i] = 0; u[i] <= left; u[i]++ {
			walk(i+1, left-u[i], batch)
		}
	}
	for l := range out {
		walk(0, l, &out[l])
		out[l] = append(out[l], jpRegions(rng, d, 3)...)
		if l > 0 {
			out[l] = append(out[l], out[l-1][rng.Intn(len(out[l-1]))])
		}
		rng.Shuffle(len(out[l]), func(i, j int) { out[l][i], out[l][j] = out[l][j], out[l][i] })
	}
	return out
}

// searchScope is WithSearchScope with step 0: a join memo and totals, and
// no grouped table for done to hand back.
func searchScope(ctx context.Context) context.Context {
	ctx, _ = WithSearchScope(ctx, 0)
	return ctx
}

// jpRun sends the batches through ev one after another, all under ctx,
// and returns the partials per batch; the first error ends the run and
// is returned with the index of the batch that raised it.
func jpRun(ctx context.Context, ev *Engine, q *relq.Query, batches [][]relq.Region) ([][]agg.Partial, int, error) {
	out := make([][]agg.Partial, len(batches))
	for k, regions := range batches {
		var err error
		if out[k], err = ev.AggregateBatch(ctx, q, regions); err != nil {
			return out, k, err
		}
	}
	return out, -1, nil
}

// TestJoinScopeEquivalence is the scope's property test: the layers of
// an Expand sequence through one scope, through a fresh scope per batch
// and region by region through Aggregate give the same bits, for every
// worker count, with the region cache cold and warm, and the
// MaxIntermediate error fires on the same batch either way.
func TestJoinScopeEquivalence(t *testing.T) {
	bg := context.Background()
	maxRows := map[int]int{2: 60, 3: 24, 4: 11}
	prefixes := 0 // non-empty attach prefixes the scopes memoized
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		nt := 2 + rng.Intn(3)
		cat := jpCatalog(t, rng, nt, maxRows[nt], -1)
		q := jpQuery(rng, nt)
		batches := jpExpandLayers(rng, len(q.Dims), 4)
		same := func(what string, got, want [][]agg.Partial) {
			t.Helper()
			for k := range want {
				for i := range want[k] {
					if !jpSameBits(got[k][i], want[k][i]) {
						t.Fatalf("seed %d (%d tables) %s: layer %d region %v: %+v != %+v",
							seed, nt, what, k, batches[k][i], got[k][i], want[k][i])
					}
				}
			}
		}

		ref := New(cat)
		base, _, err := jpRun(bg, ref, q, batches) // a fresh scope per batch
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for k, regions := range batches {
			for i, r := range regions {
				single, err := ref.Aggregate(q, r)
				if err != nil {
					t.Fatal(err)
				}
				if !jpSameBits(base[k][i], single) {
					t.Fatalf("seed %d layer %d region %v: batch %+v != Aggregate %+v", seed, k, r, base[k][i], single)
				}
				checkOracle(t, ref, fmt.Sprintf("seed %d layer %d region %v", seed, k, r), q, r, base[k][i])
			}
		}
		for _, w := range []int{1, 2, 8} {
			e := New(cat)
			e.Parallelism = w
			ctx := searchScope(bg)
			got, _, err := jpRun(ctx, e, q, batches)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("one scope, workers=%d", w), got, base)
			for _, n := range jpScopeState(ctx, e).nodes {
				if n.kept.Load() && len(n.tuples) > 0 {
					prefixes++
				}
			}
		}
		cached := New(cat)
		cached.EnableRegionCache(1 << 20)
		for _, pass := range []string{"cold", "warm"} {
			got, _, err := jpRun(searchScope(bg), cached, q, batches)
			if err != nil {
				t.Fatal(err)
			}
			same("region cache "+pass, got, base)
		}

		tight := New(cat)
		tight.MaxIntermediate = 3
		perBatch, failedAt, errBatch := jpRun(bg, tight, q, batches)
		scoped, failedAtScoped, errScoped := jpRun(searchScope(bg), tight, q, batches)
		if failedAt != failedAtScoped || (errBatch == nil) != (errScoped == nil) ||
			errBatch != nil && errBatch.Error() != errScoped.Error() {
			t.Fatalf("seed %d: MaxIntermediate=3: per batch failed at %d (%v), one scope at %d (%v)",
				seed, failedAt, errBatch, failedAtScoped, errScoped)
		}
		if errBatch != nil {
			perBatch, scoped = perBatch[:failedAt], scoped[:failedAt]
		}
		same("MaxIntermediate=3", scoped, perBatch)
	}
	if prefixes < 100 {
		t.Fatalf("the scopes memoized %d non-empty prefixes over all seeds: the suite barely reaches the prefix memo", prefixes)
	}
}

// TestJoinScopeTableChange changes a table between two batches of one
// scope in the three ways a table can change — replaced through the
// catalog at the same row count, appended to, rewritten in place and
// invalidated — and the second batch must see the new contents. A scope
// keyed by table name alone would answer it from the first batch's
// candidates.
func TestJoinScopeTableChange(t *testing.T) {
	changes := map[string]func(t *testing.T, cat *data.Catalog, e *Engine){
		"replace": func(t *testing.T, cat *data.Catalog, e *Engine) {
			old, _ := cat.Table("dima")
			repl := data.NewTable("dima", old.Schema())
			for r := 0; r < old.NumRows(); r++ {
				if err := repl.AppendRow(old.ValueAt(r, 0), data.FloatValue(float64(r%50))); err != nil {
					t.Fatal(err)
				}
			}
			cat.Replace(repl)
		},
		"append": func(t *testing.T, cat *data.Catalog, e *Engine) {
			fact, _ := cat.Table("fact")
			for i := 0; i < 500; i++ {
				if err := fact.AppendRow(data.IntValue(int64(i%40)), data.IntValue(int64(i%60)),
					data.FloatValue(float64(i%40)), data.FloatValue(1)); err != nil {
					t.Fatal(err)
				}
			}
		},
		"rewrite in place": func(t *testing.T, cat *data.Catalog, e *Engine) {
			dimb, _ := cat.Table("dimb")
			vals, _ := dimb.Floats(1)
			for i := range vals {
				vals[i] = 100 - vals[i]
			}
			e.InvalidateTable("dimb")
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			cat, q := jpStar(t, 40, 60, 800)
			regions := jpLayer()
			e := New(cat)
			ctx := searchScope(context.Background())
			before, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			change(t, cat, e)
			after, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			// Every region against an engine that never saw the old
			// contents; the nested-loop oracle (40 x 60 x 800 tuples a
			// region) on every 16th.
			fresh, changed := New(cat), false
			for i, r := range regions {
				want, err := fresh.Aggregate(q, r)
				if err != nil {
					t.Fatal(err)
				}
				if !jpSameBits(after[i], want) {
					t.Fatalf("region %v: %+v after the change, a fresh engine reads %+v", r, after[i], want)
				}
				if i%16 == 0 {
					checkOracle(t, e, fmt.Sprintf("region %v", r), q, r, after[i])
				}
				changed = changed || !jpSameBits(before[i], after[i])
			}
			if !changed {
				t.Fatal("the change moved no region's partial: the test proves nothing")
			}
		})
	}
}

// jpScopeState returns the memo e keeps under the scope ctx carries.
func jpScopeState(ctx context.Context, e *Engine) *scopeState {
	s := ctx.Value(scopeKey{}).(*joinScope)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.states[e]
}

// TestJoinScopeBudget runs nested prefix regions — the layers of a
// NoIncremental search — through one scope on a fixture sized to overrun
// its budget: what the scope retains never exceeds the budget, keys stop
// being admitted once it is spent, the partials are the ones of
// stand-alone executions, and the counters repeat exactly on a second run.
func TestJoinScopeBudget(t *testing.T) {
	cat, q := jpStarCatalog(t, 4000)
	var batches [][]relq.Region
	for l := 0; l < 14; l++ {
		var batch []relq.Region
		for a := 0; a <= l; a++ {
			for b := 0; a+b <= l; b++ {
				batch = append(batch, relq.PrefixRegion([]float64{float64(8 * a), float64(8 * b), float64(8 * (l - a - b))}))
			}
		}
		batches = append(batches, batch)
	}
	e := New(cat)
	e.Parallelism = 4
	var deltas [2]Stats
	for pass := range deltas {
		ctx := searchScope(context.Background())
		before := e.Snapshot()
		for k, regions := range batches {
			got, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			st := jpScopeState(ctx, e)
			if st.retained.Load() > st.budget {
				t.Fatalf("pass %d layer %d: the scope retains %d row ids, budget %d", pass, k, st.retained.Load(), st.budget)
			}
			for i, r := range regions {
				single, err := e.Aggregate(q, r)
				if err != nil {
					t.Fatal(err)
				}
				if !jpSameBits(got[i], single) {
					t.Fatalf("pass %d layer %d region %v: %+v != Aggregate %+v", pass, k, r, got[i], single)
				}
			}
		}
		deltas[pass] = e.Snapshot().Sub(before)
		// Every table sees 14 distinct prefixes; the scope must have run
		// out of room before the largest.
		for ti, entries := range jpScopeState(ctx, e).entries {
			if len(entries) >= len(batches) {
				t.Fatalf("the scope admitted all %d keys on table %d: the fixture does not overrun the budget", len(entries), ti)
			}
		}
	}
	if deltas[0] != deltas[1] {
		t.Fatalf("counters differ between two runs:\n%+v\n%+v", deltas[0], deltas[1])
	}
}
