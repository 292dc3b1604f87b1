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
	"acquire/internal/exec/regioncache"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// This file is the drive-shared pass's property suite: on random
// single-table batches over tables large enough for the index path,
// AggregateBatch must equal a stand-alone Aggregate of every region bit
// for bit, and the row-scan oracle within tolerance, for every worker
// count, cache state and grid configuration.

// sdValue draws a select-dimension value: small integers, so cell edges
// are hit exactly and slabs repeat, plus — on a hostile table — the
// floats scans special-case, NaN among them if nan is set.
func sdValue(rng *rand.Rand, span int, hostile, nan bool) float64 {
	switch r := rng.Intn(60); {
	case r == 0:
		return math.Copysign(0, -1)
	case r > 3 || !hostile:
	case r == 1 && nan:
		return math.NaN()
	case r == 2:
		return math.Inf(1)
	case r == 3:
		return math.Inf(-1)
	}
	return float64(rng.Intn(span))
}

// sdCatalog builds t(a, b, c, w, s) with n rows: select-dimension
// columns a and b (integers below 100) and c (continuous), a
// non-integral aggregate/filter column w — so SUM association shows in
// the low bits — and a string column s. A hostile table has ±Inf among
// its dimension values, and NaN in a, b and c (sdQuery puts a fixed
// range on a: a NaN is outside it on every access path); the grid index
// bins finite values only, so the grid configurations run on a table
// without them.
func sdCatalog(t testing.TB, seed int64, n int, hostile bool) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "a", Type: data.Float64},
		data.Column{Name: "b", Type: data.Float64},
		data.Column{Name: "c", Type: data.Float64},
		data.Column{Name: "w", Type: data.Float64},
		data.Column{Name: "s", Type: data.String},
	))
	for r := 0; r < n; r++ {
		c := rng.Float64() * 100
		if hostile && rng.Intn(80) == 0 {
			c = math.NaN()
		}
		if err := tbl.AppendRow(
			data.FloatValue(sdValue(rng, 100, hostile, true)),
			data.FloatValue(sdValue(rng, 100, hostile, true)),
			data.FloatValue(c),
			data.FloatValue(math.Floor(rng.Float64()*8000)/7),
			data.StringValue([]string{"x", "y", "z"}[rng.Intn(3)]),
		); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func sdCol(c string) relq.ColumnRef { return relq.ColumnRef{Table: "t", Column: c} }

// sdQuery draws a query over t: one to four select dimensions of
// random kinds (a column may carry two), sometimes a fixed range on w —
// now and then narrow enough to be every region's drive — or on a
// dimension's own column, sometimes a string filter, and any of the
// five aggregates.
func sdQuery(rng *rand.Rand) *relq.Query {
	q := &relq.Query{Tables: []string{"t"}}
	kinds := []relq.DimKind{relq.SelectLE, relq.SelectGE, relq.SelectEQ}
	cols := []string{"a", "b", "c"}
	for d, nd := 0, 1+rng.Intn(4); d < nd; d++ {
		q.Dims = append(q.Dims, relq.Dimension{
			Kind: kinds[rng.Intn(3)], Col: sdCol(cols[rng.Intn(3)]),
			Bound: float64(20 + rng.Intn(60)), Width: float64(40 + 10*rng.Intn(7)),
		})
	}
	switch rng.Intn(6) {
	case 0:
		q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: sdCol("w"), Lo: 100, Hi: 400 + rng.Float64()*600})
	case 1:
		q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: sdCol("w"), Lo: 500, Hi: 510})
	case 2:
		q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: sdCol("a"), Lo: 10, Hi: 45})
	}
	if rng.Intn(4) == 0 {
		q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedStringIn, Col: sdCol("s"), Values: []string{"x", "z"}})
	}
	q.Constraint = relq.Constraint{Op: relq.CmpGE, Target: 1}
	switch rng.Intn(5) {
	case 0:
		q.Constraint.Func = relq.AggCount
	case 1:
		q.Constraint.Func, q.Constraint.Attr = relq.AggSum, sdCol("w")
	case 2:
		q.Constraint.Func, q.Constraint.Attr = relq.AggMin, sdCol("w")
	case 3:
		q.Constraint.Func, q.Constraint.Attr = relq.AggMax, sdCol("w")
	default:
		q.Constraint.Func, q.Constraint.Attr = relq.AggAvg, sdCol("w")
	}
	return q
}

// sdRegions draws a batch: mostly the cells of one or two Expand layers
// (they share drives the way a search's batches do), plus sub-query and
// prefix regions, arbitrary overlapping boxes, empty regions and
// duplicates of earlier ones.
func sdRegions(rng *rand.Rand, d, n int) []relq.Region {
	step := 4 + 2*float64(rng.Intn(5))
	u := make([]int, d)
	var out []relq.Region
	for len(out) < n {
		for i := range u {
			u[i] = rng.Intn(5)
		}
		switch r := rng.Intn(14); {
		case r < 8:
			out = append(out, relq.CellRegion(u, step))
		case r < 10:
			out = append(out, relq.SubQueryRegion(u, 1+rng.Intn(d+1), step))
		case r == 10:
			scores := make([]float64, d)
			for i := range scores {
				scores[i] = rng.Float64() * 60
			}
			out = append(out, relq.PrefixRegion(scores))
		case r == 11:
			reg := make(relq.Region, d)
			for i := range reg {
				lo := rng.Float64()*30 - 5
				reg[i] = relq.ViolInterval{Lo: lo, Hi: lo + rng.Float64()*25}
			}
			out = append(out, reg)
		case r == 12:
			reg := relq.CellRegion(u, step)
			reg[rng.Intn(d)] = relq.ViolInterval{Lo: 12, Hi: 12}
			out = append(out, reg)
		case len(out) > 0:
			out = append(out, out[rng.Intn(len(out))])
		}
	}
	return out
}

// sdFixture is one table with every engine configuration the suite
// compares, built once and reused across batches so that sort indexes
// and grids are too.
type sdFixture struct {
	cat     *data.Catalog
	vec     *Engine
	workers []*Engine
	cached  *Engine
	// The grid configurations, over a table of finite values.
	finite  *Engine
	bitmap  *Engine // §7.4 bitmap grid: skips provably empty cells
	gridagg *Engine // aggregate grid: box kernel ahead of the scan stage
}

func newSDFixture(t testing.TB, seed int64, rows int) *sdFixture {
	t.Helper()
	f := &sdFixture{cat: sdCatalog(t, seed, rows, true)}
	f.vec = New(f.cat)
	for _, w := range []int{1, 2, 8} {
		e := New(f.cat)
		e.Parallelism = w
		f.workers = append(f.workers, e)
	}
	f.cached = New(f.cat)
	f.cached.SetRegionCache(regioncache.New(1 << 22))
	fin := sdCatalog(t, seed, rows, false)
	f.finite, f.bitmap, f.gridagg = New(fin), New(fin), New(fin)
	if err := f.bitmap.BuildGridIndex("t", []string{"a", "b", "c"}, 8); err != nil {
		t.Fatal(err)
	}
	if err := f.gridagg.BuildGridAggIndex("t", []string{"a", "b", "c"}, []string{"w"}, 8); err != nil {
		t.Fatal(err)
	}
	return f
}

// check runs one batch through every configuration against the
// fixture's plain engine.
func (f *sdFixture) check(t *testing.T, name string, q *relq.Query, regions []relq.Region) {
	t.Helper()
	ctx := context.Background()
	label := func(what string, i int) string {
		return fmt.Sprintf("%s %s region %d %v of %v", name, what, i, regions[i], q)
	}
	base, err := f.vec.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range regions {
		single, err := f.vec.Aggregate(q, regions[i])
		if err != nil {
			t.Fatal(err)
		}
		if !jpSameBits(base[i], single) {
			t.Fatalf("%s: batch %+v != Aggregate %+v", label("single", i), base[i], single)
		}
		checkOracle(t, f.vec, label("naive", i), q, regions[i], base[i])
	}
	same := func(what string, got []agg.Partial, bitwise bool) {
		t.Helper()
		for i := range regions {
			if bitwise && !jpSameBits(base[i], got[i]) || !agg.ApproxEqual(base[i], got[i], 1e-9) {
				t.Fatalf("%s: %+v != %+v", label(what, i), got[i], base[i])
			}
		}
	}
	for _, e := range f.workers {
		got, err := e.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("workers=%d", e.Parallelism), got, true)
	}
	for _, state := range []string{"cold cache", "warm cache"} {
		before := f.cached.Snapshot()
		got, err := f.cached.AggregateBatch(ctx, q, regions)
		if err != nil {
			t.Fatal(err)
		}
		same(state, got, true)
		d := f.cached.Snapshot().Sub(before)
		if d.CacheHits+d.CacheMisses != int64(len(regions)) || d.Queries != d.CacheMisses {
			t.Fatalf("%s %s: %d regions, stats %+v", name, state, len(regions), d)
		}
		if state == "warm cache" && d.CacheMisses != 0 {
			t.Fatalf("%s: warm batch missed %d times", name, d.CacheMisses)
		}
	}
	if base, err = f.finite.AggregateBatch(ctx, q, regions); err != nil {
		t.Fatal(err)
	}
	got, err := f.bitmap.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	same("bitmap grid", got, true)
	// The box kernel merges stored per-cell partials: SUM association
	// is its own, everything else is exact.
	got, err = f.gridagg.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	same("aggregate grid", got, false)
}

// TestSharedDriveBatchEquivalence is the property test: 204 random
// batches over three tables of 8K to 12K rows.
func TestSharedDriveBatchEquivalence(t *testing.T) {
	for fi, rows := range []int{8192, 10000, 12288} {
		f := newSDFixture(t, int64(40+fi), rows)
		for seed := 0; seed < 68; seed++ {
			rng := rand.New(rand.NewSource(int64(7000 + 100*fi + seed)))
			q := sdQuery(rng)
			regions := sdRegions(rng, len(q.Dims), 24+rng.Intn(40))
			f.check(t, fmt.Sprintf("table %d seed %d", fi, seed), q, regions)
		}
	}
}

// TestSharedDriveManyDimensions runs a query with more select
// dimensions than foldSlab buffers on its stack.
func TestSharedDriveManyDimensions(t *testing.T) {
	f := newSDFixture(t, 51, 8192)
	rng := rand.New(rand.NewSource(52))
	q := sdQuery(rng)
	q.Dims = q.Dims[:0]
	for d := 0; d < sharedDims+2; d++ {
		q.Dims = append(q.Dims, relq.Dimension{
			Kind: relq.SelectLE, Col: sdCol([]string{"a", "b", "c"}[d%3]),
			Bound: float64(30 + 5*d), Width: 60,
		})
	}
	f.check(t, "many dimensions", q, sdRegions(rng, len(q.Dims), 40))
}

// TestSharedDriveLongSlabCut pins the cut: a region whose slab holds
// more than slabCut rows folds in units of slabCut rows, one partial per
// sub-slab, merged in slab order. The batch must match Aggregate and
// that sequence of folds in every bit, next to short-slab regions of the
// same batch, at every worker count, and count the slab's rows once.
func TestSharedDriveLongSlabCut(t *testing.T) {
	const rows = 160_000
	cat := sdCatalog(t, 60, rows, true)
	q := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: sdCol("c"), Bound: 10, Width: 100},
			{Kind: relq.SelectLE, Col: sdCol("a"), Bound: 30, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: sdCol("w"), Op: relq.CmpGE, Target: 1},
	}
	// c is uniform on [0, 100): the prefix c <= 10+37 drives from about
	// 47 % of the table — an index drive of three sub-slabs.
	long := relq.PrefixRegion([]float64{37, 80})
	regions := []relq.Region{
		long,
		relq.CellRegion([]int{1, 2}, 5),
		relq.CellRegion([]int{1, 3}, 5),
		{{Lo: -1, Hi: 36.5}, {Lo: 2, Hi: 75}},
		long,
	}
	vec := New(cat)
	ctx := context.Background()

	var sc regionScratch
	b, err := vec.bind(q)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := vec.accessPath(b, long, 0, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !ac.indexed || ac.hi-ac.lo <= 2*slabCut {
		t.Fatalf("long region drives from %d rows (indexed=%v), want an index drive of more than %d", ac.hi-ac.lo, ac.indexed, 2*slabCut)
	}
	// The fold the cut defines: per sub-slab, the qualifying rows in slab
	// order from Zero; the sub-slabs' partials merged in slab order.
	var want agg.Partial
	for lo := ac.lo; lo < ac.hi; lo += slabCut {
		part := agg.Zero()
		for _, r := range ac.ix.rows[lo:min(lo+slabCut, ac.hi)] {
			in := true
			for _, sd := range b.selDims {
				v := sd.violation(sd.vec[r])
				in = in && v > long[sd.di].Lo && v <= long[sd.di].Hi
			}
			if in {
				b.spec.StepValue(&part, b.aggVec[r])
			}
		}
		if lo == ac.lo {
			want = part
		} else {
			want = agg.Merge(want, part)
		}
	}

	base, err := vec.AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	if !jpSameBits(base[0], want) {
		t.Fatalf("long region: batch %+v, sub-slab folds %+v", base[0], want)
	}
	// Traced, the batch's evaluate spans count each region once: a unit's
	// span carries its regions, a span without the attribute is a region
	// its front resolved.
	tr := obs.NewTrace("", nil)
	root := tr.NewSpan(0, "search")
	if _, err := New(cat).AggregateBatch(obs.ContextWithSpan(ctx, root), q, regions); err != nil {
		t.Fatal(err)
	}
	root.End()
	var counted int64
	for _, sp := range tr.Snapshot() {
		if sp.Name != "evaluate" {
			continue
		}
		if a, ok := sp.Attr("regions"); ok {
			counted += a.I64()
		} else {
			counted++
		}
	}
	if counted != int64(len(regions)) {
		t.Errorf("evaluate spans count %d regions, the batch has %d", counted, len(regions))
	}
	for i, r := range regions {
		single, err := vec.Aggregate(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !jpSameBits(base[i], single) {
			t.Fatalf("region %d %v: batch %+v, Aggregate %+v", i, r, base[i], single)
		}
		checkOracle(t, vec, fmt.Sprintf("region %d %v", i, r), q, r, base[i])
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
				t.Fatalf("workers=%d region %d: %+v != %+v", w, i, got[i], base[i])
			}
		}
		// Both long regions share one group: its units gather the slab
		// once between them.
		before := e.Snapshot()
		if _, err := e.AggregateBatch(ctx, q, []relq.Region{long, long}); err != nil {
			t.Fatal(err)
		}
		if d := e.Snapshot().Sub(before); d.Queries != 2 || d.RowsScanned != int64(ac.hi-ac.lo) {
			t.Fatalf("workers=%d: two long regions count %d queries and %d rows, want 2 and %d",
				w, d.Queries, d.RowsScanned, ac.hi-ac.lo)
		}
	}
}

// TestSharedDriveWrongArity: a region of the wrong arity fails the
// batch, with or without a cache, and leaves nothing behind that a
// later batch could block on.
func TestSharedDriveWrongArity(t *testing.T) {
	cat := sdCatalog(t, 61, 8192, true)
	rng := rand.New(rand.NewSource(62))
	q := sdQuery(rng)
	regions := sdRegions(rng, len(q.Dims), 30)
	bad := append(append([]relq.Region{}, regions...), make(relq.Region, len(q.Dims)+1))
	ctx := context.Background()
	ref := New(cat) // uncached: Aggregate on a cached engine would read the batch's stores back
	for _, cached := range []bool{false, true} {
		e := New(cat)
		if cached {
			e.SetRegionCache(regioncache.New(1 << 20))
		}
		for _, w := range []int{1, 4} {
			e.Parallelism = w
			if _, err := e.AggregateBatch(ctx, q, bad); err == nil {
				t.Fatalf("cached=%v workers=%d: wrong-arity region did not fail the batch", cached, w)
			}
			got, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range regions {
				want, err := ref.Aggregate(q, r)
				if err != nil {
					t.Fatal(err)
				}
				if !jpSameBits(got[i], want) {
					t.Fatalf("cached=%v workers=%d region %d: %+v != %+v", cached, w, i, got[i], want)
				}
			}
		}
	}
}

// TestSharedDriveCountersRepeat: two identical batches move the
// counters by identical amounts — one execution per region, each shared
// slab's rows once — whatever the worker count.
func TestSharedDriveCountersRepeat(t *testing.T) {
	cat := sdCatalog(t, 63, 16384, true)
	rng := rand.New(rand.NewSource(64))
	ctx := context.Background()
	for round := 0; round < 6; round++ {
		q := sdQuery(rng)
		regions := sdRegions(rng, len(q.Dims), 60)
		var want Stats
		for wi, w := range []int{1, 2, 8} {
			e := New(cat)
			e.Parallelism = w
			if _, err := e.AggregateBatch(ctx, q, regions); err != nil { // builds the sort indexes
				t.Fatal(err)
			}
			var deltas [2]Stats
			for k := range deltas {
				before := e.Snapshot()
				if _, err := e.AggregateBatch(ctx, q, regions); err != nil {
					t.Fatal(err)
				}
				deltas[k] = e.Snapshot().Sub(before)
			}
			if deltas[0] != deltas[1] {
				t.Fatalf("round %d workers=%d: %+v then %+v", round, w, deltas[0], deltas[1])
			}
			if deltas[0].Queries != int64(len(regions)) {
				t.Fatalf("round %d workers=%d: %d executions for %d regions", round, w, deltas[0].Queries, len(regions))
			}
			if wi == 0 {
				want = deltas[0]
			} else if deltas[0] != want {
				t.Fatalf("round %d: workers=%d counted %+v, workers=1 %+v", round, w, deltas[0], want)
			}
		}
		// Sharing shows in the counters: per region, Aggregate gathers
		// its whole slab.
		e := New(cat)
		var perRegion int64
		for _, r := range regions {
			if _, err := e.Aggregate(q, r); err != nil {
				t.Fatal(err)
			}
		}
		perRegion = e.Snapshot().RowsScanned
		if want.RowsScanned > perRegion {
			t.Fatalf("round %d: the batch scanned %d rows, its regions one by one %d", round, want.RowsScanned, perRegion)
		}
	}
}

// TestSharedDriveConcurrentBatches shares two engines — one with a
// region cache, one without — between 8 goroutines running overlapping
// batches while the catalog entry is being replaced: every partial must
// match the reference, whether it came from the cache or from an
// execution that raced another batch's miss of the same region. Run
// under -race.
func TestSharedDriveConcurrentBatches(t *testing.T) {
	cat := sdCatalog(t, 65, 8192, true)
	rng := rand.New(rand.NewSource(66))
	q := sdQuery(rng)
	regions := sdRegions(rng, len(q.Dims), 96)
	ctx := context.Background()
	want, err := New(cat).AggregateBatch(ctx, q, regions)
	if err != nil {
		t.Fatal(err)
	}
	plain, cached := New(cat), New(cat)
	cached.SetRegionCache(regioncache.New(1 << 22))
	tbl, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := []*Engine{plain, cached}[g%2]
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 10; round++ {
				lo := rng.Intn(len(regions) / 2)
				hi := lo + len(regions)/4 + rng.Intn(len(regions)/4)
				got, err := e.AggregateBatch(ctx, q, regions[lo:hi])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for i := range got {
					if !jpSameBits(got[i], want[lo+i]) {
						t.Errorf("goroutine %d round %d region %d: %+v != %+v", g, round, lo+i, got[i], want[lo+i])
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 12; round++ {
		cat.Replace(copyTable(t, tbl))
		if _, err := plain.AggregateBatch(ctx, q, regions); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := cached.Snapshot()
	if cs := cached.RegionCache().Stats(); cs.Hits != st.CacheHits || cs.Misses != st.CacheMisses {
		t.Errorf("cache stats %+v disagree with engine stats %+v", cs, st)
	}
}

// TestSharedDriveAllocsPerRegion guards the per-region cost of the
// single-table index path: the batch's allocations (the plan, the
// deferred keys and units, the workers' scratch) spread over its 128
// regions must stay under a small fixed count — a counter, not a
// timing. The parent commit measured 8.1 per region, this one 0.2.
func TestSharedDriveAllocsPerRegion(t *testing.T) {
	cat := sdCatalog(t, 67, 20000, true)
	q := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: sdCol("a"), Bound: 20, Width: 80},
			{Kind: relq.SelectLE, Col: sdCol("b"), Bound: 20, Width: 80},
			{Kind: relq.SelectLE, Col: sdCol("c"), Bound: 20, Width: 80},
		},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: sdCol("w"), Op: relq.CmpGE, Target: 1},
	}
	var regions []relq.Region
	for a := 0; a < 8 && len(regions) < 128; a++ {
		for b := 0; b < 8 && len(regions) < 128; b++ {
			for c := 0; c < 2; c++ {
				regions = append(regions, relq.CellRegion([]int{a, b, c + a%3}, 5))
			}
		}
	}
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
	if perRegion := perBatch / float64(len(regions)); perRegion > 2 {
		t.Fatalf("%.1f allocations per region of a %d-region single-table batch (%.0f per batch), want <= 2",
			perRegion, len(regions), perBatch)
	}
}
