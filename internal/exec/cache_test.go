package exec

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/relq"
)

func priceQuery() *relq.Query {
	return countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 500, Width: 2000,
	}, relq.Dimension{
		Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "part", Column: "p_size"},
		Bound: 25, Width: 50,
	})
}

// randomRegions draws n distinct cells from a 10x10 grid, so a cold
// batch's misses are exactly its regions.
func randomRegions(rng *rand.Rand, n int) []relq.Region {
	cells := rng.Perm(100)[:n]
	regions := make([]relq.Region, n)
	for i, c := range cells {
		lo1 := float64(c/10) * 2.5
		lo2 := float64(c%10) * 2.5
		regions[i] = relq.Region{
			{Lo: lo1 - 2.5, Hi: lo1},
			{Lo: lo2 - 2.5, Hi: lo2},
		}
	}
	return regions
}

// A repeated batch is answered entirely from the cache: Queries does
// not move, CacheHits covers every region, and the partials are
// byte-identical to the cold run.
func TestRegionCacheHits(t *testing.T) {
	e := New(smallCatalog(t, 10, 400, 3))
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(7)), 20)

	cold, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	st1 := e.Snapshot()
	if st1.CacheMisses == 0 || st1.CacheHits != 0 {
		t.Fatalf("cold run stats = %+v", st1)
	}

	warm, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	st2 := e.Snapshot()
	if st2.Queries != st1.Queries {
		t.Errorf("warm run executed %d queries, want 0", st2.Queries-st1.Queries)
	}
	if got := st2.CacheHits - st1.CacheHits; got != int64(len(regions)) {
		t.Errorf("warm run hits = %d, want %d", got, len(regions))
	}
	for i := range cold {
		if warm[i] != cold[i] {
			t.Fatalf("region %d: warm partial %+v != cold %+v", i, warm[i], cold[i])
		}
	}
}

// Policy-only query variants (different constraint target/op) share
// cache entries: the second engine-level search is fully warm.
func TestRegionCacheSharedAcrossTargets(t *testing.T) {
	e := New(smallCatalog(t, 10, 400, 3))
	e.SetRegionCache(regioncache.New(1 << 20))
	regions := randomRegions(rand.New(rand.NewSource(9)), 10)
	if _, err := e.AggregateBatch(context.Background(), priceQuery(), regions); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	v := priceQuery()
	v.Constraint.Target = 12345
	v.Constraint.Op = relq.CmpGE
	if _, err := e.AggregateBatch(context.Background(), v, regions); err != nil {
		t.Fatal(err)
	}
	d := e.Snapshot().Sub(before)
	if d.Queries != 0 || d.CacheHits != int64(len(regions)) {
		t.Errorf("target variant not served from cache: %+v", d)
	}
}

// Appending rows changes the row-count generation word, so every prior
// entry misses and results match a fresh engine over the grown table.
func TestRegionCacheRowCountGeneration(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 5)
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(11)), 25)
	if _, err := e.AggregateBatch(context.Background(), q, regions); err != nil {
		t.Fatal(err)
	}

	part, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	if err := part.AppendRow(data.IntValue(999999), data.FloatValue(100), data.IntValue(30), data.StringValue("STEEL")); err != nil {
		t.Fatal(err)
	}

	before := e.Snapshot()
	got, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Snapshot().Sub(before); d.CacheHits != 0 {
		t.Errorf("stale entries served after append: %+v", d)
	}
	fresh := New(cat)
	want, err := fresh.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("region %d after append: cached-engine %+v != fresh %+v", i, got[i], want[i])
		}
	}
}

// In-place table mutation (catalog Replace) is invisible to the
// row-count generation; after InvalidateRegionCache the cached engine's
// results over 50 randomized regions are identical to a cold engine on
// the mutated data.
func TestRegionCacheInvalidateMatchesColdRun(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 13)
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(17)), 50)
	if _, err := e.AggregateBatch(context.Background(), q, regions); err != nil {
		t.Fatal(err)
	}
	if e.RegionCache().Len() == 0 {
		t.Fatal("cache empty after cold run")
	}

	// Rebuild "part" with shifted prices and the same row count — the
	// mutation an append generation cannot detect.
	old, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	repl := data.NewTable("part", old.Schema())
	row := make([]data.Value, old.Schema().Len())
	for r := 0; r < old.NumRows(); r++ {
		for c := range row {
			row[c] = old.ValueAt(r, c)
		}
		price, err := row[1].AsFloat()
		if err != nil {
			t.Fatal(err)
		}
		row[1] = data.FloatValue(price + 250)
		if err := repl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	cat.Replace(repl)
	e.InvalidateTable("part")
	if e.RegionCache().Len() != 0 {
		t.Fatal("region cache not emptied by InvalidateTable")
	}

	got, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cat).AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("region %d after invalidate: %+v != cold %+v", i, got[i], want[i])
		}
	}
}

// Concurrent sessions hammering one shared cache (stats_race pattern):
// 10 goroutines interleave overlapping batches on one engine; every
// result must be byte-identical to an uncached reference engine,
// hits+misses must account for every dispatched region, and exactly the
// misses execute. Two batches that miss a region at once both execute
// it, so the executions are not bounded by the unique regions. Run
// under `go test -race`.
func TestRegionCacheConcurrentSessions(t *testing.T) {
	cat := smallCatalog(t, 10, 500, 19)
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	ref := New(cat)
	q := priceQuery()

	regions := randomRegions(rand.New(rand.NewSource(23)), 40)
	want, err := ref.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 10
	const rounds = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	dispatched := 0
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				// Overlapping slices: different sessions request many of
				// the same regions concurrently.
				lo := rng.Intn(len(regions) / 2)
				hi := lo + len(regions)/2 + rng.Intn(len(regions)/2)
				if hi > len(regions) {
					hi = len(regions)
				}
				sub := regions[lo:hi]
				got, err := e.AggregateBatch(context.Background(), q, sub)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				for i := range got {
					if got[i] != want[lo+i] {
						t.Errorf("goroutine %d round %d region %d: %+v != %+v", g, r, lo+i, got[i], want[lo+i])
						return
					}
				}
				mu.Lock()
				dispatched += len(sub)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	st := e.Snapshot()
	if st.CacheHits+st.CacheMisses != int64(dispatched) {
		t.Errorf("hits %d + misses %d != dispatched %d", st.CacheHits, st.CacheMisses, dispatched)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits across concurrent sessions")
	}
	// Every region the cache missed executed, and nothing else did.
	if st.Queries != st.CacheMisses {
		t.Errorf("executed %d queries for %d cache misses", st.Queries, st.CacheMisses)
	}
	cs := e.RegionCache().Stats()
	if cs.Hits != st.CacheHits || cs.Misses != st.CacheMisses {
		t.Errorf("cache stats %+v disagree with engine stats %+v", cs, st)
	}
}

// The cache path preserves the zero-region and error behaviors of the
// uncached batch entry point.
func TestRegionCacheEdgeCases(t *testing.T) {
	e := New(smallCatalog(t, 10, 100, 29))
	e.SetRegionCache(regioncache.New(1 << 20))
	out, err := e.AggregateBatch(context.Background(), priceQuery(), nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	bad := &relq.Query{Tables: []string{"nope"}, Dims: priceQuery().Dims,
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}}
	if _, err := e.AggregateBatch(context.Background(), bad, randomRegions(rand.New(rand.NewSource(1)), 1)); err == nil {
		t.Fatal("missing-table batch did not error")
	}
	// Detach: runs execute directly again.
	e.SetRegionCache(nil)
	before := e.Snapshot()
	if _, err := e.AggregateBatch(context.Background(), priceQuery(), randomRegions(rand.New(rand.NewSource(2)), 3)); err != nil {
		t.Fatal(err)
	}
	if d := e.Snapshot().Sub(before); d.CacheMisses != 0 || d.Queries != 3 {
		t.Errorf("detached engine still counting cache traffic: %+v", d)
	}
}

// A cached batch that fails stores nothing: the next batch over the
// same regions misses every one of them and executes it, and only then
// does a third batch hit.
func TestRegionCacheErrorNotCached(t *testing.T) {
	e := New(smallCatalog(t, 10, 300, 31))
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(37)), 12)
	bad := append(append([]relq.Region{}, regions...), relq.Region{{Lo: -1, Hi: 0}})
	if _, err := e.AggregateBatch(context.Background(), q, bad); err == nil {
		t.Fatal("batch with a wrong-arity region did not error")
	}
	if n := e.RegionCache().Len(); n != 0 {
		t.Fatalf("failed batch stored %d partials", n)
	}
	before := e.Snapshot()
	cold, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	d := e.Snapshot().Sub(before)
	if d.CacheHits != 0 || d.CacheMisses != int64(len(regions)) || d.Queries != int64(len(regions)) {
		t.Errorf("batch after a failed one: %+v, want %d misses executed and no hits", d, len(regions))
	}
	before = e.Snapshot()
	warm, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Snapshot().Sub(before); d.CacheHits != int64(len(regions)) || d.Queries != 0 {
		t.Errorf("third batch: %+v, want all hits", d)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("warm partials differ from cold")
	}
}

// A batch that holds one region twice misses it twice and executes it
// twice — nothing is stored until the batch ends — and both copies get
// the uncached engine's partial. Hits plus misses equals the regions
// dispatched, cold and warm.
func TestRegionCacheDuplicateRegions(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 41)
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	rs := randomRegions(rand.New(rand.NewSource(43)), 3)
	regions := []relq.Region{rs[0], rs[1], rs[0], rs[2], rs[0]}
	want, err := New(cat).AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	for pass, wantHits := range []int64{0, int64(len(regions))} {
		before := e.Snapshot()
		got, err := e.AggregateBatch(context.Background(), q, regions)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: %+v, want %+v", pass, got, want)
		}
		if got[0] != got[2] || got[0] != got[4] {
			t.Errorf("pass %d: copies of one region differ: %+v", pass, got)
		}
		d := e.Snapshot().Sub(before)
		if d.CacheHits+d.CacheMisses != int64(len(regions)) || d.CacheHits != wantHits || d.Queries != d.CacheMisses {
			t.Errorf("pass %d: %+v, want %d hits of %d regions and one execution per miss", pass, d, wantHits, len(regions))
		}
	}
	if n := e.RegionCache().Len(); n != len(rs) {
		t.Errorf("cache holds %d entries, want %d", n, len(rs))
	}
}

// shiftedPart returns a copy of part with every price raised by 250: the
// same row count, other contents.
func shiftedPart(t *testing.T, part *data.Table) *data.Table {
	t.Helper()
	repl := data.NewTable("part", part.Schema())
	row := make([]data.Value, part.Schema().Len())
	for r := 0; r < part.NumRows(); r++ {
		for c := range row {
			row[c] = part.ValueAt(r, c)
		}
		price, err := row[1].AsFloat()
		if err != nil {
			t.Fatal(err)
		}
		row[1] = data.FloatValue(price + 250)
		if err := repl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return repl
}

// A same-size catalog Replace with no invalidate call: the cache keys mix
// the table's generation, so the warm engine equals a cold one on the new
// contents. Keyed by row counts, 13 of these 50 regions were served stale.
func TestRegionCacheReplaceMatchesColdRun(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 13)
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(17)), 50)
	if _, err := e.AggregateBatch(context.Background(), q, regions); err != nil {
		t.Fatal(err)
	}
	part, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	cat.Replace(shiftedPart(t, part))

	got, err := e.AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cat).AggregateBatch(context.Background(), q, regions)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for i := range want {
		if got[i] != want[i] {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d of %d regions differ from a cold engine after a same-size Replace", stale, len(regions))
	}
}

// TestRegionCacheKeyExactBounds: two queries whose fixed-range bounds
// differ only beyond 9.2e9 (epoch timestamps, say) admit different rows,
// so the second must not be answered from the first's cache entry.
func TestRegionCacheKeyExactBounds(t *testing.T) {
	tbl := data.NewTable("events", data.MustSchema(
		data.Column{Name: "ts", Type: data.Float64},
		data.Column{Name: "x", Type: data.Float64},
	))
	for i := range 1000 {
		if err := tbl.AppendRow(data.FloatValue(1e10+float64(i)*1e7), data.FloatValue(float64(i%10))); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	e.SetRegionCache(regioncache.New(1 << 20))
	region := relq.PrefixRegion([]float64{0})
	for _, hi := range []float64{1.2e10, 1.8e10} {
		q := &relq.Query{
			Tables: []string{"events"},
			Dims: []relq.Dimension{{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "x"},
				Bound: 4, Width: 10}},
			Fixed: []relq.FixedPred{{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "ts"},
				Lo: math.Inf(-1), Hi: hi}},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
		}
		got, err := e.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.NaiveAggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ts <= %g: cached engine counts %d rows, the oracle %d", hi, got.Count, want.Count)
		}
	}
}
