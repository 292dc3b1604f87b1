package exec

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec/regioncache"
	"acquire/internal/relq"
)

// TestGenerationTwoEnginesUnderReplace: two engines over one catalog, each
// with a region cache, batch from four goroutines apiece, each goroutine
// under its own search scope — first use of every derived structure
// included — while the catalog keeps swapping the part table between two
// same-size contents. Every batch takes 30 of 50 regions from a
// rotating window, so it overlaps what earlier batches cached under
// either table; it binds one table or the other and must return that
// table's answers for all its regions: no cache entry, join memo or
// sorted index of one generation may serve the other. Run with -race.
func TestGenerationTwoEnginesUnderReplace(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 13)
	a, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	b := shiftedPart(t, a)
	q := priceQuery()
	regions := randomRegions(rand.New(rand.NewSource(17)), 50)
	naive := New(cat)
	want := make(map[*data.Table][]agg.Partial)
	for _, tbl := range []*data.Table{b, a} {
		cat.Replace(tbl)
		for _, r := range regions {
			p, err := naive.NaiveAggregate(q, r)
			if err != nil {
				t.Fatal(err)
			}
			want[tbl] = append(want[tbl], p)
		}
	}

	window := func(k int) []int {
		idx := make([]int, 30)
		for i := range idx {
			idx[i] = (k + i) % len(regions)
		}
		return idx
	}
	matches := func(idx []int, got []agg.Partial) bool {
		for _, w := range want {
			same := true
			for i, r := range idx {
				same = same && got[i] == w[r]
			}
			if same {
				return true
			}
		}
		return false
	}
	engines := []*Engine{New(cat), New(cat)}
	for _, e := range engines {
		e.SetRegionCache(regioncache.New(1 << 20))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		e := engines[g%2]
		wg.Add(1)
		go func(g int, e *Engine) {
			defer wg.Done()
			ctx, done := WithSearchScope(context.Background(), 0)
			defer done()
			for round := 0; round < 8; round++ {
				idx := window(7*g + 11*round)
				batch := make([]relq.Region, len(idx))
				for i, r := range idx {
					batch[i] = regions[r]
				}
				got, err := e.AggregateBatch(ctx, q, batch)
				if err != nil {
					t.Error(err)
					return
				}
				if !matches(idx, got) {
					t.Errorf("goroutine %d round %d: the batch matches neither table's answers", g, round)
					return
				}
			}
		}(g, e)
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			cat.Replace([]*data.Table{b, a}[round%2])
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(stop)
	<-stopped
}

// Two engines over one catalog drive a region from one sorted index: the
// table builds it once for its generation, not once per engine.
func TestGenerationEnginesShareSortedIndex(t *testing.T) {
	cat := sdCatalog(t, 3, 5000, false)
	q := &relq.Query{Tables: []string{"t"}, Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
		Dims: []relq.Dimension{{Kind: relq.SelectLE, Col: sdCol("c"), Bound: 5, Width: 100}}}
	region := relq.PrefixRegion([]float64{5})
	var ixs []*sortedIdx
	for _, e := range []*Engine{New(cat), New(cat)} {
		b, err := e.bind(q)
		if err != nil {
			t.Fatal(err)
		}
		var sc regionScratch
		ac, err := e.accessPath(b, region, 0, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !ac.indexed {
			t.Fatal("the region is not index-driven: the test proves nothing")
		}
		ixs = append(ixs, ac.ix)
	}
	if ixs[0] != ixs[1] {
		t.Fatal("two engines over one catalog built two sorted indexes")
	}
}

// A warm lookup of a column's float view and of its sorted index
// allocates nothing: the hot path makes both for every deferred region's
// drives and every batch's bound columns.
func TestGenerationWarmLookupAllocs(t *testing.T) {
	cat := smallCatalog(t, 10, 300, 13)
	part, err := cat.Table("part")
	if err != nil {
		t.Fatal(err)
	}
	size := part.Schema().Ordinal("p_size") // Int64: its view is a copy
	lookup := func() {
		if _, err := part.NumericColumn(size); err != nil {
			t.Fatal(err)
		}
		if _, err := sortedIndex(part, size); err != nil {
			t.Fatal(err)
		}
	}
	lookup()
	if n := testing.AllocsPerRun(100, lookup); n != 0 {
		t.Fatalf("a warm lookup allocates %v times, want 0", n)
	}
}
