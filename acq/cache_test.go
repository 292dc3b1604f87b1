package acq

import (
	"reflect"
	"sync"
	"testing"
)

const cacheSQL = `SELECT * FROM users CONSTRAINT COUNT(*) = 2000 WHERE age <= 30 AND income <= 50000`

// A repeated identical search on a cached session re-executes (almost)
// nothing: the evaluation-layer query count must drop at least 5x and
// the refined queries must be bit-identical — with the cache warm and
// after turning it off again.
func TestSessionCacheRepeatedSearch(t *testing.T) {
	s, err := NewUsersSession(5000, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCache(0)
	q, err := s.Parse(cacheSQL)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Gamma: 15, Delta: 0.05}

	cold, err := s.Refine(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	if st1.Queries == 0 || st1.CacheMisses == 0 {
		t.Fatalf("cold search stats: %+v", st1)
	}

	warm, err := s.Refine(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	warmQ := st2.Queries - st1.Queries
	if warmQ*5 > st1.Queries {
		t.Errorf("warm search executed %d queries vs cold %d; want >=5x reduction", warmQ, st1.Queries)
	}
	if st2.CacheHits == st1.CacheHits {
		t.Error("warm search recorded no cache hits")
	}
	if cold.Satisfied != warm.Satisfied || !reflect.DeepEqual(cold.Queries, warm.Queries) {
		t.Errorf("warm result differs from cold:\ncold %+v\nwarm %+v", cold.Queries, warm.Queries)
	}
	if cs := s.CacheStats(); cs.Hits == 0 || cs.Entries == 0 {
		t.Errorf("cache stats: %+v", cs)
	}

	s.DisableCache()
	off, err := s.Refine(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Queries, warm.Queries) {
		t.Error("uncached rerun differs from cached results")
	}
	if s.CacheStats() != (CacheStats{}) {
		t.Errorf("disabled session still reports cache stats: %+v", s.CacheStats())
	}
}

// Eight goroutines interleaving two searches on one session must agree
// exactly with an uncached single-threaded session over the same data,
// and the shared cache must absorb the duplicated work. One search per
// SQL finishes before the other six start, so those six find its
// regions stored whatever the scheduling. The session race test's
// concurrency contract, extended to the cache. Run under
// `go test -race`.
func TestSessionCacheConcurrentSessions(t *testing.T) {
	sqls := []string{
		`SELECT * FROM users CONSTRAINT COUNT(*) = 2000 WHERE age <= 30`,
		`SELECT * FROM users CONSTRAINT COUNT(*) = 1500 WHERE income <= 60000`,
	}
	opts := Options{Gamma: 15, Delta: 0.05}

	ref, err := NewUsersSession(5000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(sqls))
	for i, sql := range sqls {
		q, err := ref.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = ref.Refine(q, opts); err != nil {
			t.Fatal(err)
		}
	}

	s, err := NewUsersSession(5000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCache(0)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		if g == len(sqls) {
			wg.Wait()
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sql := sqls[g%len(sqls)]
			q, err := s.Parse(sql)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := s.Refine(q, opts)
			if err != nil {
				errs[g] = err
				return
			}
			w := want[g%len(sqls)]
			if res.Satisfied != w.Satisfied || !reflect.DeepEqual(res.Queries, w.Queries) {
				t.Errorf("goroutine %d: cached result differs from uncached reference", g)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	st := s.Stats()
	if st.CacheHits == 0 {
		t.Error("no cache hits across concurrent searches")
	}
	cs := s.CacheStats()
	if cs.Hits != st.CacheHits || cs.Misses != st.CacheMisses {
		t.Errorf("cache stats %+v disagree with engine stats %+v", cs, st)
	}
}

// InvalidateCache empties the cache; the next search repopulates it
// and still returns identical results.
func TestSessionCacheInvalidate(t *testing.T) {
	s, err := NewUsersSession(3000, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	s.EnableCache(1 << 20)
	q, err := s.Parse(cacheSQL)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Gamma: 15, Delta: 0.05}
	first, err := s.Refine(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.CacheStats().Entries == 0 {
		t.Fatal("nothing cached")
	}
	s.InvalidateCache()
	if got := s.CacheStats().Entries; got != 0 {
		t.Fatalf("%d entries survived InvalidateCache", got)
	}
	again, err := s.Refine(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Queries, again.Queries) {
		t.Error("post-invalidate search differs")
	}
}
