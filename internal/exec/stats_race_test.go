package exec

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"acquire/internal/data"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// TestSnapshotResetCoherent drives Snapshot and ResetStats from
// concurrent goroutines while a writer bumps counters in a fixed
// pattern (queries, then rowsScanned, through one cell-pointer read per
// iteration — the same access pattern the engine's hot path uses).
// Because ResetStats swaps the whole counter generation, every snapshot
// must come from a single generation. The writer's pair of increments
// and the reader's Snapshot exclude each other through pair (the
// resetter runs free), so within one generation a snapshot never sees
// half a pair and queries == rowsScanned exactly — whatever the
// scheduler does. The pre-fix sequential reset (zeroing queries before
// rowsScanned) violates this: a snapshot between the two stores sees
// queries == 0 with rowsScanned still at its old value. Run with -race
// to also exercise the memory-model side.
func TestSnapshotResetCoherent(t *testing.T) {
	e := New(data.NewCatalog())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var pair sync.RWMutex

	wg.Add(1)
	go func() { // writer: the hot-path access pattern
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pair.RLock()
			c := e.stats.Load()
			c.queries.Add(1)
			c.rowsScanned.Add(1)
			pair.RUnlock()
		}
	}()
	wg.Add(1)
	go func() { // resetter
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			e.ResetStats()
		}
	}()

	bad := 0
	for i := 0; i < 20000; i++ {
		pair.Lock()
		s := e.Snapshot()
		pair.Unlock()
		if d := s.Queries - s.RowsScanned; d != 0 {
			bad++
			if bad < 5 {
				t.Errorf("incoherent snapshot: %+v (queries-rows = %d)", s, d)
			}
		}
	}
	close(stop)
	wg.Wait()
	if bad > 0 {
		t.Fatalf("%d incoherent snapshots", bad)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Queries: 10, RowsScanned: 100, TuplesExamined: 50, CellsSkipped: 3,
		CacheHits: 9, CacheMisses: 7, CacheEvictions: 5}
	b := Stats{Queries: 4, RowsScanned: 40, TuplesExamined: 20, CellsSkipped: 1,
		CacheHits: 4, CacheMisses: 3, CacheEvictions: 2}
	got := a.Sub(b)
	want := Stats{Queries: 6, RowsScanned: 60, TuplesExamined: 30, CellsSkipped: 2,
		CacheHits: 5, CacheMisses: 4, CacheEvictions: 3}
	if got != want {
		t.Fatalf("Sub = %+v, want %+v", got, want)
	}
}

// TestObserverMirrorsStats checks that an attached observer sees the
// same counter movements as Snapshot, that engine series register
// eagerly (exposed as 0 before any query), and that per-query
// durations land in the evaluate-phase histogram with deterministic
// fake-clock values.
func TestObserverMirrorsStats(t *testing.T) {
	tab := data.NewTable("t", data.MustSchema(data.Column{Name: "v", Type: data.Float64}))
	for i := 0; i < 100; i++ {
		if err := tab.AppendRow(data.FloatValue(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	e := New(cat)

	reg := obs.NewRegistry()
	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	e.SetObserver(obs.NewObserver(reg).WithClock(clk))

	// Eager registration: all engine series visible before any query.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"acquire_engine_queries_total 0",
		"acquire_engine_rows_scanned_total 0",
		"acquire_engine_cells_skipped_total 0",
		"acquire_engine_tuples_examined_total 0",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("pre-query exposition missing %q:\n%s", want, b.String())
		}
	}

	q := &relq.Query{
		Tables:     []string{"t"},
		Dims:       []relq.Dimension{{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "v"}, Bound: 10, Width: 100}},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Aggregate(q, relq.PrefixRegion([]float64{0})); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Snapshot()
	if st.Queries != 3 {
		t.Fatalf("snapshot queries = %d, want 3", st.Queries)
	}
	if got := reg.Counter("acquire_engine_queries_total", "").Value(); got != st.Queries {
		t.Errorf("mirrored queries = %d, snapshot = %d", got, st.Queries)
	}
	if got := reg.Counter("acquire_engine_rows_scanned_total", "").Value(); got != st.RowsScanned {
		t.Errorf("mirrored rows = %d, snapshot = %d", got, st.RowsScanned)
	}
	h := reg.Histogram(`acquire_phase_duration_seconds{phase="evaluate"}`, "", nil)
	if h.Count() != 3 {
		t.Errorf("evaluate histogram count = %d, want 3", h.Count())
	}
	// Each query spans exactly one fake-clock step (1ms).
	if got := h.Sum(); got != 0.003 {
		t.Errorf("evaluate histogram sum = %v, want 0.003", got)
	}

	// Detach: counters freeze, Snapshot keeps counting.
	e.SetObserver(nil)
	if _, err := e.Aggregate(q, relq.PrefixRegion([]float64{0})); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("acquire_engine_queries_total", "").Value(); got != 3 {
		t.Errorf("detached observer counter moved: %d", got)
	}
	if e.Snapshot().Queries != 4 {
		t.Errorf("snapshot queries = %d, want 4", e.Snapshot().Queries)
	}

	// Region cache: the same batch twice on a cached engine, so the
	// second run is answered from cached partials. The registry's cache
	// series must mirror Snapshot's hit and miss counts.
	ce := New(cat)
	ce.EnableRegionCache(1 << 20)
	creg := obs.NewRegistry()
	ce.SetObserver(obs.NewObserver(creg))
	var regions []relq.Region
	for i := 0; i < 4; i++ {
		regions = append(regions, relq.Region{{Lo: float64(10 * i), Hi: float64(10*i + 10)}})
	}
	for i := 0; i < 2; i++ {
		if _, err := ce.AggregateBatch(context.Background(), q, regions); err != nil {
			t.Fatal(err)
		}
	}
	cst := ce.Snapshot()
	if cst.CacheHits == 0 {
		t.Fatalf("cached engine: second batch served no cache hits (%+v)", cst)
	}
	if got := creg.Counter("acquire_cache_hits_total", "").Value(); got != cst.CacheHits {
		t.Errorf("mirrored cache hits = %d, snapshot = %d", got, cst.CacheHits)
	}
	if got := creg.Counter("acquire_cache_misses_total", "").Value(); got != cst.CacheMisses {
		t.Errorf("mirrored cache misses = %d, snapshot = %d", got, cst.CacheMisses)
	}
}
