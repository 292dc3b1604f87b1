package exec

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"acquire/internal/obs"
	"acquire/internal/relq"
)

// scopeSearch is a run of batches one search sends under its scope.
type scopeSearch struct {
	q       *relq.Query
	step    float64
	batches [][]relq.Region
}

// run sends the search's batches under a new scope and a trace and
// returns the scope's totals and each engine.batch span's rows_scanned,
// in batch order.
func (s scopeSearch) run(t *testing.T, e *Engine) (Stats, []int64) {
	ctx, done := WithSearchScope(context.Background(), s.step)
	defer done()
	tr := obs.NewTrace("", nil)
	root := tr.NewSpan(0, "search")
	for _, regions := range s.batches {
		if _, err := e.AggregateBatch(obs.ContextWithSpan(ctx, root), s.q, regions); err != nil {
			t.Error(err)
			return Stats{}, nil
		}
	}
	root.End()
	var rows []int64
	for _, sp := range tr.Snapshot() {
		if sp.Name == "engine.batch" {
			a, ok := sp.Attr("rows_scanned")
			if !ok {
				t.Errorf("engine.batch span without rows_scanned: %+v", sp.Attrs)
			}
			rows = append(rows, a.I64())
		}
	}
	return ScopeStats(ctx), rows
}

// TestScopeStatsConcurrent: two searches send their batches at once to
// one engine, each under its own scope — a single-table COUNT(*) search
// over a cell lattice (grouped table included) and a join. Each scope's
// totals equal the same search's alone, the engine's counters move by
// their sum, and each traced engine.batch span reports its own batch's
// rows, not the engine's movement over the batch's interval.
func TestScopeStatsConcurrent(t *testing.T) {
	cat := sdCatalog(t, 5, 20000, false)
	star, jq := jpStarCatalog(t, 3000)
	for _, name := range jq.Tables {
		tbl, err := star.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	q := gpQuery(rng)
	d := len(q.Dims)
	step := 20 / float64(d)
	searches := []scopeSearch{
		{q, step, gpBatches(rng, d, step, "bfs", []int{14, 9, 6, 4}[d-1])},
		{jq, 8, [][]relq.Region{jpLayer()[:40], jpLayer()[40:], jpLayer()}},
	}
	e := New(cat)
	e.Parallelism = 2
	alone := make([]Stats, len(searches))
	aloneRows := make([][]int64, len(searches))
	var sum Stats
	for i, s := range searches {
		alone[i], aloneRows[i] = s.run(t, e)
		if alone[i].Queries == 0 || alone[i].RowsScanned == 0 {
			t.Fatalf("search %d did no work: %+v", i, alone[i])
		}
		for _, c := range counters {
			*c.field(&sum) += *c.field(&alone[i])
		}
	}
	for round := 0; round < 4; round++ {
		before := e.Snapshot()
		got := make([]Stats, len(searches))
		gotRows := make([][]int64, len(searches))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, s := range searches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i], gotRows[i] = s.run(t, e)
			}()
		}
		close(start)
		wg.Wait()
		for i := range searches {
			if got[i] != alone[i] {
				t.Errorf("round %d: search %d's scope totals %+v, alone %+v", round, i, got[i], alone[i])
			}
			if len(gotRows[i]) != len(aloneRows[i]) {
				t.Fatalf("round %d: search %d traced %d batches, alone %d", round, i, len(gotRows[i]), len(aloneRows[i]))
			}
			for b := range gotRows[i] {
				if gotRows[i][b] != aloneRows[i][b] {
					t.Errorf("round %d: search %d batch %d span rows_scanned %d, alone %d", round, i, b, gotRows[i][b], aloneRows[i][b])
				}
			}
		}
		if moved := e.Snapshot().Sub(before); moved != sum {
			t.Errorf("round %d: engine moved %+v, the searches' totals sum to %+v", round, moved, sum)
		}
	}
}

// cancelAfter is a context whose Err turns to Canceled after n checks.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestScopeStatsCancelledBatch: a join batch cancelled after five of its
// regions still adds their work — five executions and the rows their
// scans touched — to the engine and to its scope.
func TestScopeStatsCancelledBatch(t *testing.T) {
	cat, q := jpStarCatalog(t, 3000)
	e := New(cat)
	e.Parallelism = 1
	ctx, done := WithSearchScope(context.Background(), 0)
	defer done()
	c := &cancelAfter{Context: ctx}
	c.n.Store(1 + 5) // the batch's own check, then one per region
	before := e.Snapshot()
	if _, err := e.AggregateBatch(c, q, jpLayer()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AggregateBatch: %v, want Canceled", err)
	}
	d := e.Snapshot().Sub(before)
	if d.Queries != 5 || d.RowsScanned == 0 {
		t.Fatalf("cancelled batch counted %+v, want 5 executions and their rows", d)
	}
	if got := ScopeStats(ctx); got != d {
		t.Errorf("scope totals %+v, engine delta %+v", got, d)
	}
}
