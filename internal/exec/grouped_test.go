package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// This file pins the grouped pass (grouped.go): the cell table's
// membership rule against relq.CellRegion, and, on random single-table
// COUNT(*) searches replayed batch by batch under a lattice scope, every
// partial against a stand-alone Aggregate bit for bit and the row-scan
// oracle.

// TestCellOfMatchesContains: for steps ordinary, tiny, subnormal and huge
// (where float64(u)·step overflows), cellOf puts v in cell u exactly when
// CellRegion(u, step) contains v — the same comparisons, not ceil(v/s).
func TestCellOfMatchesContains(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, step := range []float64{20.0 / 3, 1.0 / 3, 7, 1e-300, 5e-324, 3e-320, 1e300, 1e307, math.MaxFloat64 / 4} {
		const h = 24
		g := newCellGrid(step, h)
		vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1,
			math.Nextafter(-1, 0), -0.5, 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64}
		for u := 0; u <= h+1; u++ {
			p := float64(u) * step
			vs = append(vs, p, math.Nextafter(p, math.Inf(1)), math.Nextafter(p, math.Inf(-1)))
		}
		for range 2000 {
			vs = append(vs, rng.Float64()*float64(h+2)*step, float64(rng.Intn(h+2))*step*(1+(rng.Float64()-0.5)*1e-15))
		}
		for _, v := range vs {
			want := -1
			for u := 0; u <= h; u++ {
				if relq.CellRegion([]int{u}, step)[0].Contains(v) {
					if want >= 0 {
						t.Fatalf("step %g: %g lies in cells %d and %d", step, v, want, u)
					}
					want = u
				}
			}
			if got := g.cellOf(v); got != want {
				t.Fatalf("step %g: cellOf(%g) = %d, CellRegion says %d", step, v, got, want)
			}
		}
	}
}

// gpQuery draws a COUNT(*) query over sdCatalog's t: one to four select
// dimensions of random kinds, widths from narrow (long lattices) to the
// whole domain, sometimes a fixed range — on w, or on a dimension's own
// column — and sometimes a string IN filter.
func gpQuery(rng *rand.Rand) *relq.Query {
	q := sdQuery(rng)
	q.Constraint = relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1}
	for i := range q.Dims {
		q.Dims[i].Width = []float64{8, 25, 60, 100}[rng.Intn(4)]
	}
	return q
}

// gpBatches draws a search's cell batches at step: the L1 layers of
// Algorithm 1 (frontier "bfs"), the L∞ layers ("linf"), or the ties and
// runs of a weighted sum ("weighted"), deepest first coordinate maxL.
func gpBatches(rng *rand.Rand, d int, step float64, frontier string, maxL int) [][]relq.Region {
	var pts [][]int
	var rec func(u []int, i int)
	rec = func(u []int, i int) {
		if i == d {
			pts = append(pts, append([]int(nil), u...))
			return
		}
		for c := 0; c <= maxL; c++ {
			u[i] = c
			rec(u, i+1)
		}
	}
	rec(make([]int, d), 0)
	w := make([]float64, d)
	for i := range w {
		w[i] = 1 + float64(rng.Intn(3))
	}
	key := func(u []int) float64 {
		s, m := 0.0, 0
		for i, c := range u {
			s, m = s+w[i]*float64(c), max(m, c)
		}
		switch frontier {
		case "bfs":
			s = 0
			for _, c := range u {
				s += float64(c)
			}
		case "linf":
			s = float64(m)
		}
		return s
	}
	sort.SliceStable(pts, func(a, b int) bool { return key(pts[a]) < key(pts[b]) })
	var out [][]relq.Region
	for lo := 0; lo < len(pts); {
		hi := lo + 1
		for hi < len(pts) && key(pts[hi]) == key(pts[lo]) && (frontier != "weighted" || hi-lo < 1+rng.Intn(40)) {
			hi++
		}
		if frontier == "bfs" && key(pts[lo]) > float64(maxL) {
			break // later L1 layers leave the box
		}
		var batch []relq.Region
		for _, u := range pts[lo:hi] {
			batch = append(batch, relq.CellRegion(u, step))
		}
		out = append(out, batch)
		lo = hi
	}
	return out
}

// gpRun replays batches under one lattice scope and checks every partial
// against a stand-alone Aggregate on ref, bit for bit, and every nth
// against the row-scan oracle. It returns the cells the table answered.
func gpRun(t *testing.T, ctx context.Context, e, ref *Engine, label string, q *relq.Query, batches [][]relq.Region, nth int) int64 {
	t.Helper()
	before := e.Snapshot()
	outs, err := gpDrive(ctx, e, q, batches)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n := gpCheck(t, ref, label, q, batches, outs, nth)
	d := e.Snapshot().Sub(before)
	if d.Queries != int64(n) {
		t.Fatalf("%s: %d executions for %d regions", label, d.Queries, n)
	}
	return d.CellsGrouped
}

// gpDrive sends the batches in order, as a search does.
func gpDrive(ctx context.Context, e *Engine, q *relq.Query, batches [][]relq.Region) ([][]agg.Partial, error) {
	var outs [][]agg.Partial
	for _, regions := range batches {
		got, err := e.AggregateBatch(ctx, q, regions)
		if err != nil {
			return nil, err
		}
		outs = append(outs, got)
	}
	return outs, nil
}

// gpCheck compares a replay's partials with stand-alone Aggregates on
// ref, bit for bit, and every nth with the row-scan oracle; it returns
// the regions checked.
func gpCheck(t *testing.T, ref *Engine, label string, q *relq.Query, batches [][]relq.Region, outs [][]agg.Partial, nth int) int {
	t.Helper()
	n := 0
	for b, regions := range batches {
		for i, r := range regions {
			want, err := ref.Aggregate(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if !jpSameBits(outs[b][i], want) {
				t.Fatalf("%s batch %d region %v: %+v, Aggregate %+v (%v)", label, b, r, outs[b][i], want, q)
			}
			if n++; n%nth == 0 {
				checkOracle(t, ref, fmt.Sprintf("%s region %v", label, r), q, r, outs[b][i])
			}
		}
	}
	return n
}

// TestGroupedPassEquivalence is the property suite: random COUNT(*)
// searches of 1 to 4 dimensions, three frontier orders, hostile tables
// (NaN, ±Inf and −0 in the select columns), at 1, 2 and 8 workers.
func TestGroupedPassEquivalence(t *testing.T) {
	var grouped, regions int64
	for seed := int64(1); seed <= 3; seed++ {
		cat := sdCatalog(t, seed, 6000+2000*int(seed), true)
		ref := New(cat)
		var engines []*Engine
		for _, w := range []int{1, 2, 8} {
			e := New(cat)
			e.Parallelism = w
			engines = append(engines, e)
		}
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < 12; k++ {
			q := gpQuery(rng)
			d := len(q.Dims)
			step := []float64{20, 10, 40}[rng.Intn(3)] / float64(d)
			frontier := []string{"bfs", "linf", "weighted"}[k%3]
			batches := gpBatches(rng, d, step, frontier, []int{14, 9, 6, 4}[d-1])
			for _, e := range engines {
				ctx, done := WithSearchScope(context.Background(), step)
				label := fmt.Sprintf("seed %d query %d %s workers=%d", seed, k, frontier, e.Parallelism)
				grouped += gpRun(t, ctx, e, ref, label, q, batches, 41)
				done()
			}
			for _, b := range batches {
				regions += int64(len(b) * len(engines))
			}
		}
	}
	t.Logf("%d of %d cells answered from the grouped table", grouped, regions)
	if grouped == 0 {
		t.Fatal("no search built a grouped table: the suite proves nothing")
	}
}

// TestGroupedPassNotGrouped: SUM, a join-free query under a scope with
// no step, non-cell regions and a sampled engine never read the table.
func TestGroupedPassNotGrouped(t *testing.T) {
	cat := sdCatalog(t, 7, 12000, true)
	rng := rand.New(rand.NewSource(7))
	q := gpQuery(rng)
	q.Fixed = nil
	d := len(q.Dims)
	step := 20 / float64(d)
	batches := gpBatches(rng, d, step, "bfs", []int{14, 9, 6, 4}[d-1])
	sum := *q
	sum.Constraint = relq.Constraint{Func: relq.AggSum, Attr: sdCol("w"), Op: relq.CmpGE, Target: 1}
	var probes [][]relq.Region
	for _, b := range batches {
		var p []relq.Region
		for _, r := range b {
			s := make([]float64, d)
			for i := range s {
				s[i] = r[i].Hi
			}
			p = append(p, relq.PrefixRegion(s))
		}
		probes = append(probes, p)
	}
	smp, err := NewSampled(cat, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(e *Engine) int64{
		"sum": func(e *Engine) int64 {
			ctx, done := WithSearchScope(context.Background(), step)
			defer done()
			return gpRun(t, ctx, e, New(cat), "sum", &sum, batches, 97)
		},
		"no step": func(e *Engine) int64 {
			return gpRun(t, searchScope(context.Background()), e, New(cat), "no step", q, batches, 97)
		},
		"prefix regions": func(e *Engine) int64 {
			ctx, done := WithSearchScope(context.Background(), step)
			defer done()
			return gpRun(t, ctx, e, New(cat), "prefix regions", q, probes, 97)
		},
		"sampled": func(*Engine) int64 {
			ctx, done := WithSearchScope(context.Background(), step)
			defer done()
			before := smp.Snapshot()
			for _, b := range batches {
				if _, err := smp.AggregateBatch(ctx, q, b); err != nil {
					t.Fatal(err)
				}
			}
			return smp.Snapshot().Sub(before).CellsGrouped
		},
	} {
		if n := run(New(cat)); n != 0 {
			t.Errorf("%s: %d cells answered from a grouped table", name, n)
		}
	}
	// The same cells as a COUNT(*) search do build one.
	ctx, done := WithSearchScope(context.Background(), step)
	defer done()
	if gpRun(t, ctx, New(cat), New(cat), "count", q, batches, 97) == 0 {
		t.Fatal("the COUNT(*) search built no table: the cases above prove nothing")
	}
}

// TestGroupedPassSharedEngine: two searches on one engine at once, each
// under its own scope, and one search whose batches alternate between
// two engines under one scope — each engine keeps a table of its own.
func TestGroupedPassSharedEngine(t *testing.T) {
	cat := sdCatalog(t, 11, 12000, true)
	ref := New(cat)
	rng := rand.New(rand.NewSource(11))
	var qs []*relq.Query
	var bs [][][]relq.Region
	for range 2 {
		q := gpQuery(rng)
		qs = append(qs, q)
		bs = append(bs, gpBatches(rng, len(q.Dims), 20/float64(len(q.Dims)), "bfs", []int{14, 9, 6, 4}[len(q.Dims)-1]))
	}
	e := New(cat)
	var wg sync.WaitGroup
	outs, errs := make([][][]agg.Partial, len(qs)), make([]error, len(qs))
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, done := WithSearchScope(context.Background(), 20/float64(len(qs[i].Dims)))
			defer done()
			outs[i], errs[i] = gpDrive(ctx, e, qs[i], bs[i])
		}(i)
	}
	wg.Wait()
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("search %d: %v", i, errs[i])
		}
		gpCheck(t, ref, fmt.Sprintf("search %d", i), qs[i], bs[i], outs[i], 53)
	}
	grouped := e.Snapshot().CellsGrouped

	a, b := New(cat), New(cat)
	ctx, done := WithSearchScope(context.Background(), 20/float64(len(qs[0].Dims)))
	defer done()
	for k, batch := range bs[0] {
		on := []*Engine{a, b}[k%2]
		got, err := on.AggregateBatch(ctx, qs[0], batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range batch {
			want, _ := ref.Aggregate(qs[0], r)
			if !jpSameBits(got[i], want) {
				t.Fatalf("two engines, batch %d region %v: %+v, Aggregate %+v", k, r, got[i], want)
			}
		}
	}
	if sa, sb := jpScopeState(ctx, a), jpScopeState(ctx, b); sa == nil || sb == nil || sa == sb {
		t.Fatalf("engines share scope state %p / %p", sa, sb)
	}
	t.Logf("concurrent searches: %d cells grouped; two engines: %d + %d", grouped,
		a.Snapshot().CellsGrouped, b.Snapshot().CellsGrouped)
}

// errAfter is a context whose Err reports cancellation from its nth call
// on: with Parallelism 1 every drain checks it once per task, so n picks
// the task a batch is cancelled before.
type errAfter struct {
	context.Context
	mu    sync.Mutex
	calls int
	n     int
}

func (c *errAfter) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestGroupedPassCancelMidBuild cancels the batch that builds the first
// table after the build's first task: the batch fails, the scope holds no
// table, and the same batch run again builds it and answers right.
func TestGroupedPassCancelMidBuild(t *testing.T) {
	cat := sdCatalog(t, 5, 60000, false)
	ref := New(cat)
	q := &relq.Query{Tables: []string{"t"}, Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: sdCol("a"), Bound: 30, Width: 25},
			{Kind: relq.SelectLE, Col: sdCol("c"), Bound: 30, Width: 25},
		}}
	batches := gpBatches(rand.New(rand.NewSource(5)), 2, 10, "bfs", 12)
	e := New(cat)
	e.Parallelism = 1
	// Find the batch that first builds a table.
	trigger := -1
	ctx, done := WithSearchScope(context.Background(), 10)
	for k, b := range batches {
		if _, err := e.AggregateBatch(ctx, q, b); err != nil {
			t.Fatal(err)
		}
		if st := jpScopeState(ctx, e); st != nil && st.group.counts != nil {
			trigger = k
			break
		}
	}
	done()
	if trigger < 0 {
		t.Fatal("no batch built a table")
	}
	ctx, done = WithSearchScope(context.Background(), 10)
	defer done()
	for _, b := range batches[:trigger] {
		if _, err := e.AggregateBatch(ctx, q, b); err != nil {
			t.Fatal(err)
		}
	}
	// One Err call at entry, one per region's front, then the build's.
	regions := batches[trigger]
	rows := e.Snapshot().RowsScanned
	cut := &errAfter{Context: ctx, n: 1 + len(regions) + 2}
	if _, err := e.AggregateBatch(cut, q, regions); err != context.Canceled {
		t.Fatalf("cancelled batch returned %v", err)
	}
	if st := jpScopeState(ctx, e); st.group.counts != nil {
		t.Fatal("a cancelled build left a table in the scope")
	}
	if e.Snapshot().RowsScanned != rows {
		t.Fatal("a cancelled build counted its rows")
	}
	gpRun(t, ctx, e, ref, "after cancel", q, batches[trigger:], 61)
	if st := jpScopeState(ctx, e); st.group.counts == nil {
		t.Fatal("the batch run again built no table")
	}
}

// TestGroupedPassTableChange: InvalidateTable after an in-place rewrite,
// and Catalog.Replace, between the batches of one search retire its
// table; later batches read the new contents.
func TestGroupedPassTableChange(t *testing.T) {
	changes := map[string]func(t *testing.T, cat *data.Catalog, e *Engine){
		"rewrite in place": func(t *testing.T, cat *data.Catalog, e *Engine) {
			tbl, _ := cat.Table("t")
			vals, _ := tbl.Floats(0)
			for i := range vals {
				vals[i] = 100 - vals[i]
			}
			e.InvalidateTable("t")
		},
		"replace": func(t *testing.T, cat *data.Catalog, e *Engine) {
			old, _ := cat.Table("t")
			repl := data.NewTable("t", old.Schema())
			for r := 0; r < old.NumRows(); r++ {
				row := make([]data.Value, old.Schema().Len())
				for c := range row {
					row[c] = old.ValueAt(r, c)
				}
				row[0] = data.FloatValue(float64(r % 50))
				if err := repl.AppendRow(row...); err != nil {
					t.Fatal(err)
				}
			}
			cat.Replace(repl)
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			cat := sdCatalog(t, 9, 12000, false)
			q := &relq.Query{Tables: []string{"t"}, Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
				Dims: []relq.Dimension{
					{Kind: relq.SelectLE, Col: sdCol("a"), Bound: 20, Width: 100},
					{Kind: relq.SelectGE, Col: sdCol("b"), Bound: 70, Width: 100},
				}}
			batches := gpBatches(rand.New(rand.NewSource(9)), 2, 10, "bfs", 14)
			e := New(cat)
			ctx, done := WithSearchScope(context.Background(), 10)
			defer done()
			half := len(batches) / 2
			if gpRun(t, ctx, e, New(cat), "before", q, batches[:half], 37) == 0 {
				t.Fatal("no table before the change: the test proves nothing")
			}
			old := jpScopeState(ctx, e)
			change(t, cat, e)
			// A fresh engine never saw the old contents.
			gpRun(t, ctx, e, New(cat), "after", q, batches, 37)
			if jpScopeState(ctx, e) == old {
				t.Fatal("the change did not retire the scope's state")
			}
		})
	}
}
