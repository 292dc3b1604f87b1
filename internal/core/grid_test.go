package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/norms"
	"acquire/internal/relq"
)

func testSpace(t *testing.T, dims int, gamma float64, caps []int) *space {
	t.Helper()
	sp := &space{dims: dims, step: gamma / float64(dims), maxCoord: caps}
	return sp
}

// Theorem 2: every frontier emits points in non-decreasing QScore
// order, and a point is emitted only after every point it contains
// (Theorem 3(2)) — the Explore recurrence's precondition.
func TestFrontierOrderingInvariants(t *testing.T) {
	sp := testSpace(t, 3, 9, []int{6, 6, 6})
	l2, err := norms.NewLp(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := norms.NewLp(1, []float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fr   func(*lattice) frontier
		n    norms.Norm
	}{
		{"bfs", func(l *lattice) frontier { return newBFSFrontier(l) }, norms.L1{}},
		{"linf", func(l *lattice) frontier { return newLInfFrontier(l) }, norms.LInf{}},
		{"priority-l2", func(l *lattice) frontier { return newPriorityFrontier(l, qscorer(l, l2)) }, l2},
		{"priority-weighted", func(l *lattice) frontier { return newPriorityFrontier(l, qscorer(l, lw)) }, lw},
	}
	for _, tc := range cases {
		lat := newLattice(sp, 0)
		fr := tc.fr(lat)
		seen := make(map[[3]int32]int)
		var order []point
		last := -1.0
		for {
			id, ok := fr.next()
			if !ok {
				break
			}
			p := lat.point(id)
			qs := tc.n.Score(lat.appendScores(nil, id))
			if qs < last-1e-9 {
				t.Fatalf("%s: QScore decreased: %v after %v", tc.name, qs, last)
			}
			last = qs
			if _, dup := seen[[3]int32(p)]; dup {
				t.Fatalf("%s: duplicate point %v", tc.name, p)
			}
			seen[[3]int32(p)] = len(order)
			order = append(order, p)
		}
		// Completeness: every grid point appears exactly once.
		want := 7 * 7 * 7
		if len(order) != want {
			t.Fatalf("%s: emitted %d points, want %d", tc.name, len(order), want)
		}
		// Containment order: direct predecessors come first.
		for idx, p := range order {
			for i := 0; i < sp.dims; i++ {
				if p[i] == 0 {
					continue
				}
				prev := [3]int32(p)
				prev[i]--
				pidx, ok := seen[prev]
				if !ok || pidx >= idx {
					t.Fatalf("%s: %v emitted before contained %v", tc.name, p, prev)
				}
			}
		}
	}
}

func TestFrontierRespectsCaps(t *testing.T) {
	sp := testSpace(t, 2, 10, []int{2, 0})
	lat := newLattice(sp, 0)
	fr := newBFSFrontier(lat)
	count := 0
	for {
		id, ok := fr.next()
		if !ok {
			break
		}
		p := lat.point(id)
		if p[0] > 2 || p[1] > 0 {
			t.Fatalf("point %v beyond caps", p)
		}
		count++
	}
	if count != 3 {
		t.Errorf("points = %d, want 3", count)
	}
}

func TestLInfLayerShape(t *testing.T) {
	sp := testSpace(t, 2, 10, []int{3, 3})
	lat := newLattice(sp, 0)
	fr := newLInfFrontier(lat)
	var layers [][]point
	lastMax := int32(-1)
	for {
		id, ok := fr.next()
		if !ok {
			break
		}
		p := lat.point(id)
		m := p[0]
		if p[1] > m {
			m = p[1]
		}
		if m != lastMax {
			if m < lastMax {
				t.Fatalf("layer regressed: %v after max %d", p, lastMax)
			}
			layers = append(layers, nil)
			lastMax = m
		}
		layers[len(layers)-1] = append(layers[len(layers)-1], p)
	}
	// Layer k has (k+1)^2 - k^2 = 2k+1 points.
	wantSizes := []int{1, 3, 5, 7}
	if len(layers) != len(wantSizes) {
		t.Fatalf("layers = %d, want %d", len(layers), len(wantSizes))
	}
	for k, l := range layers {
		if len(l) != wantSizes[k] {
			t.Errorf("layer %d size = %d, want %d", k, len(l), wantSizes[k])
		}
	}
}

// The lattice's key table gives one id per distinct point: random
// points of a packed 300^3 space intern to ids that round-trip through
// lookup and the arena.
func TestPointKeyUniqueness(t *testing.T) {
	lat := newLattice(testSpace(t, 3, 3, []int{299, 299, 299}), 0)
	if lat.widths == nil {
		t.Fatal("a 300^3 space should pack")
	}
	ids := make(map[[3]int32]int32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		p := point{int32(rng.Intn(300)), int32(rng.Intn(300)), int32(rng.Intn(300))}
		id := lat.intern(p)
		if prev, ok := ids[[3]int32(p)]; ok && prev != id {
			t.Fatalf("%v interned twice: ids %d and %d", p, prev, id)
		}
		ids[[3]int32(p)] = id
		if !slices.Equal(lat.point(id), p) {
			t.Fatalf("id %d holds %v, want %v", id, lat.point(id), p)
		}
	}
	if int(lat.n) != len(ids) {
		t.Fatalf("%d ids for %d distinct points", int(lat.n), len(ids))
	}
}

// Regression: the old 3-byte-per-coordinate encoding truncated
// coordinates to 24 bits, so points 2^24 steps apart shared a key and
// the frontier's seen-set silently dropped one of them. Such a space
// does not pack; its hashed keys are confirmed against the arena.
func TestPointKeyHighCoordinates(t *testing.T) {
	lat := newLattice(testSpace(t, 3, 3, []int{1 << 30, 1 << 30, 1 << 30}), 0)
	if lat.widths != nil {
		t.Fatal("3x2^30 grid cannot pack into 64 bits")
	}
	pairs := [][2]point{
		{{1 << 24, 0, 0}, {0, 0, 0}},
		{{1<<24 + 1, 0, 0}, {1, 0, 0}},
		{{0, 1 << 25, 0}, {0, 0, 0}},
		{{1 << 30, 1 << 30, 7}, {1<<30 - 1<<24, 1 << 30, 7}},
	}
	for _, pr := range pairs {
		a, b := lat.intern(pr[0]), lat.intern(pr[1])
		if a == b {
			t.Errorf("points %v and %v share id %d", pr[0], pr[1], a)
		}
		if got, ok := lat.lookup(pr[0]); !ok || got != a {
			t.Errorf("lookup(%v) = %d, %v; want %d", pr[0], got, ok, a)
		}
	}
}

func TestPointHeap(t *testing.T) {
	var h pointHeap
	rng := rand.New(rand.NewSource(9))
	var vals []float64
	for i := 0; i < 500; i++ {
		v := rng.Float64() * 100
		vals = append(vals, v)
		h.push(heapItem{id: int32(i), score: v})
	}
	last := -1.0
	for len(h.items) > 0 {
		it := h.pop()
		if it.score < last {
			t.Fatalf("heap pop out of order: %v after %v", it.score, last)
		}
		last = it.score
	}
	_ = vals
}

// Property: the incremental aggregate (Algorithm 3 + store) equals a
// direct whole-query execution at every grid point, over random data,
// dimensionalities and aggregates — the central §5 claim.
func TestIncrementalAggregateEqualsDirectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		dims := 1 + trial%3
		cols := []data.Column{{Name: "v", Type: data.Float64}}
		names := []string{"a", "b", "c"}[:dims]
		for _, n := range names {
			cols = append(cols, data.Column{Name: n, Type: data.Float64})
		}
		tbl := data.NewTable("t", data.MustSchema(cols...))
		rows := 400 + rng.Intn(400)
		vals := make([]data.Value, len(cols))
		for r := 0; r < rows; r++ {
			vals[0] = data.FloatValue(rng.Float64() * 10)
			for i := 1; i < len(cols); i++ {
				vals[i] = data.FloatValue(rng.Float64() * 100)
			}
			if err := tbl.AppendRow(vals...); err != nil {
				t.Fatal(err)
			}
		}
		cat := data.NewCatalog()
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
		e := exec.New(cat)

		var qdims []relq.Dimension
		for _, n := range names {
			qdims = append(qdims, relq.Dimension{
				Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: n},
				Bound: 20 + rng.Float64()*30, Width: 50,
			})
		}
		consts := []relq.Constraint{
			{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
			{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "t", Column: "v"}, Op: relq.CmpGE, Target: 1},
			{Func: relq.AggMax, Attr: relq.ColumnRef{Table: "t", Column: "v"}, Op: relq.CmpGE, Target: 1},
			{Func: relq.AggMin, Attr: relq.ColumnRef{Table: "t", Column: "v"}, Op: relq.CmpEQ, Target: 1},
		}
		q := &relq.Query{Tables: []string{"t"}, Dims: qdims, Constraint: consts[trial%len(consts)]}

		domain, err := DomainScores(e, q)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := newSpace(q, 12, domain)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := agg.SpecFor(q.Constraint)
		if err != nil {
			t.Fatal(err)
		}
		x := newExplorer(e, q, sp, spec, true)
		fr := newBFSFrontier(x.lat)
		for i := 0; i < 60; i++ {
			id, ok := fr.next()
			if !ok {
				break
			}
			if err := x.verifyAgainstDirect(id); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

// The incremental explorer executes exactly one cell query per distinct
// grid point (§5: "a query is executed at most once").
func TestCellQueryAccounting(t *testing.T) {
	e := lineTable(t, 200)
	q := countQ(100, leDim(10))
	domain, err := DomainScores(e, q)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := newSpace(q, 10, domain)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		t.Fatal(err)
	}
	x := newExplorer(e, q, sp, spec, true)
	ctx := context.Background()
	for u := int32(0); u < 5; u++ {
		if _, err := x.aggregate(ctx, x.lat.intern(point{u})); err != nil {
			t.Fatal(err)
		}
	}
	if n := x.cellQueries.Load(); n != 5 {
		t.Errorf("cellQueries = %d, want 5", n)
	}
	// Re-asking a stored point costs nothing.
	if _, err := x.aggregate(ctx, x.lat.intern(point{3})); err != nil {
		t.Fatal(err)
	}
	if n := x.cellQueries.Load(); n != 5 {
		t.Errorf("cellQueries after repeat = %d, want 5", n)
	}
	if x.stored != 5 {
		t.Errorf("storedPoints = %d, want 5", x.stored)
	}
}

// verifyAgainstDirect cross-checks the incremental aggregate at p with
// a direct whole-query execution; used by the property tests. The
// direct answer comes from the engine's NaiveAggregate, which shares no
// index, scan or region cache with the cell queries. The full partial is
// compared: Count/Min/Max exactly, Sum and the UDA summary within a
// relative tolerance (the recurrence associates float additions
// differently than a single scan).
func (x *explorer) verifyAgainstDirect(id int32) error {
	inc, err := x.aggregate(context.Background(), id)
	if err != nil {
		return err
	}
	naive, ok := x.engine.(*exec.Engine)
	if !ok {
		return fmt.Errorf("core: verifyAgainstDirect needs an *exec.Engine, got %T", x.engine)
	}
	direct, err := naive.NaiveAggregate(x.q, relq.PrefixRegion(x.lat.appendScores(nil, id)))
	if err != nil {
		return err
	}
	if !agg.ApproxEqual(inc, direct, 1e-9) {
		return fmt.Errorf("core: incremental partial %+v != direct %+v at %v", inc, direct, x.lat.point(id))
	}
	return nil
}
