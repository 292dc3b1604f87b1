package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"acquire/internal/agg"

	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/norms"
	"acquire/internal/relq"
)

// lineTable builds t(x) with x = 1..n: COUNT(x <= b) == b, so every
// expected refinement is computable by hand.
func lineTable(t testing.TB, n int) *exec.Engine {
	t.Helper()
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "v", Type: data.Float64},
	))
	for i := 1; i <= n; i++ {
		if err := tbl.AppendRow(data.FloatValue(float64(i)), data.FloatValue(float64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return exec.New(cat)
}

// leDim is "x <= bound" with Width 100, so one score unit widens the
// bound by one attribute unit.
func leDim(bound float64) relq.Dimension {
	return relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "x"}, Bound: bound, Width: 100}
}

func countQ(target float64, dims ...relq.Dimension) *relq.Query {
	return &relq.Query{
		Tables:     []string{"t"},
		Dims:       dims,
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: target},
	}
}

func TestExactGridHit(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(50, leDim(10))
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %+v", res)
	}
	// γ=10, d=1 ⇒ step 10; count(10+u) = 10+u ⇒ u = 40 at layer 4.
	if res.Best.Scores[0] != 40 {
		t.Errorf("best score = %v, want 40", res.Best.Scores[0])
	}
	if res.Best.Aggregate != 50 {
		t.Errorf("aggregate = %v, want 50", res.Best.Aggregate)
	}
	if res.Best.Err != 0 {
		t.Errorf("err = %v", res.Best.Err)
	}
	if res.Best.QScore != 40 {
		t.Errorf("QScore = %v", res.Best.QScore)
	}
}

func TestOriginAlreadySatisfies(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(10, leDim(10))
	res, err := Run(e, q, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied || res.Best.QScore != 0 {
		t.Fatalf("origin should satisfy: %+v", res)
	}
	if res.Explored != 1 {
		t.Errorf("explored = %d, want 1 (stop after origin's layer)", res.Explored)
	}
}

func TestRepartitionOnOvershoot(t *testing.T) {
	e := lineTable(t, 1000)
	// Step 10 jumps counts by 10; target 15 lies strictly between grid
	// layers. δ=0.01 rejects both 10 and 20; §6 repartitioning must
	// find the interior point u=5.
	q := countQ(15, leDim(10))
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, RepartitionDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("repartitioning should satisfy: %+v", res)
	}
	if math.Abs(res.Best.Scores[0]-5) > 2 {
		t.Errorf("best score = %v, want ≈5", res.Best.Scores[0])
	}
	if math.Abs(res.Best.Aggregate-15) > 15*0.01 {
		t.Errorf("aggregate = %v, want 15±1%%", res.Best.Aggregate)
	}
}

func TestOvershootAtOriginReportsContractionProblem(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(5, leDim(50)) // origin already returns 50 > 5
	res, err := Run(e, q, Options{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatalf("expansion cannot shrink an overshooting query: %+v", res)
	}
	if res.Note == "" {
		t.Error("expected a diagnostic note")
	}
	if res.Closest == nil {
		t.Error("closest query must still be reported (§6)")
	}
}

func TestUnsatisfiableExhaustsGrid(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(10000, leDim(10)) // only 100 rows exist
	res, err := Run(e, q, Options{Gamma: 20, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatal("cannot satisfy target beyond table size")
	}
	if !res.Exhausted {
		t.Error("expected Exhausted")
	}
	if res.Closest == nil || res.Closest.Aggregate != 100 {
		t.Errorf("closest should be full expansion with count 100: %+v", res.Closest)
	}
}

func TestMaxExploredBudget(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(10000, leDim(10))
	res, err := Run(e, q, Options{MaxExplored: 3, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Explored > 3 {
		t.Errorf("budget not respected: %+v", res)
	}
}

func TestTwoDimensionalSearch(t *testing.T) {
	// Grid data: (x, y) over 1..40 × 1..40, count(x<=a, y<=b) = a·b.
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
	))
	for x := 1; x <= 40; x++ {
		for y := 1; y <= 40; y++ {
			if err := tbl.AppendRow(data.FloatValue(float64(x)), data.FloatValue(float64(y))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	e := exec.New(cat)

	q := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "x"}, Bound: 10, Width: 100},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "y"}, Bound: 10, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 300},
	}
	// γ=10, d=2 ⇒ step 5. count(10+5i, 10+5j) = (10+5i)(10+5j).
	// Layer i+j=3: (10,25)→250, (15,20)→300 ✓, (20,15)→300 ✓,
	// (25,10)→250. Expect exactly the two satisfying points of the
	// first satisfying layer.
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %+v", res)
	}
	if len(res.Queries) != 2 {
		t.Fatalf("answers = %d, want 2 symmetric points: %+v", len(res.Queries), res.Queries)
	}
	for _, rq := range res.Queries {
		if rq.Aggregate != 300 || rq.QScore != 15 {
			t.Errorf("answer %+v", rq)
		}
	}
	// All answers in one layer (Alg. 4 stops after the satisfying layer).
	if res.Queries[0].QScore != res.Queries[1].QScore {
		t.Error("answers from different layers")
	}
}

// mixedTable builds t(a, b, c, e, v): four dimension columns over
// [0, 100) — c whole-valued, so an equality predicate on it selects rows
// — and a positive, long-tailed aggregate column whose running MAX and
// SUM move in jumps.
func mixedTable(t testing.TB, seed int64, n int) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "a", Type: data.Float64},
		data.Column{Name: "b", Type: data.Float64},
		data.Column{Name: "c", Type: data.Float64},
		data.Column{Name: "e", Type: data.Float64},
		data.Column{Name: "v", Type: data.Float64},
	))
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			data.FloatValue(rng.Float64()*100),
			data.FloatValue(rng.Float64()*100),
			data.FloatValue(math.Floor(rng.Float64()*100)),
			data.FloatValue(rng.Float64()*100),
			data.FloatValue(1+rng.ExpFloat64()*10),
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

// mixedDims returns d = 1..4 refinable predicates over mixedTable, with
// LE, GE and EQ kinds mixed from d = 2 on.
func mixedDims(d int) []relq.Dimension {
	col := func(c string) relq.ColumnRef { return relq.ColumnRef{Table: "t", Column: c} }
	le := relq.Dimension{Kind: relq.SelectLE, Col: col("a"), Bound: 30, Width: 70}
	ge := relq.Dimension{Kind: relq.SelectGE, Col: col("b"), Bound: 70, Width: 70}
	eq := relq.Dimension{Kind: relq.SelectEQ, Col: col("c"), Bound: 50, Width: 50}
	le2 := relq.Dimension{Kind: relq.SelectLE, Col: col("e"), Bound: 30, Width: 70}
	return [][]relq.Dimension{{le}, {ge, eq}, {le, ge, eq}, {le, ge, eq, le2}}[d-1]
}

// betweenLayers returns the query over dims whose =-constraint targets
// the aggregate of the off-grid refinement 1.4 grid steps out on every
// dimension: a target strictly between grid layers, which only §6
// repartitioning can meet within a tight δ (TestRepartitionOnOvershoot).
func betweenLayers(t testing.TB, e *exec.Engine, f relq.AggFunc, dims []relq.Dimension, gamma float64) *relq.Query {
	t.Helper()
	c := relq.Constraint{Func: f, Op: relq.CmpEQ}
	if f != relq.AggCount {
		c.Attr = relq.ColumnRef{Table: "t", Column: "v"}
	}
	q := &relq.Query{Tables: []string{"t"}, Dims: dims, Constraint: c}
	at := make([]float64, len(dims))
	for i := range at {
		at[i] = 1.4 * gamma / float64(len(dims))
	}
	q.Constraint.Target = finalAt(t, e.Aggregate, q, at)
	return q
}

// finalAt evaluates the constraint aggregate of the whole refined query
// at scores with the given engine entry point.
func finalAt(t testing.TB, aggregate func(*relq.Query, relq.Region) (agg.Partial, error), q *relq.Query, scores []float64) float64 {
	t.Helper()
	p, err := aggregate(q, relq.PrefixRegion(scores))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Final(p)
}

// TestIncrementalMatchesNaive: the incremental search — Eq. 17 on the
// grid, delta probes (explorer.probe) between its layers — walks the
// same path and returns the same refined queries as whole-query
// re-execution, on every evaluation-layer configuration, and every
// aggregate it returns is the engine's own for that refined query.
func TestIncrementalMatchesNaive(t *testing.T) {
	const gamma, delta, depth = 20, 0.005, 8
	cat := mixedTable(t, 11, 12000)
	plain := exec.New(cat)

	type config struct {
		name string
		ev   Evaluator
	}
	configs := []config{{"plain", plain}}
	grid := exec.New(cat)
	if err := grid.BuildGridAggIndex("t", []string{"a", "b", "c", "e"}, []string{"v"}, 8); err != nil {
		t.Fatal(err)
	}
	configs = append(configs, config{"gridagg", grid})
	cached := exec.New(cat)
	cached.EnableRegionCache(16 << 20)
	configs = append(configs, config{"cache-cold", cached}, config{"cache-warm", cached})

	// Answers found by §6, per aggregate and per dimensionality: the
	// matrix is only worth its time if repartitioning decided cases in it.
	byFunc, byDims := map[relq.AggFunc]int{}, map[int]int{}
	for d := 1; d <= 4; d++ {
		for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMin, relq.AggMax, relq.AggAvg} {
			q := betweenLayers(t, plain, f, mixedDims(d), gamma)
			// Relative error on every aggregate: under the default hinge
			// a SUM or MAX above its target satisfies and never overshoots.
			opts := Options{Gamma: gamma, Delta: delta, RepartitionDepth: depth, ErrFn: agg.RelativeError}
			log := &eventLog{}
			naiveOpts := opts
			naiveOpts.NoIncremental, naiveOpts.Observer = true, log.observer()
			naive, err := Run(plain, q, naiveOpts)
			if err != nil {
				t.Fatalf("d=%d %s naive: %v", d, f, err)
			}
			// CellQueries differ in one place only: the naive mode holds
			// no corner aggregate to test for free, so it spends its b
			// probes on an overshooting cell whose corner overshoots too.
			wantCells := naive.CellQueries
			monotone := agg.Spec{Func: f}.Monotone()
			step := gamma / float64(d)
			for _, ev := range log.named("search.point") {
				switch ev.str("outcome") {
				case "repartitioned":
					byFunc[f]++
					byDims[d]++
				case "overshoot":
					corner, atOrigin := cellCorner(ev.scores(), step)
					if monotone && !atOrigin && agg.Overshoots(q.Constraint, finalAt(t, plain.Aggregate, q, corner), delta) {
						wantCells -= depth
					}
				}
			}
			for _, cfg := range configs {
				label := fmt.Sprintf("d=%d %s %s", d, f, cfg.name)
				inc, err := Run(cfg.ev, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if inc.Satisfied != naive.Satisfied || inc.Explored != naive.Explored || len(inc.Queries) != len(naive.Queries) {
					t.Errorf("%s: satisfied/explored/answers %v/%d/%d, naive %v/%d/%d (search paths must match)", label,
						inc.Satisfied, inc.Explored, len(inc.Queries), naive.Satisfied, naive.Explored, len(naive.Queries))
					continue
				}
				if inc.CellQueries != wantCells {
					t.Errorf("%s: %d cell queries, want %d (naive %d)", label, inc.CellQueries, wantCells, naive.CellQueries)
				}
				exact := f == relq.AggCount || f == relq.AggMin || f == relq.AggMax
				for i, rq := range inc.Queries {
					for k, s := range rq.Scores {
						if math.Float64bits(s) != math.Float64bits(naive.Queries[i].Scores[k]) {
							t.Errorf("%s: answer %d scores %v, naive %v", label, i, rq.Scores, naive.Queries[i].Scores)
							break
						}
					}
					direct := finalAt(t, plain.Aggregate, q, rq.Scores)
					if exact && math.Float64bits(rq.Aggregate) != math.Float64bits(direct) {
						t.Errorf("%s: answer %d aggregate %v, engine %v (must be bit-identical)", label, i, rq.Aggregate, direct)
					}
					oracle := finalAt(t, plain.NaiveAggregate, q, rq.Scores)
					for _, want := range []float64{direct, oracle} {
						if math.Abs(rq.Aggregate-want) > 1e-9*(1+math.Abs(want)) {
							t.Errorf("%s: answer %d aggregate %v, want %v", label, i, rq.Aggregate, want)
						}
					}
				}
			}
		}
	}
	for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMax} {
		if byFunc[f] == 0 {
			t.Errorf("%s: no case was answered by repartitioning", f)
		}
	}
	for d := 1; d <= 4; d++ {
		if byDims[d] == 0 {
			t.Errorf("d=%d: no case was answered by repartitioning", d)
		}
	}
}

// Property: every satisfying query ACQUIRE reports is (a) within δ, and
// (b) within γ of the optimal grid refinement found by exhaustive
// search (Definition 1).
func TestDefinitionOneGuarantees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 500 + rng.Intn(1000)
		e := lineTable(t, n)
		bound := 10 + rng.Float64()*30
		target := float64(100 + rng.Intn(n/2))
		gamma := 4 + rng.Float64()*16
		delta := 0.02 + rng.Float64()*0.08
		q := countQ(target, leDim(bound))

		res, err := Run(e, q, Options{Gamma: gamma, Delta: delta})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Exhaustive scan of the 1-D grid for the optimal layer.
		step := gamma / 1
		opt := math.Inf(1)
		for u := 0; ; u++ {
			cnt := math.Min(bound+float64(u)*step, float64(n))
			if bound+float64(u)*step >= float64(n)+step {
				break
			}
			errv := math.Abs(target-cnt) / target
			if errv <= delta {
				opt = float64(u) * step
				break
			}
		}
		if math.IsInf(opt, 1) {
			continue // no grid point satisfies; nothing to check
		}
		if !res.Satisfied {
			t.Errorf("trial %d: exhaustive found grid answer at %v but ACQUIRE did not", trial, opt)
			continue
		}
		for _, rq := range res.Queries {
			if rq.Err > delta+1e-12 {
				t.Errorf("trial %d: reported query has err %v > δ=%v", trial, rq.Err, delta)
			}
			if rq.QScore > opt+gamma+1e-9 {
				t.Errorf("trial %d: QScore %v exceeds optimal %v + γ=%v", trial, rq.QScore, opt, gamma)
			}
		}
	}
}

func TestAggregateTypesEndToEnd(t *testing.T) {
	e := lineTable(t, 200) // v = i % 7 ∈ [0, 6]
	mk := func(c relq.Constraint) *relq.Query {
		return &relq.Query{Tables: []string{"t"}, Dims: []relq.Dimension{leDim(10)}, Constraint: c}
	}
	vcol := relq.ColumnRef{Table: "t", Column: "v"}

	// SUM: sum of v over x<=b grows with b.
	res, err := Run(e, mk(relq.Constraint{Func: relq.AggSum, Attr: vcol, Op: relq.CmpGE, Target: 200}), Options{Delta: 0.05})
	if err != nil || !res.Satisfied {
		t.Fatalf("SUM: %v %+v", err, res)
	}
	if res.Best.Aggregate < 200 {
		t.Errorf("SUM aggregate %v < target", res.Best.Aggregate)
	}

	// MAX: v caps at 6; target 6 must be reachable, target 10 not.
	res, err = Run(e, mk(relq.Constraint{Func: relq.AggMax, Attr: vcol, Op: relq.CmpGE, Target: 6}), Options{Delta: 0.001})
	if err != nil || !res.Satisfied {
		t.Fatalf("MAX reachable: %v %+v", err, res)
	}
	res, err = Run(e, mk(relq.Constraint{Func: relq.AggMax, Attr: vcol, Op: relq.CmpGE, Target: 10}), Options{Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Error("MAX 10 is unreachable (domain max 6)")
	}

	// MIN: min over any prefix is 0 (x=7 has v=0); with = constraint 0.
	res, err = Run(e, mk(relq.Constraint{Func: relq.AggMin, Attr: vcol, Op: relq.CmpEQ, Target: 0}), Options{Delta: 0.001})
	if err != nil || !res.Satisfied {
		t.Fatalf("MIN: %v %+v", err, res)
	}

	// AVG: v averages ≈3 over large prefixes.
	res, err = Run(e, mk(relq.Constraint{Func: relq.AggAvg, Attr: vcol, Op: relq.CmpEQ, Target: 3}), Options{Delta: 0.05})
	if err != nil || !res.Satisfied {
		t.Fatalf("AVG: %v %+v", err, res)
	}
}

func TestNormVariants(t *testing.T) {
	e := lineTable(t, 200)
	q := countQ(60, leDim(10))

	l2, err := norms.NewLp(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []norms.Norm{norms.L1{}, l2, norms.LInf{}} {
		res, err := Run(e, q, Options{Norm: n, Delta: 0.001})
		if err != nil {
			t.Fatalf("%s: %v", n.Name(), err)
		}
		if !res.Satisfied || res.Best.Scores[0] != 50 {
			t.Errorf("%s: %+v", n.Name(), res.Best)
		}
	}

	// Weighted norm steers refinement to the cheap dimension.
	tbl := data.NewTable("g", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
	))
	for x := 1; x <= 30; x++ {
		for y := 1; y <= 30; y++ {
			if err := tbl.AppendRow(data.FloatValue(float64(x)), data.FloatValue(float64(y))); err != nil {
				t.Fatal(err)
			}
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	ge := exec.New(cat)
	gq := &relq.Query{
		Tables: []string{"g"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "g", Column: "x"}, Bound: 10, Width: 100},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "g", Column: "y"}, Bound: 10, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 200},
	}
	// Penalise dim 0 heavily: the answer should refine dim 1.
	lw, err := norms.NewLp(1, []float64{10, 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(ge, gq, Options{Norm: lw, Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("weighted: %+v", res)
	}
	if res.Best.Scores[0] != 0 || res.Best.Scores[1] != 10 {
		t.Errorf("weighted norm should expand only dim 1: %v", res.Best.Scores)
	}
}

func TestFrontierValidation(t *testing.T) {
	e := lineTable(t, 50)
	q := countQ(20, leDim(10))
	bad := norms.Custom{Fn: func(v []float64) float64 { return -v[0] }, Label: "bad"}
	if _, err := Run(e, q, Options{Norm: bad}); err == nil {
		t.Error("non-monotone custom norm: expected error")
	}
	good := norms.Custom{Fn: func(v []float64) float64 { return 3 * v[0] }, Label: "scaled"}
	if res, err := Run(e, q, Options{Norm: good, Delta: 0.01}); err != nil || !res.Satisfied {
		t.Errorf("monotone custom norm: %v %+v", err, res)
	}
}

func TestRunInputValidation(t *testing.T) {
	e := lineTable(t, 10)
	if _, err := Run(e, &relq.Query{}, Options{}); err == nil {
		t.Error("invalid query: expected error")
	}
	noDims := &relq.Query{
		Tables:     []string{"t"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 5},
	}
	if _, err := Run(e, noDims, Options{}); err == nil {
		t.Error("no refinable predicates: expected error")
	}
	q := countQ(5, leDim(3))
	contractQ := &relq.Query{Tables: []string{"t"}, Dims: []relq.Dimension{leDim(5)},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 2}}
	for _, o := range []Options{
		{Gamma: -1}, {Gamma: math.NaN()}, {Gamma: math.Inf(1)},
		{Delta: -0.5}, {Delta: math.NaN()}, {Delta: math.Inf(1)},
	} {
		if _, err := Run(e, q, o); err == nil {
			t.Errorf("options %+v: expected error", o)
		}
		if _, err := Run(e, contractQ, o); err == nil {
			t.Errorf("options %+v, contraction: expected error", o)
		}
		if _, err := ContractContext(context.Background(), e, contractQ, o); err == nil {
			t.Errorf("options %+v, ContractContext: expected error", o)
		}
	}
	badCol := countQ(5, relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "zzz"}, Bound: 1, Width: 1})
	if _, err := Run(e, badCol, Options{}); err == nil {
		t.Error("unknown column: expected error")
	}
}

func TestContraction(t *testing.T) {
	e := lineTable(t, 100)
	// x <= 50 returns 50 rows; constrain COUNT <= 20.
	q := &relq.Query{
		Tables:     []string{"t"},
		Dims:       []relq.Dimension{leDim(50)},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 20},
	}
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatalf("contract: %v", err)
	}
	if !res.Satisfied {
		t.Fatalf("contraction should satisfy: %+v", res)
	}
	// step 10: w=30 → bound 20 → count 20. Minimal contraction.
	if res.Best.Scores[0] != -30 {
		t.Errorf("contraction score = %v, want -30", res.Best.Scores[0])
	}
	if res.Best.Aggregate != 20 {
		t.Errorf("aggregate = %v, want 20", res.Best.Aggregate)
	}
	// Rendered SQL shows the tightened bound.
	sql := res.Best.ToSQL()
	if want := "(t.x <= 20)"; !strings.Contains(sql, want) {
		t.Errorf("ToSQL = %q, want %q inside", sql, want)
	}
}

func TestContractionUnsatisfiableEquality(t *testing.T) {
	e := lineTable(t, 100)
	// Equality dims cannot contract; the search must terminate.
	q := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "t", Column: "x"}, Bound: 5, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLT, Target: 0.5},
	}
	res, err := Run(e, q, Options{Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Errorf("equality predicates cannot contract: %+v", res)
	}
}

func TestExplorerVerifyHook(t *testing.T) {
	e := lineTable(t, 300)
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
	for u := int32(0); u < 8; u++ {
		if err := x.verifyAgainstDirect(x.lat.intern(point{u})); err != nil {
			t.Fatal(err)
		}
	}
}

// §7.1: per-predicate maximum refinement limits cap the corresponding
// refined-space axis.
func TestMaxScoreLimits(t *testing.T) {
	e := lineTable(t, 1000)
	capped := leDim(10)
	capped.MaxScore = 25 // axis ends at 25 score units
	q := countQ(500, capped)
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Fatalf("target needs score 490, cap is 25: %+v", res)
	}
	if res.Closest == nil || res.Closest.Scores[0] > 30+1e-9 {
		t.Errorf("closest exceeded the cap: %+v", res.Closest)
	}

	// With the cap lifted, the same target is reachable.
	q2 := countQ(500, leDim(10))
	res2, err := Run(e, q2, Options{Gamma: 10, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Satisfied || res2.Best.Scores[0] != 490 {
		t.Errorf("uncapped search: %+v", res2.Best)
	}
}

// An infinite value in a refinable column must not collapse the refined
// space: the axis caps are measured against the column's finite
// extremes, and a row with an infinite violation lies in no finite
// prefix. Before, one ±Inf made a cap int(+Inf) — negative — so the
// frontier never left the origin.
func TestInfiniteValueKeepsRefinedSpace(t *testing.T) {
	withRows := func(extra ...float64) *exec.Engine {
		tbl := data.NewTable("t", data.MustSchema(
			data.Column{Name: "x", Type: data.Float64},
			data.Column{Name: "v", Type: data.Float64},
		))
		for i := 1; i <= 100; i++ {
			if err := tbl.AppendRow(data.FloatValue(float64(i)), data.FloatValue(1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range extra {
			if err := tbl.AppendRow(data.FloatValue(x), data.FloatValue(1)); err != nil {
				t.Fatal(err)
			}
		}
		cat := data.NewCatalog()
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
		return exec.New(cat)
	}
	col := relq.ColumnRef{Table: "t", Column: "x"}
	inf, ninf := math.Inf(1), math.Inf(-1)
	cases := []struct {
		name       string
		extra      []float64
		dim        relq.Dimension
		c          relq.Constraint
		wantScore  float64
		wantAgg    float64
		wantPoints int
	}{
		// count(x <= 10+s) = 10+s: 50 at s = 40, the fifth grid point.
		{"LE +Inf", []float64{inf}, leDim(10), relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 50}, 40, 50, 5},
		// count(x >= 91-s) = 10+s, plus the -Inf row nowhere.
		{"GE -Inf", []float64{ninf}, relq.Dimension{Kind: relq.SelectGE, Col: col, Bound: 91, Width: 100},
			relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 50}, 40, 50, 5},
		// count(|x-50| <= s) = 2s+1: 41 at s = 20.
		{"EQ ±Inf", []float64{inf, ninf}, relq.Dimension{Kind: relq.SelectEQ, Col: col, Bound: 50, Width: 100},
			relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 41}, 20, 41, 3},
		// Contraction: x <= 50 holds 50 rows and the -Inf row; COUNT <= 20
		// needs the bound at 10 (w = 40): 11 rows, the -Inf row included.
		{"contract LE -Inf", []float64{ninf}, leDim(50), relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 20}, -40, 11, 5},
	}
	for _, tc := range cases {
		e := withRows(tc.extra...)
		q := &relq.Query{Tables: []string{"t"}, Dims: []relq.Dimension{tc.dim}, Constraint: tc.c}
		res, err := Run(e, q, Options{Gamma: 10, Delta: 0.001})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Satisfied {
			t.Errorf("%s: unsatisfied after %d explored (exhausted=%v)", tc.name, res.Explored, res.Exhausted)
			continue
		}
		if res.Best.Scores[0] != tc.wantScore || res.Best.Aggregate != tc.wantAgg || res.Explored != tc.wantPoints {
			t.Errorf("%s: best score %v aggregate %v after %d explored, want %v, %v, %d", tc.name,
				res.Best.Scores[0], res.Best.Aggregate, res.Explored, tc.wantScore, tc.wantAgg, tc.wantPoints)
		}
	}
}
