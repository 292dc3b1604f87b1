package baseline

import (
	"math"
	"testing"

	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/relq"
)

// lineEngine builds t(x, y) where x = 1..n and y = n..1, so
// COUNT(x <= a AND y <= b) is computable by hand and the two
// dimensions pull in opposite directions.
func lineEngine(t testing.TB, n int) *exec.Engine {
	t.Helper()
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
	))
	for i := 1; i <= n; i++ {
		if err := tbl.AppendRow(data.FloatValue(float64(i)), data.FloatValue(float64(n+1-i))); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return exec.New(cat)
}

func leDim(col string, bound float64) relq.Dimension {
	return relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: col}, Bound: bound, Width: 100}
}

func countQuery(target float64, dims ...relq.Dimension) *relq.Query {
	return &relq.Query{
		Tables:     []string{"t"},
		Dims:       dims,
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: target},
	}
}

func TestTopK(t *testing.T) {
	e := lineEngine(t, 100)
	// x <= 10 admits rows 1..10 with violation 0; target 25 selects the
	// 25 least-violating rows (x = 1..25).
	q := countQuery(25, leDim("x", 10))
	out, err := TopK(e, q)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if !out.Satisfied || out.Aggregate != 25 || out.Err != 0 {
		t.Errorf("outcome = %+v", out)
	}
	// Induced refinement: row x=25 violates by 15 (Width 100).
	if math.Abs(out.Scores[0]-15) > 1e-9 {
		t.Errorf("induced refinement = %v, want 15", out.Scores[0])
	}
	if out.Executions != 1 {
		t.Errorf("executions = %d, want 1 (single ranked scan)", out.Executions)
	}
}

func TestTopKShortTable(t *testing.T) {
	e := lineEngine(t, 10)
	q := countQuery(50, leDim("x", 5))
	out, err := TopK(e, q)
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfied || out.Aggregate != 10 {
		t.Errorf("short table outcome = %+v", out)
	}
	if out.Err <= 0 {
		t.Errorf("err = %v, want positive undershoot", out.Err)
	}
}

func TestTopKRejections(t *testing.T) {
	e := lineEngine(t, 10)
	sum := countQuery(5, leDim("x", 5))
	sum.Constraint = relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "t", Column: "x"}, Op: relq.CmpGE, Target: 5}
	if _, err := TopK(e, sum); err == nil {
		t.Error("SUM constraint: expected error")
	}
	jq := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.JoinBand, Left: relq.ColumnRef{Table: "t", Column: "x"}, Right: relq.ColumnRef{Table: "u", Column: "x"}, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 5},
	}
	if _, err := TopK(e, jq); err == nil {
		t.Error("join refinement: expected error")
	}
}

func TestBinSearchConverges(t *testing.T) {
	e := lineEngine(t, 1000)
	q := countQuery(400, leDim("x", 100))
	out, err := BinSearch(e, q, BinSearchOptions{Delta: 0.01})
	if err != nil {
		t.Fatalf("BinSearch: %v", err)
	}
	if !out.Satisfied {
		t.Fatalf("outcome = %+v", out)
	}
	if math.Abs(out.Aggregate-400) > 400*0.01 {
		t.Errorf("aggregate = %v, want 400±1%%", out.Aggregate)
	}
	// One predicate: refinement should land near 300 score units.
	if math.Abs(out.Scores[0]-300) > 20 {
		t.Errorf("scores = %v, want ≈300", out.Scores)
	}
}

func TestBinSearchOrderSensitivity(t *testing.T) {
	e := lineEngine(t, 1000)
	// x <= 100 (count 100), y <= 0 (count 0 alone). Joint count of
	// (x <= a, y <= b): rows i with i <= a and 1001-i <= b, i.e.
	// max(0, min(a, 1000) - (1001-b) + 1).
	q := countQuery(300, leDim("x", 100), leDim("y", 0))
	first, err := BinSearch(e, q, BinSearchOptions{Delta: 0.01, Order: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := BinSearch(e, q, BinSearchOptions{Delta: 0.01, Order: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Both run; the refinements they produce differ with order —
	// the §8.4.1 instability in miniature.
	if first.QScore == second.QScore && first.Err == second.Err {
		t.Logf("orders coincidentally agreed: %+v vs %+v", first, second)
	}
	if !first.Satisfied && !second.Satisfied {
		t.Errorf("neither order satisfied: %+v %+v", first, second)
	}
}

func TestBinSearchValidation(t *testing.T) {
	e := lineEngine(t, 10)
	q := countQuery(5, leDim("x", 5))
	if _, err := BinSearch(e, q, BinSearchOptions{Order: []int{0, 1}}); err == nil {
		t.Error("order arity: expected error")
	}
	if _, err := BinSearch(e, q, BinSearchOptions{Order: []int{5}}); err == nil {
		t.Error("order out of range: expected error")
	}
}

func TestBinSearchUnreachableTarget(t *testing.T) {
	e := lineEngine(t, 100)
	q := countQuery(1e6, leDim("x", 10))
	out, err := BinSearch(e, q, BinSearchOptions{Delta: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if out.Satisfied {
		t.Errorf("cannot satisfy: %+v", out)
	}
	if out.Aggregate != 100 {
		t.Errorf("closest aggregate = %v, want 100 (full expansion)", out.Aggregate)
	}
}

func TestTQGenConverges(t *testing.T) {
	e := lineEngine(t, 1000)
	q := countQuery(400, leDim("x", 100))
	out, err := TQGen(e, q, TQGenOptions{Delta: 0.01})
	if err != nil {
		t.Fatalf("TQGen: %v", err)
	}
	if !out.Satisfied {
		t.Fatalf("outcome = %+v", out)
	}
	if math.Abs(out.Aggregate-400) > 400*0.01 {
		t.Errorf("aggregate = %v", out.Aggregate)
	}
}

func TestTQGenExponentialExecutions(t *testing.T) {
	e := lineEngine(t, 200)
	one := countQuery(150, leDim("x", 100))
	two := countQuery(150, leDim("x", 100), leDim("y", 100))
	o1, err := TQGen(e, one, TQGenOptions{Delta: 1e-9, GridK: 4, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := TQGen(e, two, TQGenOptions{Delta: 1e-9, GridK: 4, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	// k^d per round: 4 vs 16 (Figure 9.a's exponential growth).
	if o2.Executions < 3*o1.Executions {
		t.Errorf("executions %d vs %d: expected k^d growth", o1.Executions, o2.Executions)
	}
}

func TestTQGenGridValues(t *testing.T) {
	vs := gridValues(0, 10, 5)
	if len(vs) != 5 || vs[0] != 0 || vs[4] != 10 {
		t.Errorf("gridValues = %v", vs)
	}
	if vs := gridValues(3, 3, 5); len(vs) != 1 || vs[0] != 3 {
		t.Errorf("degenerate gridValues = %v", vs)
	}
	if vs := gridValues(0, 10, 1); len(vs) != 1 || vs[0] != 5 {
		t.Errorf("k=1 gridValues = %v", vs)
	}
}

func TestOutcomesComparableAcrossMethods(t *testing.T) {
	e := lineEngine(t, 500)
	q := countQuery(200, leDim("x", 50))
	delta := 0.05

	topk, err := TopK(e, q)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := BinSearch(e, q, BinSearchOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := TQGen(e, q, TQGenOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Outcome{topk, bs, tq} {
		if !o.Satisfied {
			t.Errorf("%s failed to satisfy an easy target: %+v", o.Method, o)
		}
		if len(o.Scores) != 1 {
			t.Errorf("%s scores = %v", o.Method, o.Scores)
		}
	}
	// TQGen executes far more queries than BinSearch (§8.4.1).
	if tq.Executions <= bs.Executions {
		t.Errorf("TQGen executions %d should exceed BinSearch %d", tq.Executions, bs.Executions)
	}
}

// TestBaselinesOnInfiniteColumn: a +Inf value must not stretch the
// search bound. BinSearch and TQGen bound each dimension where ACQUIRE
// does — the domain of its finite values (core.DomainScores) — so on
// t(x) with x = 1..99 plus one +Inf row both satisfy COUNT(*) = 25 over
// x <= 10 with a finite refinement, instead of bisecting [0, +Inf] or
// gridding it into NaN scores.
func TestBaselinesOnInfiniteColumn(t *testing.T) {
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
	))
	for i := 0; i <= 99; i++ {
		x := float64(i)
		if i == 0 {
			x = math.Inf(1)
		}
		if err := tbl.AppendRow(data.FloatValue(x), data.FloatValue(0)); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	e := exec.New(cat)
	q := countQuery(25, leDim("x", 10))
	bs, err := BinSearch(e, q, BinSearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tq, err := TQGen(e, q, TQGenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []*Outcome{bs, tq} {
		if !out.Satisfied || math.IsNaN(out.QScore) || math.IsInf(out.QScore, 0) || out.QScore > 89 {
			t.Errorf("%s: %+v, want a satisfied refinement within the finite domain (score <= 89)", out.Method, out)
		}
	}
}
