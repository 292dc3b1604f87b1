package exec

import (
	"strings"
	"testing"

	"acquire/internal/data"
	"acquire/internal/relq"
)

func TestExplainSingleTable(t *testing.T) {
	cat := smallCatalog(t, 10, 400, 51)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 400, Width: 2000, // selective: index range scan expected
	})
	plan, err := e.Explain(q, relq.PrefixRegion([]float64{0}))
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(plan.Steps) != 1 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	s := plan.Steps[0]
	if s.Access != "index range scan" || s.DrivingColumn != "p_retailprice" {
		t.Errorf("step = %+v", s)
	}
	if s.EstimatedRows <= 0 || s.EstimatedRows > 400 {
		t.Errorf("estimate = %d", s.EstimatedRows)
	}

	// A wide-open predicate degrades to a full scan.
	q2 := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 5000, Width: 2000,
	})
	plan2, err := e.Explain(q2, relq.PrefixRegion([]float64{0}))
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Steps[0].Access != "full scan" {
		t.Errorf("wide predicate should full-scan: %+v", plan2.Steps[0])
	}

	rendered := plan.String()
	if !strings.Contains(rendered, "index range scan on p_retailprice") {
		t.Errorf("rendered plan:\n%s", rendered)
	}
}

func TestExplainJoinOrder(t *testing.T) {
	cat := smallCatalog(t, 10, 100, 52)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"supplier", "part", "partsupp"},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_suppkey"}},
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_partkey"}},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	plan, err := e.Explain(q, relq.Region{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 {
		t.Fatalf("steps = %d", len(plan.Steps))
	}
	if plan.Steps[0].Join != "" {
		t.Errorf("first table has no join: %+v", plan.Steps[0])
	}
	for _, s := range plan.Steps[1:] {
		if s.Join != "hash equi-join" {
			t.Errorf("expected hash equi-join: %+v", s)
		}
	}
}

func TestExplainGridSkipAndBand(t *testing.T) {
	cat := smallCatalog(t, 30, 300, 53)
	e := New(cat)
	if err := e.BuildGridIndex("part", []string{"p_retailprice"}, 32); err != nil {
		t.Fatal(err)
	}
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 5000, Width: 2000, // beyond domain: expansion cells are empty
	})
	plan, err := e.Explain(q, relq.CellRegion([]int{2}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[0].Access != "grid-index skip" {
		t.Errorf("expected grid-index skip: %+v", plan.Steps[0])
	}
	e.DropGridIndex("part")

	// Band-join attachment.
	jq := &relq.Query{
		Tables: []string{"supplier", "part"},
		Dims: []relq.Dimension{
			{Kind: relq.JoinBand,
				Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
				Right: relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	plan, err = e.Explain(jq, relq.PrefixRegion([]float64{5}))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[1].Join != "band join" {
		t.Errorf("expected band join: %+v", plan.Steps[1])
	}

	// Disconnected tables fall back to cartesian.
	cq := &relq.Query{
		Tables:     []string{"supplier", "part"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	plan, err = e.Explain(cq, relq.Region{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Steps[1].Join != "cartesian" {
		t.Errorf("expected cartesian: %+v", plan.Steps[1])
	}
}

func TestExplainErrors(t *testing.T) {
	cat := smallCatalog(t, 5, 5, 54)
	e := New(cat)
	q := countQuery(relq.Dimension{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "part", Column: "p_retailprice"},
		Bound: 100, Width: 2000,
	})
	if _, err := e.Explain(q, relq.Region{}); err == nil {
		t.Error("region arity: expected error")
	}
	bad := &relq.Query{Tables: []string{"ghost"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}}
	if _, err := e.Explain(bad, relq.Region{}); err == nil {
		t.Error("unknown table: expected error")
	}
}

// TestExplainAgreesWithExecution: Explain reads the access path the
// scan reads (accessPath), so what it reports is what the counters then
// show — on a plain table, and on one clustered over the driving
// column, where a moderately selective drive stays on the zone-pruned
// full scan.
func TestExplainAgreesWithExecution(t *testing.T) {
	plain := sdCatalog(t, 70, 16384, false)
	tbl, err := plain.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := data.SortedBy(tbl, "c")
	if err != nil {
		t.Fatal(err)
	}
	clustered := data.NewCatalog()
	if err := clustered.Register(sorted); err != nil {
		t.Fatal(err)
	}
	q := &relq.Query{
		Tables: []string{"t"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: sdCol("c"), Bound: 10, Width: 100},
			{Kind: relq.SelectLE, Col: sdCol("a"), Bound: 60, Width: 100},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 1},
	}
	regions := []relq.Region{
		relq.PrefixRegion([]float64{0, 0}),   // c <= 10: a narrow drive
		relq.PrefixRegion([]float64{25, 10}), // c <= 35: more than n/8, less than n/2
		relq.PrefixRegion([]float64{70, 30}), // nothing narrows the table to half
		relq.CellRegion([]int{3, 1}, 10),
	}
	for name, cat := range map[string]*data.Catalog{"plain": plain, "clustered": clustered} {
		e := New(cat)
		sawFull, sawIndex := false, false
		for _, r := range regions {
			plan, err := e.Explain(q, r)
			if err != nil {
				t.Fatal(err)
			}
			step := plan.Steps[0]
			before := e.Snapshot()
			if _, err := e.Aggregate(q, r); err != nil {
				t.Fatal(err)
			}
			d := e.Snapshot().Sub(before)
			switch step.Access {
			case "index range scan":
				sawIndex = true
				if d.BlocksScanned+d.BlocksSkipped != 0 || d.RowsScanned != int64(step.EstimatedRows) {
					t.Errorf("%s %v: Explain says %+v, execution counted %+v", name, r, step, d)
				}
			case "full scan":
				sawFull = true
				if d.BlocksScanned+d.BlocksSkipped != int64(numBlocks(tbl.NumRows())) {
					t.Errorf("%s %v: Explain says %+v, execution counted %+v", name, r, step, d)
				}
			default:
				t.Errorf("%s %v: unexpected access %+v", name, r, step)
			}
		}
		if !sawFull || !sawIndex {
			t.Errorf("%s: regions exercised index=%v full=%v, want both", name, sawIndex, sawFull)
		}
	}
	// The layouts disagree on exactly the moderately selective drive.
	pp, err := New(plain).Explain(q, regions[1])
	if err != nil {
		t.Fatal(err)
	}
	cp, err := New(clustered).Explain(q, regions[1])
	if err != nil {
		t.Fatal(err)
	}
	if pp.Steps[0].Access != "index range scan" || cp.Steps[0].Access != "full scan" {
		t.Errorf("c <= 35: plain table %+v, clustered table %+v", pp.Steps[0], cp.Steps[0])
	}
}
