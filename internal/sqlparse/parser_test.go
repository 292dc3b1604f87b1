package sqlparse

import (
	"math"
	"strings"
	"testing"

	"acquire/internal/data"
	"acquire/internal/relq"
	"acquire/internal/tpch"
)

func TestLexer(t *testing.T) {
	toks, err := lex("SELECT * FROM t WHERE (x <= 10.5) AND s = 'it''s' AND n >= 0.1M")
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	// Spot checks.
	found := false
	for _, tk := range toks {
		if tk.kind == tkString && tk.text == "it's" {
			found = true
		}
	}
	if !found {
		t.Error("escaped string not lexed")
	}
	for _, tk := range toks {
		if tk.kind == tkNumber && tk.num == 1e5 {
			found = true
		}
	}
	if !found {
		t.Error("0.1M suffix not lexed as 1e5")
	}
	_ = kinds
}

func TestLexerErrors(t *testing.T) {
	for _, in := range []string{"'unterminated", "a ! b", "x = 1Mx", "x @ y"} {
		if _, err := lex(in); err == nil {
			t.Errorf("lex(%q): expected error", in)
		}
	}
}

func TestLexerNumberForms(t *testing.T) {
	cases := map[string]float64{
		"42":    42,
		"-1.5":  -1.5,
		"2K":    2000,
		"1M":    1e6,
		"3B":    3e9,
		"1e3":   1000,
		"2.5e2": 250,
		".5":    0.5,
	}
	for in, want := range cases {
		toks, err := lex(in)
		if err != nil {
			t.Errorf("lex(%q): %v", in, err)
			continue
		}
		if toks[0].kind != tkNumber || toks[0].num != want {
			t.Errorf("lex(%q) = %v (%v), want %v", in, toks[0].num, toks[0].kind, want)
		}
	}
}

func TestParsePaperQ1(t *testing.T) {
	// Q1' from the paper (numeric-adapted): the ad-campaign ACQ.
	sql := `SELECT * FROM users
	CONSTRAINT COUNT(*) = 1M
	WHERE (gender = 'Women') NOREFINE AND (25 <= age <= 35)
	AND (location IN ('Boston', 'New York', 'Seattle')) NOREFINE`
	ast, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ast.Tables) != 1 || ast.Tables[0] != "users" {
		t.Errorf("tables = %v", ast.Tables)
	}
	if ast.Agg.FuncName != "COUNT" || !ast.Agg.Star || ast.Agg.Target != 1e6 {
		t.Errorf("agg = %+v", ast.Agg)
	}
	if len(ast.Preds) != 3 {
		t.Fatalf("preds = %d", len(ast.Preds))
	}
	if !ast.Preds[0].NoRefine || ast.Preds[0].kind != pkStrEq {
		t.Errorf("pred 0 = %+v", ast.Preds[0])
	}
	if ast.Preds[1].kind != pkRange || ast.Preds[1].Lo != 25 || ast.Preds[1].Hi != 35 || ast.Preds[1].NoRefine {
		t.Errorf("pred 1 = %+v", ast.Preds[1])
	}
	if ast.Preds[2].kind != pkIn || len(ast.Preds[2].Strings) != 3 || !ast.Preds[2].NoRefine {
		t.Errorf("pred 2 = %+v", ast.Preds[2])
	}
}

func TestParsePaperQ2(t *testing.T) {
	sql := `SELECT * FROM supplier, part, partsupp
	CONSTRAINT SUM(ps_availqty) >= 0.1M
	WHERE (s_suppkey = ps_suppkey) NOREFINE AND
	(p_partkey = ps_partkey) NOREFINE AND
	(p_retailprice < 1000) AND (s_acctbal < 2000)
	AND (p_size = 10) NOREFINE AND
	(p_type = 'SMALL BURNISHED STEEL') NOREFINE`
	ast, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(ast.Tables) != 3 {
		t.Errorf("tables = %v", ast.Tables)
	}
	if ast.Agg.FuncName != "SUM" || ast.Agg.Op != ">=" || ast.Agg.Target != 1e5 {
		t.Errorf("agg = %+v", ast.Agg)
	}
	if len(ast.Preds) != 6 {
		t.Fatalf("preds = %d", len(ast.Preds))
	}
	if ast.Preds[0].kind != pkCmp || ast.Preds[0].LCol == nil || ast.Preds[0].RCol == nil {
		t.Errorf("join pred 0 = %+v", ast.Preds[0])
	}
}

func TestParseBetweenAndCoef(t *testing.T) {
	ast, err := Parse(`SELECT * FROM a, b CONSTRAINT COUNT(*) = 5
	WHERE x BETWEEN 1 AND 9 AND 2*a.u = 3*b.v`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if ast.Preds[0].kind != pkRange || ast.Preds[0].Lo != 1 || ast.Preds[0].Hi != 9 {
		t.Errorf("between = %+v", ast.Preds[0])
	}
	j := ast.Preds[1]
	if j.kind != pkCmp || j.LCol.Coef != 2 || j.RCol.Coef != 3 || j.LCol.Table != "a" {
		t.Errorf("coef join = %+v", j)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT x FROM t CONSTRAINT COUNT(*)=1",
		"SELECT * FROM CONSTRAINT COUNT(*)=1",
		"SELECT * FROM t",                                         // missing CONSTRAINT
		"SELECT * FROM t CONSTRAINT COUNT(*)",                     // missing op
		"SELECT * FROM t CONSTRAINT COUNT(*) = ",                  // missing target
		"SELECT * FROM t CONSTRAINT COUNT(*) = 1 WHERE",           // empty WHERE
		"SELECT * FROM t CONSTRAINT COUNT(*) = 1 WHERE 1=2",       // const vs const
		"SELECT * FROM t CONSTRAINT COUNT(*) = 1 WHERE (x<1",      // unbalanced paren
		"SELECT * FROM t CONSTRAINT COUNT(*) = 1 WHERE 1 < x > 2", // bad range ops
		"SELECT * FROM select CONSTRAINT COUNT(*) = 1",            // reserved table
		"SELECT * FROM t CONSTRAINT COUNT(*) = 1 WHERE x < 1 garbage",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func analyzeCat(t *testing.T) *data.Catalog {
	t.Helper()
	cat, err := tpch.Generate(tpch.Config{Rows: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestAnalyzeQ2(t *testing.T) {
	cat := analyzeCat(t)
	q, err := ParseAndAnalyze(`SELECT * FROM supplier, part, partsupp
	CONSTRAINT SUM(ps_availqty) >= 0.1M
	WHERE (s_suppkey = ps_suppkey) NOREFINE AND
	(p_partkey = ps_partkey) NOREFINE AND
	(p_retailprice < 1000) AND (s_acctbal < 2000)
	AND (p_size = 10) NOREFINE AND
	(p_type = 'SMALL BURNISHED STEEL') NOREFINE`, cat)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	if q.Constraint.Func != relq.AggSum || q.Constraint.Attr.Column != "ps_availqty" ||
		q.Constraint.Attr.Table != "partsupp" {
		t.Errorf("constraint = %+v", q.Constraint)
	}
	if len(q.Dims) != 2 {
		t.Fatalf("dims = %d, want 2", len(q.Dims))
	}
	// p_retailprice < 1000: interval anchored at domain min (§2.2).
	d := q.Dims[0]
	if d.Kind != relq.SelectLE || d.Col.Column != "p_retailprice" || d.Bound != 1000 {
		t.Errorf("dim 0 = %+v", d)
	}
	part, _ := cat.Table("part")
	stats, _ := part.Stats(part.Schema().Ordinal("p_retailprice"))
	wantWidth := 1000 - stats.Min
	if math.Abs(d.Width-wantWidth) > 1e-9 {
		t.Errorf("dim 0 width = %v, want %v", d.Width, wantWidth)
	}
	// NOREFINE produced fixed predicates.
	if len(q.Fixed) != 4 {
		t.Errorf("fixed = %d, want 4", len(q.Fixed))
	}
	kinds := map[relq.FixedKind]int{}
	for _, f := range q.Fixed {
		kinds[f.Kind]++
	}
	if kinds[relq.FixedEquiJoin] != 2 || kinds[relq.FixedRange] != 1 || kinds[relq.FixedStringIn] != 1 {
		t.Errorf("fixed kinds = %v", kinds)
	}
}

func TestAnalyzeRangeSplit(t *testing.T) {
	cat := analyzeCat(t)
	q, err := ParseAndAnalyze(`SELECT * FROM part CONSTRAINT COUNT(*) = 50
	WHERE 10 <= p_size <= 20`, cat)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	if len(q.Dims) != 2 {
		t.Fatalf("range should split into 2 dims, got %d", len(q.Dims))
	}
	if q.Dims[0].Kind != relq.SelectGE || q.Dims[0].Bound != 10 || q.Dims[0].Width != 10 {
		t.Errorf("lo dim = %+v", q.Dims[0])
	}
	if q.Dims[1].Kind != relq.SelectLE || q.Dims[1].Bound != 20 || q.Dims[1].Width != 10 {
		t.Errorf("hi dim = %+v", q.Dims[1])
	}
}

func TestAnalyzeRefinableJoinAndEquality(t *testing.T) {
	cat := analyzeCat(t)
	q, err := ParseAndAnalyze(`SELECT * FROM part, partsupp CONSTRAINT COUNT(*) = 10
	WHERE p_partkey = ps_partkey AND p_size = 10`, cat)
	if err != nil {
		t.Fatalf("ParseAndAnalyze: %v", err)
	}
	if len(q.Dims) != 2 {
		t.Fatalf("dims = %d", len(q.Dims))
	}
	if q.Dims[0].Kind != relq.JoinBand || q.Dims[0].Width != 100 {
		t.Errorf("join dim = %+v", q.Dims[0])
	}
	if q.Dims[1].Kind != relq.SelectEQ || q.Dims[1].Width != 100 {
		t.Errorf("eq dim = %+v", q.Dims[1])
	}
}

func TestAnalyzeFlippedComparison(t *testing.T) {
	cat := analyzeCat(t)
	q, err := ParseAndAnalyze(`SELECT * FROM part CONSTRAINT COUNT(*) = 10
	WHERE 1000 > p_retailprice`, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Dims) != 1 || q.Dims[0].Kind != relq.SelectLE || q.Dims[0].Bound != 1000 {
		t.Errorf("flipped dim = %+v", q.Dims)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cat := analyzeCat(t)
	bad := []string{
		`SELECT * FROM nosuch CONSTRAINT COUNT(*) = 1`,
		`SELECT * FROM part CONSTRAINT COUNT(*) = 1 WHERE nocol < 5`,
		`SELECT * FROM part CONSTRAINT SUM(*) = 1`,
		`SELECT * FROM part CONSTRAINT STDDEV(p_size) = 1`,
		`SELECT * FROM part CONSTRAINT COUNT(*) <> 1`,
		`SELECT * FROM part CONSTRAINT COUNT(*) = 1 WHERE p_type < 5`,
		`SELECT * FROM part CONSTRAINT COUNT(*) = 1 WHERE p_size = 'x' AND p_size < 3`,
		`SELECT * FROM part, partsupp CONSTRAINT COUNT(*) = 1 WHERE p_partkey < ps_partkey`,
		`SELECT * FROM part CONSTRAINT COUNT(*) = 1 WHERE 9 <= p_size <= 2`,
		`SELECT * FROM part CONSTRAINT COUNT(*) = 1 WHERE 2*p_size < 7`,
		`SELECT * FROM part, partsupp CONSTRAINT COUNT(*) = 1 WHERE p_type IN ('A') AND p_partkey = nokey`,
	}
	for _, sql := range bad {
		if _, err := ParseAndAnalyze(sql, cat); err == nil {
			t.Errorf("ParseAndAnalyze(%q): expected error", sql)
		}
	}
}

// Round-trip: Analyze then render via relq.ToSQL, reparse, re-analyze;
// resulting queries must be structurally identical.
func TestSQLRoundTrip(t *testing.T) {
	cat := analyzeCat(t)
	sqls := []string{
		`SELECT * FROM part CONSTRAINT COUNT(*) = 50 WHERE p_retailprice <= 1200 AND (p_size >= 10) NOREFINE`,
		`SELECT * FROM part, partsupp CONSTRAINT SUM(ps_availqty) >= 1000 WHERE (p_partkey = ps_partkey) NOREFINE AND p_retailprice <= 1500`,
		`SELECT * FROM part CONSTRAINT AVG(p_retailprice) = 1400 WHERE p_size <= 25`,
	}
	for _, sql := range sqls {
		q1, err := ParseAndAnalyze(sql, cat)
		if err != nil {
			t.Fatalf("first analyze of %q: %v", sql, err)
		}
		rendered := q1.ToSQL()
		q2, err := ParseAndAnalyze(rendered, cat)
		if err != nil {
			t.Fatalf("reparse of %q: %v", rendered, err)
		}
		if len(q1.Dims) != len(q2.Dims) || len(q1.Fixed) != len(q2.Fixed) {
			t.Errorf("round trip changed shape:\n  %s\n  %s", sql, rendered)
			continue
		}
		for i := range q1.Dims {
			a, b := q1.Dims[i], q2.Dims[i]
			if a.Kind != b.Kind || a.Col != b.Col || a.Bound != b.Bound {
				t.Errorf("dim %d differs: %+v vs %+v", i, a, b)
			}
		}
		if q1.Constraint != q2.Constraint {
			t.Errorf("constraint differs: %+v vs %+v", q1.Constraint, q2.Constraint)
		}
	}
}

func TestLineComments(t *testing.T) {
	cat := analyzeCat(t)
	q, err := ParseAndAnalyze(`SELECT * FROM part -- the catalog
	CONSTRAINT COUNT(*) = 10 -- audience size
	WHERE p_retailprice < 1000 -- budget cap
	AND p_size >= -5`, cat)
	if err != nil {
		t.Fatalf("ParseAndAnalyze with comments: %v", err)
	}
	if len(q.Dims) != 2 {
		t.Errorf("dims = %d", len(q.Dims))
	}
	if q.Dims[1].Bound != -5 {
		t.Errorf("negative bound parsed as %v", q.Dims[1].Bound)
	}
}

func TestFuncNames(t *testing.T) {
	if !strings.Contains(FuncNames(), "COUNT") {
		t.Error("FuncNames missing COUNT")
	}
}

// An infinite value must not make Eq. 1's width infinite: then 100/Width
// is 0, every violation is 0 and the predicate admits every row. The
// width is anchored at the column's finite extremes, so x <= 10 over
// x = 1..100 plus -Inf keeps its 11 rows (the -Inf row included) and
// x >= 91 plus +Inf its 11.
func TestAnalyzeInfiniteValueKeepsPredicate(t *testing.T) {
	for _, tc := range []struct {
		extra float64
		pred  string
		width float64
	}{{math.Inf(-1), "t.x <= 10", 9}, {math.Inf(1), "t.x >= 91", 9}} {
		tbl := data.NewTable("t", data.MustSchema(data.Column{Name: "x", Type: data.Float64}))
		for i := 1; i <= 100; i++ {
			if err := tbl.AppendRow(data.FloatValue(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.AppendRow(data.FloatValue(tc.extra)); err != nil {
			t.Fatal(err)
		}
		cat := data.NewCatalog()
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
		q, err := ParseAndAnalyze("SELECT * FROM t CONSTRAINT COUNT(*) = 50 WHERE "+tc.pred, cat)
		if err != nil {
			t.Fatal(err)
		}
		d := q.Dims[0]
		if d.Width != tc.width {
			t.Errorf("%s: width %v, want %v", tc.pred, d.Width, tc.width)
		}
		admitted := 0
		for i := 0; i < tbl.NumRows(); i++ {
			if d.Violation(tbl.ValueAt(i, 0).F) == 0 {
				admitted++
			}
		}
		if admitted != 11 {
			t.Errorf("%s: original query admits %d rows, want 11", tc.pred, admitted)
		}
	}
}
