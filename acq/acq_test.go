package acq

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func tpchSession(t *testing.T, rows int) *Session {
	t.Helper()
	s, err := NewTPCHSession(rows, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const q2SQL = `SELECT * FROM supplier, part, partsupp
	CONSTRAINT SUM(ps_availqty) >= 20000
	WHERE (s_suppkey = ps_suppkey) NOREFINE AND
	(p_partkey = ps_partkey) NOREFINE AND
	(p_retailprice < 1000) AND (s_acctbal < 2000)`

func TestEndToEndQ2(t *testing.T) {
	s := tpchSession(t, 4000)
	q, err := s.Parse(q2SQL)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}

	orig, err := s.Estimate(q)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if orig >= 20000 {
		t.Skipf("fixture already satisfies the constraint (%v); adjust target", orig)
	}

	res, err := s.Refine(q, Options{Gamma: 40, Delta: 0.05})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if !res.Satisfied {
		t.Fatalf("refinement failed: %+v", res)
	}
	if res.Best.Aggregate < 20000*(1-0.05) {
		t.Errorf("aggregate %v below hinge tolerance", res.Best.Aggregate)
	}
	sql := res.Best.ToSQL()
	for _, want := range []string{"p_retailprice <=", "s_acctbal <=", "NOREFINE"} {
		if !strings.Contains(sql, want) {
			t.Errorf("refined SQL missing %q:\n%s", want, sql)
		}
	}
	// NOREFINE predicates are untouched.
	if !strings.Contains(sql, "(part.p_partkey = partsupp.ps_partkey) NOREFINE") {
		t.Errorf("fixed join altered:\n%s", sql)
	}
}

func TestRefineSQLAndStats(t *testing.T) {
	s := tpchSession(t, 2000)
	s.ResetStats()
	res, err := s.RefineSQL(`SELECT * FROM part CONSTRAINT COUNT(*) = 300
		WHERE p_retailprice < 1000`, Options{Delta: 0.05})
	if err != nil {
		t.Fatalf("RefineSQL: %v", err)
	}
	if !res.Satisfied {
		t.Fatalf("result: %+v", res)
	}
	st := s.Stats()
	if st.Queries == 0 || st.RowsScanned == 0 {
		t.Errorf("stats not accounted: %+v", st)
	}
}

func TestSessionTables(t *testing.T) {
	s := tpchSession(t, 400)
	names := s.Tables()
	if len(names) != 3 {
		t.Errorf("tables = %v", names)
	}
	n, err := s.TableRows("partsupp")
	if err != nil || n != 400 {
		t.Errorf("TableRows = %d, %v", n, err)
	}
	if _, err := s.TableRows("nope"); err == nil {
		t.Error("unknown table: expected error")
	}
}

func TestCSVRoundTripThroughSession(t *testing.T) {
	s := tpchSession(t, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "part.csv")
	if err := s.SaveCSV("part", path); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	s2 := NewSession()
	if err := s2.LoadCSV("part", path); err != nil {
		t.Fatalf("LoadCSV: %v", err)
	}
	n1, _ := s.TableRows("part")
	n2, _ := s2.TableRows("part")
	if n1 != n2 {
		t.Errorf("rows differ: %d vs %d", n1, n2)
	}
	if err := s.SaveCSV("ghost", filepath.Join(dir, "x.csv")); err == nil {
		t.Error("SaveCSV unknown table: expected error")
	}
	if err := s2.LoadCSV("y", filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("LoadCSV missing file: expected error")
	}
	_ = os.Remove(path)
}

func TestGridIndexThroughSession(t *testing.T) {
	s := tpchSession(t, 2000)
	if err := s.BuildGridIndex("part", []string{"p_retailprice"}, 32); err != nil {
		t.Fatalf("BuildGridIndex: %v", err)
	}
	res, err := s.RefineSQL(`SELECT * FROM part CONSTRAINT COUNT(*) = 400
		WHERE p_retailprice < 1000`, Options{Delta: 0.05})
	if err != nil || !res.Satisfied {
		t.Fatalf("indexed refine: %v %+v", err, res)
	}
	s.DropGridIndex("part")
}

func TestBaselinesThroughSession(t *testing.T) {
	s := tpchSession(t, 2000)
	q, err := s.Parse(`SELECT * FROM part CONSTRAINT COUNT(*) = 300
		WHERE p_retailprice < 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := s.TopK(q); err != nil || !out.Satisfied {
		t.Errorf("TopK: %v %+v", err, out)
	}
	if out, err := s.BinSearch(q, BinSearchOptions{Delta: 0.05}); err != nil || !out.Satisfied {
		t.Errorf("BinSearch: %v %+v", err, out)
	}
	if out, err := s.TQGen(q, TQGenOptions{Delta: 0.05}); err != nil || !out.Satisfied {
		t.Errorf("TQGen: %v %+v", err, out)
	}
}

func TestNormConstructors(t *testing.T) {
	if L1Norm().Score([]float64{1, 2}) != 3 {
		t.Error("L1Norm")
	}
	lp, err := LpNorm(2, nil)
	if err != nil || math.Abs(lp.Score([]float64{3, 4})-5) > 1e-12 {
		t.Errorf("LpNorm: %v", err)
	}
	if LInfNorm(nil).Score([]float64{3, 9}) != 9 {
		t.Error("LInfNorm")
	}
	if CustomNorm("x", func(v []float64) float64 { return v[0] }).Score([]float64{7}) != 7 {
		t.Error("CustomNorm")
	}
	if _, err := LpNorm(0.2, nil); err == nil {
		t.Error("LpNorm p<1: expected error")
	}
}

func TestUDAThroughSession(t *testing.T) {
	if err := RegisterUDA(UDA{
		Name:  "SUMSQ",
		Map:   func(v float64) float64 { return v * v },
		Final: func(p Partial) float64 { return p.User },
	}); err != nil {
		t.Fatalf("RegisterUDA: %v", err)
	}
	s := tpchSession(t, 1000)
	res, err := s.RefineSQL(`SELECT * FROM part CONSTRAINT SUMSQ(p_size) >= 40000
		WHERE p_retailprice < 1000`, Options{Delta: 0.05})
	if err != nil {
		t.Fatalf("UDA refine: %v", err)
	}
	if !res.Satisfied {
		t.Fatalf("UDA result: %+v", res)
	}
}

func TestCategoricalRewrite(t *testing.T) {
	s, err := NewUsersSession(2000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Parse(`SELECT * FROM users CONSTRAINT COUNT(*) = 800
		WHERE (location IN ('Boston', 'New York')) AND age <= 30`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Fixed) != 1 {
		t.Fatalf("fixed = %d", len(q.Fixed))
	}

	tax := geoTaxonomy()
	rq, err := s.RewriteCategorical(q, 0, tax)
	if err != nil {
		t.Fatalf("RewriteCategorical: %v", err)
	}
	if len(rq.Fixed) != 0 || len(rq.Dims) != 2 {
		t.Fatalf("rewrite shape: fixed=%d dims=%d", len(rq.Fixed), len(rq.Dims))
	}
	res, err := s.Refine(rq, Options{Gamma: 12, Delta: 0.05})
	if err != nil {
		t.Fatalf("categorical refine: %v", err)
	}
	if !res.Satisfied && res.Closest == nil {
		t.Fatalf("categorical refine produced nothing: %+v", res)
	}

	// Error paths.
	if _, err := s.RewriteCategorical(q, 5, tax); err == nil {
		t.Error("index out of range: expected error")
	}
}

// geoTaxonomy is a geography taxonomy à la Figure 7(a).
func geoTaxonomy() *Taxonomy {
	tax := NewTaxonomy("World")
	tax.MustAdd("World", "EastCoast")
	tax.MustAdd("World", "WestCoast")
	tax.MustAdd("World", "Central")
	tax.MustAdd("EastCoast", "Boston")
	tax.MustAdd("EastCoast", "New York")
	tax.MustAdd("EastCoast", "Miami")
	tax.MustAdd("WestCoast", "Seattle")
	tax.MustAdd("WestCoast", "Portland")
	tax.MustAdd("Central", "Austin")
	tax.MustAdd("Central", "Chicago")
	tax.MustAdd("Central", "Denver")
	return tax
}

// A categorical rewrite reaches the active evaluation layer: after
// UseSampling or UseHistograms, the rewritten query refines over the
// new distance column, exactly as on a session that switched to the
// same layer only after the rewrite.
func TestCategoricalRewriteEveryLayer(t *testing.T) {
	const sql = `SELECT * FROM users CONSTRAINT COUNT(*) = 800
		WHERE (location IN ('Boston', 'New York')) AND age <= 30`
	layers := map[string]func(s *Session) error{
		"exact":      func(s *Session) error { s.UseExact(); return nil },
		"sampling":   func(s *Session) error { return s.UseSampling(0.5, 11) },
		"histograms": func(s *Session) error { return s.UseHistograms(16) },
	}
	for name, use := range layers {
		t.Run(name, func(t *testing.T) {
			refine := func(useFirst bool) *Result {
				s, err := NewUsersSession(2000, 0, 3)
				if err != nil {
					t.Fatal(err)
				}
				if useFirst {
					if err := use(s); err != nil {
						t.Fatal(err)
					}
				}
				q, err := s.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				rq, err := s.RewriteCategorical(q, 0, geoTaxonomy())
				if err != nil {
					t.Fatal(err)
				}
				if !useFirst {
					if err := use(s); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.Refine(rq, Options{Gamma: 12, Delta: 0.05})
				if err != nil {
					t.Fatalf("refine after the rewrite: %v", err)
				}
				return res
			}
			before, after := refine(true), refine(false)
			if !before.Satisfied && before.Closest == nil {
				t.Fatalf("refine produced nothing: %+v", before)
			}
			if before.Satisfied != after.Satisfied || !reflect.DeepEqual(before.Queries, after.Queries) {
				t.Errorf("layer chosen before the rewrite refines differently:\n%+v\nafter: %+v", before.Queries, after.Queries)
			}
		})
	}
}

func TestExplainPlanThroughSession(t *testing.T) {
	s := tpchSession(t, 2000)
	q, err := s.Parse(`SELECT * FROM supplier, part, partsupp
		CONSTRAINT COUNT(*) = 100
		WHERE (s_suppkey = ps_suppkey) NOREFINE AND (p_partkey = ps_partkey) NOREFINE
		AND p_retailprice < 1000`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.ExplainPlan(q)
	if err != nil {
		t.Fatalf("ExplainPlan: %v", err)
	}
	rendered := plan.String()
	for _, want := range []string{"supplier", "part", "partsupp", "hash equi-join"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan missing %q:\n%s", want, rendered)
		}
	}
}

func TestExplainHelper(t *testing.T) {
	s := tpchSession(t, 1000)
	q, err := s.Parse(`SELECT * FROM part CONSTRAINT COUNT(*) = 100 WHERE p_retailprice < 1200`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Refine(q, Options{Delta: 0.05, Gamma: 30})
	if err != nil {
		t.Fatal(err)
	}
	if out := Explain(q, res); !strings.Contains(out, "explored") {
		t.Errorf("Explain output:\n%s", out)
	}
}
