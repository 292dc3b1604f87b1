package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acquire/acq"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(context.Background(), args, &sb, io.Discard)
	return sb.String(), err
}

func TestRunTPCH(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "tpch", "-rows", "3000", "-gamma", "30",
		"-sql", `SELECT * FROM part CONSTRAINT COUNT(*) = 400 WHERE p_retailprice < 1200`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"original query aggregate", "satisfy the constraint", "p_retailprice <="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunExplainAndShow(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "users", "-rows", "2000", "-explain", "-show", "2",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 900 WHERE age <= 30`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"seq", "outcome", "result rows", "users.age"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCountsSearchWorkOnly: the final line reports the executions and
// rows of the search alone — what a library caller measures around
// Refine — not the session's totals, which also hold the Estimate call
// that prints the original aggregate.
func TestRunCountsSearchWorkOnly(t *testing.T) {
	const sql = `SELECT * FROM users CONSTRAINT COUNT(*) = 900 WHERE age <= 30`
	out, err := runCLI(t, "-dataset", "users", "-rows", "2000", "-sql", sql)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var explored, execs, rows int64
	i := strings.Index(out, "explored ")
	if i < 0 {
		t.Fatalf("no explored line:\n%s", out)
	}
	if _, err := fmt.Sscanf(out[i:], "explored %d refined queries via %d evaluation-layer executions (%d rows scanned)",
		&explored, &execs, &rows); err != nil {
		t.Fatalf("parse %q: %v", out[i:], err)
	}

	s, err := acq.NewUsersSession(2000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	res, err := s.Refine(q, acq.Options{Gamma: 10, Delta: 0.05, Norm: acq.L1Norm()})
	if err != nil {
		t.Fatal(err)
	}
	want := s.Stats().Sub(before)
	if explored != int64(res.Explored) || execs != want.Queries || rows != want.RowsScanned {
		t.Errorf("CLI reports %d explored, %d executions, %d rows; the search did %d, %d, %d",
			explored, execs, rows, res.Explored, want.Queries, want.RowsScanned)
	}
}

func TestRunNorms(t *testing.T) {
	for _, norm := range []string{"l1", "l2", "linf"} {
		out, err := runCLI(t,
			"-dataset", "users", "-rows", "1000", "-norm", norm,
			"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 400 WHERE age <= 30 AND income <= 60000`)
		if err != nil {
			t.Fatalf("norm %s: %v", norm, err)
		}
		if !strings.Contains(out, "explored") {
			t.Errorf("norm %s output:\n%s", norm, out)
		}
	}
}

func TestRunGridIndexFlag(t *testing.T) {
	_, err := runCLI(t,
		"-dataset", "users", "-rows", "1000", "-gridindex", "users:age,income:16",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 400 WHERE age <= 30`)
	if err != nil {
		t.Fatalf("run with grid index: %v", err)
	}
}

func TestRunLoadCSV(t *testing.T) {
	dir := t.TempDir()
	// Produce a CSV via a session save, then load it through -load.
	csv := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(csv, []byte("x:DOUBLE\n1\n2\n3\n4\n5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t,
		"-load", "t="+csv,
		"-sql", `SELECT * FROM t CONSTRAINT COUNT(*) = 4 WHERE x <= 2`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "satisfy the constraint") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunUnsatisfiable(t *testing.T) {
	out, err := runCLI(t,
		"-dataset", "users", "-rows", "500",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 1M WHERE age <= 30`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "no refinement met the constraint") || !strings.Contains(out, "closest query") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunTaxonomy(t *testing.T) {
	dir := t.TempDir()
	outline := filepath.Join(dir, "geo.txt")
	if err := os.WriteFile(outline, []byte(
		"US\n  East\n    Boston\n    New York\n    Miami\n  West\n    Seattle\n    Portland\n  Central\n    Austin\n    Chicago\n    Denver\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCLI(t,
		"-dataset", "users", "-rows", "3000", "-taxonomy", "location="+outline, "-gamma", "8",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 1200 WHERE location IN ('Boston', 'New York') AND age <= 40`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "location__dist") {
		t.Errorf("expected taxonomy-distance dimension in output:\n%s", out)
	}

	// Errors: malformed flag, missing file, no matching predicate.
	if _, err := runCLI(t, "-dataset", "users", "-rows", "100", "-taxonomy", "nope",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 10 WHERE age <= 40`); err == nil {
		t.Error("malformed -taxonomy: expected error")
	}
	if _, err := runCLI(t, "-dataset", "users", "-rows", "100", "-taxonomy", "location=/missing.txt",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 10 WHERE location IN ('Boston')`); err == nil {
		t.Error("missing outline: expected error")
	}
	if _, err := runCLI(t, "-dataset", "users", "-rows", "100", "-taxonomy", "gender="+outline,
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 10 WHERE age <= 40`); err == nil {
		t.Error("no matching predicate: expected error")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                // no -sql
		{"-sql", "SELECT"},                // no dataset/load
		{"-dataset", "nope", "-sql", "x"}, // bad dataset
		{"-dataset", "users", "-rows", "100", "-sql", "garbage"},
		{"-dataset", "users", "-rows", "100", "-norm", "l9", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-gridindex", "bad", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-load", "malformed", "-sql", "x"},
		{"-load", "t=/does/not/exist.csv", "-sql", "x"},
		// In-process sharding is gone, not hidden.
		{"-dataset", "users", "-rows", "100", "-shards", "2", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		// Flag values are checked whole, not read up to what parses.
		{"-dataset", "users", "-rows", "100", "-gridindex", "users:age:8junk", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-gridindex", "users:age:16:x", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-cache", "-cache-mb", "-5", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-cache", "-cache-mb", "9223372036854775807", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		// Search options no search can use, and negative counts.
		{"-dataset", "users", "-rows", "100", "-gamma", "NaN", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-gamma", "+Inf", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-delta", "NaN", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-delta", "-0.5", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-max", "-1", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-show", "-1", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
		{"-dataset", "users", "-rows", "100", "-trace-sample", "-1", "-sql", "SELECT * FROM users CONSTRAINT COUNT(*) = 1 WHERE age <= 30"},
	}
	for i, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestRunSaveFlag(t *testing.T) {
	dir := t.TempDir()
	if _, err := runCLI(t,
		"-dataset", "users", "-rows", "200", "-save", dir,
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 50 WHERE age <= 30`); err != nil {
		t.Fatalf("run with -save: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "users.csv")); err != nil {
		t.Errorf("saved CSV missing: %v", err)
	}
}

func TestRunMetricsAndLogFlags(t *testing.T) {
	// -metrics-addr binds an ephemeral port and serves the session
	// registry for the run's duration; -log-json streams events to
	// stderr. Both must compose with a normal refinement.
	out, err := runCLI(t,
		"-dataset", "users", "-rows", "1000",
		"-metrics-addr", "127.0.0.1:0", "-log-json",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 400 WHERE age <= 30`)
	if err != nil {
		t.Fatalf("run with -metrics-addr/-log-json: %v", err)
	}
	if !strings.Contains(out, "satisfy the constraint") {
		t.Errorf("output:\n%s", out)
	}

	// A malformed address must fail rather than run blind.
	if _, err := runCLI(t,
		"-dataset", "users", "-rows", "100", "-metrics-addr", "256.0.0.1:bad",
		"-sql", `SELECT * FROM users CONSTRAINT COUNT(*) = 10 WHERE age <= 30`); err == nil {
		t.Error("bad -metrics-addr: expected error")
	}
}
