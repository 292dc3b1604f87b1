// Command acquire runs an Aggregation Constrained Query against a
// generated or CSV-loaded dataset and prints the refined queries
// ACQUIRE recommends.
//
// Examples:
//
//	# Generated TPC-H subset, the paper's Q2' (Example 2):
//	acquire -dataset tpch -rows 100000 -sql "
//	  SELECT * FROM supplier, part, partsupp
//	  CONSTRAINT SUM(ps_availqty) >= 0.1M
//	  WHERE (s_suppkey = ps_suppkey) NOREFINE AND
//	        (p_partkey = ps_partkey) NOREFINE AND
//	        (p_retailprice < 1000) AND (s_acctbal < 2000)"
//
//	# CSV tables (written by `acquire`'s -save or cmd/tpchgen):
//	acquire -load users=users.csv -sql "SELECT * FROM users CONSTRAINT COUNT(*) = 1000 WHERE age <= 30"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"acquire/acq"
)

func main() {
	// Ctrl-C / SIGTERM cancels the refinement search; the search checks
	// the context at every exploration layer, so the partial result — the
	// best refinement found before the interrupt — is still reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "acquire: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "acquire:", err)
		os.Exit(1)
	}
}

// run executes the command line args, printing results to out and
// notes, -log-json events and flag errors to errOut.
func run(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("acquire", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		dataset     = fs.String("dataset", "", "generated dataset: tpch or users (alternative to -load)")
		rows        = fs.Int("rows", 100000, "generated dataset size")
		zipf        = fs.Float64("zipf", 0, "Zipf skew Z for generated data (0 = uniform)")
		seed        = fs.Int64("seed", 1, "generation seed")
		loads       = multiFlag{}
		sql         = fs.String("sql", "", "the ACQ statement (required)")
		gamma       = fs.Float64("gamma", 10, "refinement threshold γ")
		delta       = fs.Float64("delta", 0.05, "aggregate error threshold δ")
		norm        = fs.String("norm", "l1", "refinement norm: l1, l2, linf")
		index       = fs.String("gridindex", "", "build a §7.4 grid index: table:col1,col2[:bins]")
		gridAgg     = fs.Bool("gridagg", false, "build an aggregate-augmented grid over the query's select dimensions (single-table queries)")
		cache       = fs.Bool("cache", false, "cache partial aggregates across searches (results stay bit-identical)")
		cacheMB     = fs.Int("cache-mb", 64, "partial-aggregate cache capacity in MiB (with -cache)")
		maxOut      = fs.Int("max", 5, "maximum refined queries to print")
		taxPath     = fs.String("taxonomy", "", "make a string predicate refinable: column=outline-file (§7.3)")
		explain     = fs.Bool("explain", false, "print the search's events as tables: one row per explored grid query (search.point), then one per Expand layer (search.layer)")
		show        = fs.Int("show", 0, "materialise up to N result rows of the best refined query")
		saveDir     = fs.String("save", "", "write every loaded/generated table to this directory as CSV")
		metrics     = fs.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/traces on this address (e.g. :8080)")
		logJSON     = fs.Bool("log-json", false, "emit structured search/engine events as JSON on stderr")
		traceDir    = fs.String("trace-dir", "", "record search span trees and write them here as Chrome trace-event JSON (Perfetto-loadable)")
		traceSample = fs.Int("trace-sample", 0, "with tracing: keep 1-in-N fast searches (0 or 1 = keep all)")
		traceSlow   = fs.Duration("trace-slow", 0, "with tracing: always keep searches slower than this (tail-based keep)")
	)
	fs.Var(&loads, "load", "load a CSV table: name=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sql == "" {
		return fmt.Errorf("-sql is required")
	}
	if *maxOut < 0 || *show < 0 || *traceSample < 0 {
		return fmt.Errorf("-max, -show and -trace-sample want counts of 0 or more, got %d, %d and %d", *maxOut, *show, *traceSample)
	}
	if *cacheMB <= 0 || *cacheMB > math.MaxInt64>>20 {
		return fmt.Errorf("-cache-mb wants a positive size in MiB, at most %d; got %d", math.MaxInt64>>20, *cacheMB)
	}

	var s *acq.Session
	var err error
	switch *dataset {
	case "tpch":
		s, err = acq.NewTPCHSession(*rows, *zipf, *seed)
	case "users":
		s, err = acq.NewUsersSession(*rows, *zipf, *seed)
	case "":
		if len(loads) == 0 {
			return fmt.Errorf("provide -dataset tpch|users or at least one -load name=path")
		}
		s = acq.NewSession()
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err != nil {
		return err
	}
	for _, l := range loads {
		name, path, ok := strings.Cut(l, "=")
		if !ok {
			return fmt.Errorf("-load wants name=path, got %q", l)
		}
		if err := s.LoadCSV(name, path); err != nil {
			return err
		}
	}

	// Observability: -metrics-addr serves the session registry live
	// (curl addr/metrics mid-search); -log-json streams the structured
	// event feed and -explain tabulates its search.point and
	// search.layer events; the -trace-* flags record hierarchical search
	// traces into a flight recorder served at /debug/traces and archived
	// to -trace-dir. All attach the same observer, so they compose.
	tracing := *traceDir != "" || *traceSample > 0 || *traceSlow > 0
	var rec *acq.FlightRecorder
	var table *explainRows
	if *metrics != "" || *logJSON || *explain || tracing {
		reg := s.Metrics()
		var h slog.Handler
		if *logJSON {
			h = slog.NewJSONHandler(errOut, &slog.HandlerOptions{Level: slog.LevelDebug})
		}
		if *explain {
			table = &explainRows{}
			h = explainHandler{rows: table, next: h}
		}
		if h != nil {
			s.Observe(s.Observer().WithLogger(slog.New(h)))
		}
		if tracing {
			rec = s.EnableTracing(acq.RecorderConfig{
				SampleN: *traceSample, SlowThreshold: *traceSlow,
			})
		}
		if *metrics != "" {
			addr, shutdown, err := acq.ServeObs(*metrics, reg, rec)
			if err != nil {
				return err
			}
			defer shutdown()
			fmt.Fprintf(errOut, "acquire: serving metrics on http://%s/metrics (pprof at /debug/pprof/, traces at /debug/traces)\n", addr)
		}
	}

	if *saveDir != "" {
		if err := os.MkdirAll(*saveDir, 0o755); err != nil {
			return err
		}
		for _, name := range s.Tables() {
			if err := s.SaveCSV(name, filepath.Join(*saveDir, name+".csv")); err != nil {
				return err
			}
		}
	}

	if *index != "" {
		parts := strings.Split(*index, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("-gridindex wants table:col1,col2[:bins], got %q", *index)
		}
		bins := 32
		if len(parts) == 3 {
			if bins, err = strconv.Atoi(parts[2]); err != nil {
				return fmt.Errorf("-gridindex bins: %w", err)
			}
		}
		if err := s.BuildGridIndex(parts[0], strings.Split(parts[1], ","), bins); err != nil {
			return err
		}
	}

	var n acq.Norm
	switch *norm {
	case "l1":
		n = acq.L1Norm()
	case "l2":
		if n, err = acq.LpNorm(2, nil); err != nil {
			return err
		}
	case "linf":
		n = acq.LInfNorm(nil)
	default:
		return fmt.Errorf("unknown norm %q", *norm)
	}

	q, err := s.Parse(*sql)
	if err != nil {
		return err
	}
	if *taxPath != "" {
		column, path, ok := strings.Cut(*taxPath, "=")
		if !ok {
			return fmt.Errorf("-taxonomy wants column=outline-file, got %q", *taxPath)
		}
		tree, err := acq.LoadTaxonomy(path)
		if err != nil {
			return err
		}
		idx := -1
		for i := range q.Fixed {
			if q.Fixed[i].Kind == acq.FixedStringInKind && strings.EqualFold(q.Fixed[i].Col.Column, column) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("-taxonomy: no string predicate on column %q", column)
		}
		q, err = s.RewriteCategorical(q, idx, tree)
		if err != nil {
			return err
		}
	}

	if *gridAgg {
		if err := buildGridAgg(s, q, errOut); err != nil {
			return err
		}
	}
	if *cache {
		s.EnableCache(int64(*cacheMB) << 20)
	}

	orig, err := s.Estimate(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "original query aggregate: %.6g (target %s %.6g)\n",
		orig, q.Constraint.Op, q.Constraint.Target)

	opts := acq.Options{Gamma: *gamma, Delta: *delta, Norm: n}
	res, runErr := s.RefineContext(ctx, q, opts)
	if runErr != nil && res == nil {
		return runErr
	}
	if runErr != nil {
		// Cancelled mid-search: report what was found before bailing.
		fmt.Fprintf(out, "search interrupted — partial results after %d explored queries:\n", res.Explored)
	}
	if table != nil {
		if _, err := table.WriteTo(out); err != nil {
			return err
		}
	}
	if rec != nil && *traceDir != "" {
		n, err := rec.WriteDir(*traceDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(errOut, "acquire: wrote %d trace(s) to %s\n", n, *traceDir)
	}
	st := res.Engine // the search's own work, not the Estimate above
	fmt.Fprintf(out, "explored %d refined queries via %d evaluation-layer executions (%d rows scanned)\n",
		res.Explored, st.Queries, st.RowsScanned)
	if *cache {
		fmt.Fprintf(out, "partial-aggregate cache: %d hits, %d misses\n", st.CacheHits, st.CacheMisses)
	}

	if !res.Satisfied {
		fmt.Fprintf(out, "no refinement met the constraint within δ=%g", *delta)
		if res.Note != "" {
			fmt.Fprintf(out, " (%s)", res.Note)
		}
		fmt.Fprintln(out)
		if res.Closest != nil {
			fmt.Fprintf(out, "closest query (aggregate %.6g, error %.4f):\n  %s\n",
				res.Closest.Aggregate, res.Closest.Err, res.Closest.ToSQL())
		}
		return runErr
	}

	fmt.Fprintf(out, "%d refined quer(ies) satisfy the constraint; best %d:\n", len(res.Queries), min(*maxOut, len(res.Queries)))
	for i, rq := range res.Queries {
		if i >= *maxOut {
			break
		}
		fmt.Fprintf(out, "%2d. QScore=%.3f aggregate=%.6g err=%.4f\n    %s\n",
			i+1, rq.QScore, rq.Aggregate, rq.Err, rq.ToSQL())
	}
	if *show > 0 {
		rs, err := s.Preview(res.Best, *show)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nfirst %d result rows of the best refined query:\n%s", len(rs.Rows), strings.Join(rs.Columns, "  "))
		fmt.Fprintln(out)
		for _, row := range rs.Rows {
			for j, v := range row {
				if j > 0 {
					fmt.Fprint(out, "  ")
				}
				fmt.Fprint(out, v.String())
			}
			fmt.Fprintln(out)
		}
		if rs.Truncated {
			fmt.Fprintln(out, "... (truncated)")
		}
	}
	return runErr
}

// buildGridAgg builds the aggregate grid of the parsed query (-gridagg)
// and notes on errOut what it built, or why it built none.
func buildGridAgg(s *acq.Session, q *acq.Query, errOut io.Writer) error {
	g, err := s.BuildQueryGrid(q)
	switch {
	case err != nil:
		return err
	case g.Skipped != "":
		fmt.Fprintf(errOut, "acquire: -gridagg skipped (%s)\n", g.Skipped)
	default:
		fmt.Fprintf(errOut, "acquire: aggregate grid over %s(%s) at %d bins/dim\n",
			g.Table, strings.Join(g.Columns, ","), g.Bins)
	}
	return nil
}

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
