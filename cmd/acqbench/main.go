// Command acqbench regenerates the paper's evaluation figures and
// tables (§8) as text tables: Figures 8-11, the skew and join studies,
// Table 1, and the repository's two ablations. See DESIGN.md §4 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured notes.
//
//	acqbench                         # every experiment at default scale
//	acqbench -experiment fig8        # one experiment
//	acqbench -rows 1000000           # paper-scale datasets
//	acqbench -sizes 1000,10000,100000,1000000 -experiment fig10a
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"acquire/internal/harness"
	"acquire/internal/obs"
)

type experiment struct {
	name string
	desc string
	run  func(context.Context, harness.Config, []int) ([]harness.Figure, error)
}

var experiments = []experiment{
	{"fig8", "Figures 8.a-8.c: ratio sweep, all methods", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.Figure8(ctx, c)
	}},
	{"fig9", "Figures 9.a-9.c: dimensionality sweep, all methods", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.Figure9(ctx, c)
	}},
	{"fig10a", "Figure 10.a: table-size sweep", func(ctx context.Context, c harness.Config, sizes []int) ([]harness.Figure, error) {
		return harness.Figure10a(ctx, c, sizes)
	}},
	{"fig10b", "Figure 10.b: refinement-threshold sweep", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.Figure10b(ctx, c)
	}},
	{"fig10c", "Figure 10.c: cardinality-threshold sweep", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.Figure10c(ctx, c)
	}},
	{"fig11", "Figures 11.a-11.b: aggregate types (SUM/COUNT/MAX)", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.Figure11(ctx, c)
	}},
	{"skew", "§8.4.4: Zipf Z=1 robustness study", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.SkewStudy(ctx, c)
	}},
	{"join", "join-predicate refinement study (Table 1 capability)", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.JoinRefinementStudy(ctx, c)
	}},
	{"order-sensitivity", "§8.4.1: BinSearch predicate-order instability sweep", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.OrderSensitivityStudy(ctx, c)
	}},
	{"eval-layers", "evaluation layers study (§3): exact vs sampling vs histogram", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.EvaluationLayerStudy(ctx, c)
	}},
	{"ablation-incremental", "incremental aggregate computation ablation (§5)", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.AblationIncremental(ctx, c)
	}},
	{"ablation-gridindex", "grid bitmap index ablation (§7.4)", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.AblationGridIndex(ctx, c)
	}},
	{"repeated", "repeated-workload study: cross-search partial-aggregate cache (pair with -cache)", func(ctx context.Context, c harness.Config, _ []int) ([]harness.Figure, error) {
		return harness.RepeatedWorkload(ctx, c)
	}},
}

func main() {
	// Ctrl-C / SIGTERM cancels the context, which propagates through
	// every harness runner down to the evaluation layer's batch loops,
	// so even a 1M-row sweep stops within one region evaluation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "acqbench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "acqbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("acqbench", flag.ContinueOnError)
	var (
		expName     = fs.String("experiment", "all", "experiment to run (all, table1, summary, "+names()+")")
		rows        = fs.Int("rows", 100000, "dataset size (the paper's headline scale is 1000000)")
		seed        = fs.Int64("seed", 1, "generation seed")
		delta       = fs.Float64("delta", 0.05, "aggregate error threshold δ")
		gamma       = fs.Float64("gamma", 20, "refinement threshold γ")
		sizesCS     = fs.String("sizes", "", "comma-separated table sizes for fig10a (default 1000,10000,100000)")
		gridK       = fs.Int("tqgen-k", 0, "TQGen grid values per predicate (default 8)")
		rounds      = fs.Int("tqgen-rounds", 0, "TQGen zoom rounds (default 5)")
		gridAgg     = fs.Bool("gridagg", false, "build aggregate-augmented grids: answer eligible cell queries from stored per-cell partials")
		cache       = fs.Bool("cache", false, "attach a cross-search partial-aggregate cache to every engine")
		cluster     = fs.String("cluster", "", "re-sort generated tables by this numeric column before building engines (engages the scan's zone maps)")
		cacheMB     = fs.Int("cache-mb", 64, "region cache capacity in MiB (with -cache)")
		metrics     = fs.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof and /debug/traces on this address while experiments run")
		logJSON     = fs.Bool("log-json", false, "emit structured search/engine events as JSON on stderr")
		jsonOut     = fs.String("json", "", "also write figures + config + metric snapshot as JSON to this file")
		traceDir    = fs.String("trace-dir", "", "record search span trees and write them here as Chrome trace-event JSON")
		traceSample = fs.Int("trace-sample", 0, "with tracing: keep 1-in-N fast searches (0 or 1 = keep all)")
		traceSlow   = fs.Duration("trace-slow", 0, "with tracing: always keep searches slower than this (tail-based keep)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := harness.Config{
		Rows: *rows, Seed: *seed, Delta: *delta, Gamma: *gamma,
		TQGenGridK: *gridK, TQGenRounds: *rounds, GridAgg: *gridAgg,
		Cluster: *cluster,
	}
	if *cache {
		cfg.CacheMB = *cacheMB
	}

	// Observability: one registry + observer instruments every engine
	// and search the harness builds; -json snapshots it at the end.
	// The -trace-* flags additionally attach a flight recorder through
	// the same observer, so every harness search records a span tree.
	tracing := *traceDir != "" || *traceSample > 0 || *traceSlow > 0
	var reg *obs.Registry
	var rec *obs.FlightRecorder
	if *metrics != "" || *logJSON || *jsonOut != "" || tracing {
		reg = obs.NewRegistry()
		o := obs.NewObserver(reg)
		if *logJSON {
			o = o.WithLogger(slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})))
		}
		if tracing {
			rec = obs.NewFlightRecorder(obs.RecorderConfig{
				SampleN: *traceSample, SlowThreshold: *traceSlow,
			})
			o = o.WithRecorder(rec)
		}
		cfg.Obs = o
		if *metrics != "" {
			addr, shutdown, err := obs.Serve(*metrics, reg, rec)
			if err != nil {
				return err
			}
			defer shutdown()
			fmt.Fprintf(os.Stderr, "acqbench: serving metrics on http://%s/metrics (pprof at /debug/pprof/, traces at /debug/traces)\n", addr)
		}
	}
	var sizes []int
	if *sizesCS != "" {
		for _, s := range strings.Split(*sizesCS, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("-sizes: %w", err)
			}
			sizes = append(sizes, n)
		}
	}

	// writeJSON finalises the instrumented run: the per-phase latency
	// quantile table on stdout, recorded traces to -trace-dir, and —
	// when -json is set — figures, config and the metric registry
	// snapshot in one machine-readable file.
	writeJSON := func(figs []harness.Figure) error {
		if ls := harness.LatencySummary(reg); ls != "" {
			fmt.Println(ls)
		}
		if rec != nil && *traceDir != "" {
			n, err := rec.WriteDir(*traceDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "acqbench: wrote %d trace(s) to %s\n", n, *traceDir)
		}
		if *jsonOut == "" {
			return nil
		}
		// Write-validate-rename: WriteResults schema-checks the payload
		// before a byte lands, and the rename is atomic, so a failed or
		// interrupted run can never clobber a committed BENCH_*.json
		// with a truncated or malformed artifact.
		tmp := *jsonOut + ".tmp"
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := harness.WriteResults(f, cfg, figs); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
		if err := f.Close(); err != nil {
			os.Remove(tmp)
			return err
		}
		return os.Rename(tmp, *jsonOut)
	}

	if *expName == "table1" || *expName == "all" {
		fmt.Println(harness.Table1())
	}
	if *expName == "summary" {
		claims, figs, err := harness.Summary(ctx, cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Println(harness.FormatFigure(f))
		}
		fmt.Println(harness.FormatClaims(claims))
		return writeJSON(figs)
	}
	var allFigs []harness.Figure
	for _, ex := range experiments {
		if *expName != "all" && *expName != ex.name {
			continue
		}
		fmt.Printf("=== %s — %s (rows=%d, δ=%g, γ=%g) ===\n", ex.name, ex.desc, cfg.Rows, *delta, *gamma)
		figs, err := ex.run(ctx, cfg, sizes)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.name, err)
		}
		for _, f := range figs {
			fmt.Println(harness.FormatFigure(f))
		}
		allFigs = append(allFigs, figs...)
	}
	if *expName != "all" && *expName != "table1" && *expName != "summary" && !known(*expName) {
		return fmt.Errorf("unknown experiment %q (want all, table1, summary, %s)", *expName, names())
	}
	return writeJSON(allFigs)
}

func names() string {
	out := make([]string, len(experiments))
	for i, ex := range experiments {
		out[i] = ex.name
	}
	return strings.Join(out, ", ")
}

func known(name string) bool {
	for _, ex := range experiments {
		if ex.name == name {
			return true
		}
	}
	return false
}
