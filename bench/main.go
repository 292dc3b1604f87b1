// Command bench is the repository's benchmark: one ACQ refinement, SQL
// text (or harness-built query) in and refined queries out, replayed
// over a fixed workload matrix, measured end to end and layer by layer.
// README.md in this directory says what each workload and metric is for.
//
//	go run -C bench . -seed 1                      every workload, every metric
//	go run -C bench . -workload users_sql -trace 0 one workload, end-to-end metrics
//	go run -C bench . -compare a.jsonl b.jsonl     two sets of runs against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and end with the one-line JSON result (default: all)")
		seed     = flag.Int64("seed", 1, "row order of the generated tables")
		seconds  = flag.Float64("seconds", 20, "length of the measurement")
		trace    = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: half untraced, half traced, per-layer metrics; -1: an untraced run, then a traced run of a quarter its length, all metrics")
		out      = flag.String("out", "", "append each workload's result to this file, one JSON object per line")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this file as JSON (with -workload)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a breach")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	length := time.Duration(*seconds * float64(time.Second))
	cfg := config{usersRows: 1_000_000, tpchRows: 50_000, seed: *seed, minPasses: 5, traceOut: *traceOut}
	switch *trace {
	case 0:
		cfg.untraced, cfg.setups = length, 3
	case 1:
		cfg.untraced, cfg.traced, cfg.withTrace, cfg.setups = length/2, length/2, true, 1
	case -1:
		cfg.untraced, cfg.traced, cfg.withTrace, cfg.setups = length, length/4, true, 3
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or -1, got %d", *trace))
	}
	defs := workloads
	if *workload != "" {
		def := findWorkload(*workload)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{*def}
	} else if *traceOut != "" {
		fatal(fmt.Errorf("-trace-out needs -workload"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Printf("# acqbench commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d users_rows=%d tpch_rows=%d\n",
		commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.usersRows, cfg.tpchRows)

	correct := true
	var last *runResult
	for i := range defs {
		res, err := runWorkload(ctx, &defs[i], cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", defs[i].name, err))
		}
		printResult(os.Stdout, res, *trace)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal(err)
			}
		}
		correct = correct && res.Correct
		last = res
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys, holding the end-to-end
		// metrics for -trace 0 and the per-layer metrics for -trace 1.
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics}
		switch *trace {
		case 0:
			line.Metrics = pick(endToEnd, last.Metrics)
		case 1:
			line.Metrics = pick(perLayer, last.Metrics)
		}
		if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// commit names the source being measured, when git can tell.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func printResult(w io.Writer, res *runResult, trace int) {
	fmt.Fprintf(w, "\n## %s  passes=%d refinements=%d correct=%v failed_share=%d/%d\n",
		res.Workload, res.passes, res.refinements, res.Correct, res.Failed, res.Attempted)
	for _, n := range res.notes {
		fmt.Fprintln(w, "   WRONG:", n)
	}
	table := func(title string, defs []metricDef) {
		fmt.Fprintln(w, title)
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-28s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	if trace != 1 {
		table("end-to-end, untraced run:", endToEnd)
	}
	if trace != 0 {
		table("per-layer, traced run (per pass unless the unit says otherwise):", perLayer)
	}
}

func appendResult(path string, res *runResult) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
