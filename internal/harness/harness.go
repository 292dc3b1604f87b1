// Package harness regenerates every table and figure of the paper's
// evaluation section (§8): for each experiment it builds the calibrated
// workload, runs ACQUIRE and the §8.2 baselines on the same evaluation
// engine, and reports the same series the paper plots — execution time,
// relative aggregate error, and refinement score. Absolute numbers
// differ from the paper's 2009-era Java/Postgres testbed; the shapes
// (orderings, factors, crossovers) are the reproduction target (see
// EXPERIMENTS.md).
package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	"strings"

	"acquire/internal/baseline"
	"acquire/internal/core"
	"acquire/internal/data"
	"acquire/internal/exec"
	"acquire/internal/index"
	"acquire/internal/obs"
	"acquire/internal/relq"
	"acquire/internal/tpch"
	"acquire/internal/workload"
)

// Config scales the experiments. The zero value gets defaults suitable
// for `go test -bench`: 20K-row datasets finishing in minutes. The
// paper's headline scale is 1M rows (cmd/acqbench -rows 1000000).
type Config struct {
	// Rows is the dataset cardinality (partsupp rows for the TPCH
	// skeleton, users rows for the ad-campaign skeleton).
	Rows int
	// Seed fixes data generation.
	Seed int64
	// Zipf is the data skew Z (§8.4.4).
	Zipf float64
	// Delta is the aggregate error threshold δ (paper: 0.05).
	Delta float64
	// Gamma is the refinement threshold γ.
	Gamma float64
	// TQGenGridK / TQGenRounds bound the TQGen baseline's cost.
	TQGenGridK  int
	TQGenRounds int
	// GridAgg builds an aggregate-augmented grid over each workload
	// query's select dimensions, so eligible cell queries are answered
	// from stored per-cell partials instead of scans (-gridagg).
	GridAgg bool
	// Cluster, when set, re-sorts every generated table that has this
	// numeric column ascending by it before building engines (-cluster).
	// A clustered layout is what lets the scan's per-block zone maps
	// prove blocks out of range and skip them; on the generators' i.i.d.
	// layouts every block spans the full value domain and zone maps
	// never fire.
	Cluster string
	// Obs instruments every engine and search the harness builds
	// (metrics, phase spans, events); nil runs uninstrumented. Excluded
	// from results JSON — it is a live handle, not a parameter.
	Obs *obs.Observer `json:"-"`
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delta == 0 {
		c.Delta = 0.05
	}
	if c.Gamma == 0 {
		c.Gamma = 20
	}
	if c.TQGenGridK == 0 {
		c.TQGenGridK = 8
	}
	if c.TQGenRounds == 0 {
		c.TQGenRounds = 5
	}
	return c
}

// Measurement is one method's result at one x-axis position.
type Measurement struct {
	Method string
	// Millis is wall-clock execution time in milliseconds.
	Millis float64
	// Err is the relative aggregate error of the returned answer.
	Err float64
	// Refinement is the L1 refinement score of the returned answer.
	Refinement float64
	// Satisfied reports whether the method met the constraint.
	Satisfied bool
	// Executions counts evaluation-layer query executions, CellsSkipped
	// those the §7.4 grid index answered empty (ACQUIRE only).
	Executions, CellsSkipped int64
}

// Series is one plotted line: y-values per x position.
type Series struct {
	Name string
	Y    []float64
}

// Figure is one reproduced plot.
type Figure struct {
	ID     string // e.g. "8.a"
	Title  string
	XLabel string
	X      []float64
	YLabel string
	Series []Series
}

// usersEngine builds the single-table ad-campaign dataset.
func usersEngine(cfg Config) (*exec.Engine, error) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: cfg.Rows, Zipf: cfg.Zipf, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return newEngine(cat, cfg)
}

// tpchEngine builds the three-table supply-chain dataset.
func tpchEngine(cfg Config) (*exec.Engine, error) {
	cat, err := tpch.Generate(tpch.Config{Rows: cfg.Rows, Zipf: cfg.Zipf, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	return newEngine(cat, cfg)
}

// clusterCatalog re-sorts every table carrying the named numeric
// column ascending by it, replacing each in place in the catalog.
func clusterCatalog(cat *data.Catalog, column string) error {
	found := false
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		if t.Schema().Ordinal(column) < 0 {
			continue
		}
		sorted, err := data.SortedBy(t, column)
		if err != nil {
			return err
		}
		cat.Replace(sorted)
		found = true
	}
	if !found {
		return fmt.Errorf("harness: no table has cluster column %q", column)
	}
	return nil
}

// newEngine builds the evaluation engine for a catalog under cfg's
// layout and observer.
func newEngine(cat *data.Catalog, cfg Config) (*exec.Engine, error) {
	if cfg.Cluster != "" {
		if err := clusterCatalog(cat, cfg.Cluster); err != nil {
			return nil, err
		}
	}
	e := exec.New(cat)
	e.SetObserver(cfg.Obs)
	return e, nil
}

// RunACQUIRE measures one ACQUIRE execution. The context cancels the
// search mid-flight (every runner threads it down to the evaluation
// layer, so acqbench's signal handling interrupts real work).
func RunACQUIRE(ctx context.Context, e *exec.Engine, q *relq.Query, opts core.Options) (Measurement, error) {
	clk := opts.Observer.Clock() // Real for a nil observer
	start := clk.Now()
	res, err := core.RunContext(ctx, e, q, opts)
	elapsed := clk.Now().Sub(start)
	if err != nil {
		return Measurement{}, err
	}
	m := Measurement{
		Method:       "ACQUIRE",
		Millis:       float64(elapsed.Microseconds()) / 1000,
		Satisfied:    res.Satisfied,
		Executions:   res.Engine.Queries,
		CellsSkipped: res.Engine.CellsSkipped,
	}
	pick := res.Best
	if pick == nil {
		pick = res.Closest
	}
	if pick != nil {
		m.Err = pick.Err
		m.Refinement = l1(pick.Scores)
	} else {
		m.Err = math.Inf(1)
	}
	return m, nil
}

// RunTopK measures the Top-k baseline.
func RunTopK(ctx context.Context, e *exec.Engine, q *relq.Query) (Measurement, error) {
	clk := e.Observer().Clock()
	start := clk.Now()
	out, err := baseline.TopKContext(ctx, e, q)
	elapsed := clk.Now().Sub(start)
	if err != nil {
		return Measurement{}, err
	}
	return fromOutcome(out, elapsed), nil
}

// RunBinSearch measures the BinSearch baseline.
func RunBinSearch(ctx context.Context, e *exec.Engine, q *relq.Query, delta float64) (Measurement, error) {
	clk := e.Observer().Clock()
	start := clk.Now()
	out, err := baseline.BinSearchContext(ctx, e, q, baseline.BinSearchOptions{Delta: delta})
	elapsed := clk.Now().Sub(start)
	if err != nil {
		return Measurement{}, err
	}
	return fromOutcome(out, elapsed), nil
}

// RunTQGen measures the TQGen baseline.
func RunTQGen(ctx context.Context, e *exec.Engine, q *relq.Query, cfg Config) (Measurement, error) {
	clk := e.Observer().Clock()
	start := clk.Now()
	out, err := baseline.TQGenContext(ctx, e, q, baseline.TQGenOptions{
		Delta: cfg.Delta, GridK: cfg.TQGenGridK, Rounds: cfg.TQGenRounds,
	})
	elapsed := clk.Now().Sub(start)
	if err != nil {
		return Measurement{}, err
	}
	return fromOutcome(out, elapsed), nil
}

func fromOutcome(out *baseline.Outcome, elapsed time.Duration) Measurement {
	return Measurement{
		Method:     out.Method,
		Millis:     float64(elapsed.Microseconds()) / 1000,
		Err:        out.Err,
		Refinement: out.QScore,
		Satisfied:  out.Satisfied,
		Executions: out.Executions,
	}
}

func l1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// acquireOpts builds the standard ACQUIRE options for a config.
func acquireOpts(cfg Config) core.Options {
	return core.Options{Gamma: cfg.Gamma, Delta: cfg.Delta, Observer: cfg.Obs}
}

// ensureGridAgg builds (idempotently) an aggregate-augmented grid over
// a single-table query's select-dimension columns, materializing the
// constraint's aggregate column when it lives on the same table. Joins
// and non-select dimensions leave the engine untouched — the kernel
// would never engage for them.
func ensureGridAgg(e *exec.Engine, q *relq.Query) error {
	if len(q.Tables) != 1 {
		return nil
	}
	var cols []string
	seen := make(map[string]bool)
	for i := range q.Dims {
		d := &q.Dims[i]
		switch d.Kind {
		case relq.SelectLE, relq.SelectGE, relq.SelectEQ:
		default:
			return nil
		}
		key := strings.ToLower(d.Col.Column)
		if !seen[key] {
			seen[key] = true
			cols = append(cols, d.Col.Column)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	var aggCols []string
	if a := q.Constraint.Attr; a.Column != "" && strings.EqualFold(a.Table, q.Tables[0]) {
		aggCols = []string{a.Column}
	}
	t, err := e.Catalog().Table(q.Tables[0])
	if err != nil {
		return err
	}
	return e.BuildGridAggIndex(q.Tables[0], cols, aggCols, index.BinsForRows(len(cols), t.NumRows()))
}

// compareAll runs all four methods on a freshly calibrated Users query.
func compareAll(ctx context.Context, e *exec.Engine, cfg Config, dims int, ratio float64) (map[string]Measurement, error) {
	out := make(map[string]Measurement, 4)

	build := func() (*relq.Query, error) {
		q, err := workload.BuildCalibrated(e, workload.Spec{
			Kind: workload.Users, Dims: dims, Agg: relq.AggCount, Ratio: ratio,
		})
		if err != nil {
			return nil, err
		}
		if cfg.GridAgg {
			if err := ensureGridAgg(e, q); err != nil {
				return nil, err
			}
		}
		return q, nil
	}

	q, err := build()
	if err != nil {
		return nil, err
	}
	m, err := RunACQUIRE(ctx, e, q, acquireOpts(cfg))
	if err != nil {
		return nil, err
	}
	out["ACQUIRE"] = m

	if q, err = build(); err != nil {
		return nil, err
	}
	if m, err = RunTopK(ctx, e, q); err != nil {
		return nil, err
	}
	out["Top-k"] = m

	if q, err = build(); err != nil {
		return nil, err
	}
	if m, err = RunTQGen(ctx, e, q, cfg); err != nil {
		return nil, err
	}
	out["TQGen"] = m

	if q, err = build(); err != nil {
		return nil, err
	}
	if m, err = RunBinSearch(ctx, e, q, cfg.Delta); err != nil {
		return nil, err
	}
	out["BinSearch"] = m
	return out, nil
}

// seriesFrom assembles per-method series over measurements[x][method].
func seriesFrom(methods []string, rows []map[string]Measurement, pick func(Measurement) float64) []Series {
	out := make([]Series, 0, len(methods))
	for _, name := range methods {
		s := Series{Name: name, Y: make([]float64, len(rows))}
		for i, row := range rows {
			m, ok := row[name]
			if !ok {
				s.Y[i] = math.NaN()
				continue
			}
			s.Y[i] = pick(m)
		}
		out = append(out, s)
	}
	return out
}

// ErrCheck validates a figure's invariants and returns a descriptive
// error when a paper-shape expectation is violated; used by tests.
func ErrCheck(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}
