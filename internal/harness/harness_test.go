package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"acquire/internal/core"
	"acquire/internal/relq"
	"acquire/internal/workload"
)

// tinyCfg keeps harness tests fast; the shapes under test are scale
// free.
func tinyCfg() Config {
	return Config{Rows: 3000, Seed: 7, Delta: 0.05, Gamma: 20, TQGenGridK: 6, TQGenRounds: 3}
}

func TestFigure8ShapesHold(t *testing.T) {
	rows, err := figure8Rows(context.Background(), tinyCfg())
	if err != nil {
		t.Fatalf("Figure8: %v", err)
	}
	figs := figure8Figures(rows)
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	errFig, refFig := figs[1], figs[2]

	get := func(f Figure, name string) []float64 {
		for _, s := range f.Series {
			if s.Name == name {
				return s.Y
			}
		}
		t.Fatalf("series %q missing from %s", name, f.ID)
		return nil
	}

	// Headline shape, on the paper's cost unit (§8: evaluation-layer
	// executions) so it holds on any machine: TQGen spends its fixed
	// K^d-per-round budget whatever the ratio, ACQUIRE stays below it
	// everywhere and far below once the target is within a few layers.
	// EXPERIMENTS.md records the measured time factors at full scale.
	for i, row := range rows {
		acq, tq := row["ACQUIRE"].Executions, row["TQGen"].Executions
		if tq <= acq || Ratios[i] >= 0.3 && tq < 3*acq {
			t.Errorf("ratio %v: TQGen %d executions not ≫ ACQUIRE %d", Ratios[i], tq, acq)
		}
	}

	// ACQUIRE's error is always within δ (§8.5 conclusion 2).
	for i, v := range get(errFig, "ACQUIRE") {
		if v > 0.05+1e-9 {
			t.Errorf("ratio %v: ACQUIRE error %v exceeds δ", errFig.X[i], v)
		}
	}

	// ACQUIRE's refinement never exceeds the baselines' refinement by a
	// meaningful factor (conclusion 4: baselines are ~2X worse; we
	// assert ACQUIRE is never the strict worst by 20%).
	acqR := get(refFig, "ACQUIRE")
	for i := range acqR {
		worst := 0.0
		for _, s := range refFig.Series {
			if s.Name == "ACQUIRE" {
				continue
			}
			if !math.IsNaN(s.Y[i]) && s.Y[i] > worst {
				worst = s.Y[i]
			}
		}
		if worst > 0 && acqR[i] > worst*1.2 {
			t.Errorf("ratio %v: ACQUIRE refinement %v worse than worst baseline %v", refFig.X[i], acqR[i], worst)
		}
	}
}

func TestFigure9ExponentialTQGen(t *testing.T) {
	cfg := tinyCfg()
	cfg.Rows = 2000
	rows, err := figure9Rows(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure9: %v", err)
	}
	// Asserted on evaluation-layer executions, the paper's cost unit and
	// a deterministic count, not on milliseconds.
	for i, d := range DimCounts {
		tq, acq := rows[i]["TQGen"].Executions, rows[i]["ACQUIRE"].Executions
		// TQGen's cost explodes with dimensionality: every round
		// evaluates a full K^d grid.
		if want := int64(cfg.TQGenRounds) * int64(math.Pow(float64(cfg.TQGenGridK), float64(d))); tq != want {
			t.Errorf("d=%d: TQGen ran %d executions, want rounds*K^d = %d", d, tq, want)
		}
		// ACQUIRE explores only the layers below its answer and stays
		// several times under TQGen at every dimensionality. Executions
		// is the engine's region count for every method, and a §6 probe
		// is up to d thin shell boxes where it was one wide prefix: at
		// d=2 ACQUIRE reads 29 regions (22 with whole-prefix probes)
		// against TQGen's 108, hence 3× and not 4×.
		if 3*acq > tq {
			t.Errorf("d=%d: ACQUIRE %d executions not well under TQGen %d", d, acq, tq)
		}
	}
}

func TestFigure10Axes(t *testing.T) {
	cfg := tinyCfg()
	figs, err := Figure10a(context.Background(), cfg, []int{500, 2000})
	if err != nil {
		t.Fatalf("Figure10a: %v", err)
	}
	if len(figs[0].X) != 2 {
		t.Errorf("10.a x = %v", figs[0].X)
	}

	figs, err = Figure10b(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure10b: %v", err)
	}
	if len(figs[0].X) != len(Gammas) {
		t.Errorf("10.b x = %v", figs[0].X)
	}

	figs, err = Figure10c(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure10c: %v", err)
	}
	if len(figs[0].X) != len(Deltas) {
		t.Errorf("10.c x = %v", figs[0].X)
	}
}

func TestFigure11AllAggregates(t *testing.T) {
	cfg := tinyCfg()
	figs, err := Figure11(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Figure11: %v", err)
	}
	if len(figs) != 2 || len(figs[0].Series) != 3 {
		t.Fatalf("shape: %d figs, %d series", len(figs), len(figs[0].Series))
	}
	for _, s := range figs[0].Series {
		for i, v := range s.Y {
			if math.IsNaN(v) || v < 0 {
				t.Errorf("%s time[%d] = %v", s.Name, i, v)
			}
		}
	}
}

func TestSkewAndJoinStudies(t *testing.T) {
	cfg := tinyCfg()
	figs, err := SkewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatalf("SkewStudy: %v", err)
	}
	if len(figs) != 2 {
		t.Fatalf("skew figures = %d", len(figs))
	}

	jf, err := JoinRefinementStudy(context.Background(), cfg)
	if err != nil {
		t.Fatalf("JoinRefinementStudy: %v", err)
	}
	if len(jf) != 2 {
		t.Fatalf("join figures = %d", len(jf))
	}
}

func TestAblations(t *testing.T) {
	cfg := tinyCfg()
	figs, err := AblationIncremental(context.Background(), cfg)
	if err != nil {
		t.Fatalf("AblationIncremental: %v", err)
	}
	if len(figs[0].Series) != 2 || len(figs[0].Series[0].Y) != len(Ratios) {
		t.Fatalf("ablation.incremental shape: %+v", figs[0])
	}
	// At the lowest ratio (deepest search) the incremental explorer
	// must touch fewer rows than whole-query re-execution: its cell
	// queries are disjoint, whole queries re-read every prefix. Rows
	// scanned is the deterministic stand-in for the figure's time axis.
	e, err := tpchEngine(cfg.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	q, err := workload.BuildCalibrated(e, workload.Spec{Kind: workload.TPCH, Dims: 3, Agg: relq.AggCount, Ratio: Ratios[0]})
	if err != nil {
		t.Fatal(err)
	}
	rowsScanned := func(noIncremental bool) int64 {
		before := e.Snapshot().RowsScanned
		if _, err := RunACQUIRE(context.Background(), e, q, core.Options{Gamma: cfg.Gamma, Delta: cfg.Delta, NoIncremental: noIncremental}); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot().RowsScanned - before
	}
	if inc, naive := rowsScanned(false), rowsScanned(true); inc > naive {
		t.Errorf("incremental scanned %d rows, whole-query %d at ratio %v", inc, naive, Ratios[0])
	}

	if _, err := AblationGridIndex(context.Background(), cfg); err != nil {
		t.Fatalf("AblationGridIndex: %v", err)
	}
}

func TestFormatFigure(t *testing.T) {
	f := Figure{
		ID: "t.1", Title: "demo", XLabel: "x", YLabel: "ms",
		X:      []float64{1, 2},
		Series: []Series{{Name: "A", Y: []float64{1.5, math.NaN()}}, {Name: "B", Y: []float64{3000, 0.001}}},
	}
	s := FormatFigure(f)
	for _, want := range []string{"Figure t.1", "x", "A", "B", "1.50", "-", "3000", "0.0010"} {
		if !strings.Contains(s, want) {
			t.Errorf("FormatFigure missing %q:\n%s", want, s)
		}
	}
}

func TestTable1(t *testing.T) {
	s := Table1()
	for _, want := range []string{"ACQUIRE", "Top-k", "BinSearch", "TQGen", "UDA", "Proximity"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	// ACQUIRE's row has all three capability marks.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "ACQUIRE") && strings.Count(line, "yes") != 3 {
			t.Errorf("ACQUIRE row should have 3 marks: %q", line)
		}
	}
}

func TestMeasurementRunners(t *testing.T) {
	cfg := tinyCfg()
	e, err := usersEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row, err := compareAll(context.Background(), e, cfg, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ACQUIRE", "Top-k", "TQGen", "BinSearch"} {
		m, ok := row[name]
		if !ok {
			t.Fatalf("method %s missing", name)
		}
		if m.Millis < 0 || m.Executions <= 0 {
			t.Errorf("%s measurement: %+v", name, m)
		}
		if !m.Satisfied {
			t.Errorf("%s failed an easy ratio-0.5 target: %+v", name, m)
		}
	}
}

func TestErrCheck(t *testing.T) {
	if err := ErrCheck(true, "x"); err != nil {
		t.Error(err)
	}
	if err := ErrCheck(false, "bad %d", 7); err == nil || !strings.Contains(err.Error(), "bad 7") {
		t.Errorf("ErrCheck: %v", err)
	}
}
