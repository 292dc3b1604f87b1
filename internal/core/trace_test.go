package core

import (
	"strings"
	"testing"
	"time"

	"acquire/internal/relq"
)

func TestTraceBuffer(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10)) // forces a repartition (see acquire_test)
	var trace TraceBuffer
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %+v", res)
	}
	if len(trace.Events) != res.Explored {
		t.Fatalf("trace has %d events, explored %d", len(trace.Events), res.Explored)
	}
	// Theorem 2 visible in the trace: QScores never decrease.
	last := -1.0
	sawRepartition := false
	for i, ev := range trace.Events {
		if ev.Seq != i {
			t.Errorf("event %d has Seq %d", i, ev.Seq)
		}
		if ev.QScore < last-1e-9 {
			t.Errorf("QScore decreased at event %d: %v after %v", i, ev.QScore, last)
		}
		last = ev.QScore
		if ev.Outcome == "repartitioned" {
			sawRepartition = true
		}
	}
	if !sawRepartition {
		t.Error("expected a repartitioned event in this workload")
	}

	var sb strings.Builder
	if _, err := trace.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seq", "QScore", "repartitioned"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered trace missing %q:\n%s", want, sb.String())
		}
	}
}

// TestWriteToRendersLayers pins the layer table: WriteTo must render
// the recorded Layers slice (one row per Expand layer), not just the
// per-point events.
func TestWriteToRendersLayers(t *testing.T) {
	trace := TraceBuffer{
		Events: []TraceEvent{
			{Seq: 0, Scores: []float64{0}, QScore: 0, Aggregate: 3, Err: 0.8, Outcome: "undershoot"},
		},
		Layers: []LayerEvent{
			{Layer: 0, QScore: 0, Width: 1, BatchWidth: 1, Wall: 250 * time.Millisecond},
			{Layer: 1, QScore: 10, Width: 2, BatchWidth: 2, Wall: 50 * time.Millisecond},
		},
	}
	var sb strings.Builder
	if _, err := trace.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"layer", "width", "batch", "wall", "250ms", "50ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trace missing %q:\n%s", want, out)
		}
	}
	// Both layer rows present, in order.
	if strings.Index(out, "250ms") > strings.Index(out, "50ms") {
		t.Errorf("layer rows out of order:\n%s", out)
	}

	// A search-driven trace records one layer event per explored layer
	// and renders them too.
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10))
	var live TraceBuffer
	if _, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Trace: &live}); err != nil {
		t.Fatal(err)
	}
	if len(live.Layers) == 0 {
		t.Fatal("search recorded no layer events")
	}
	sb.Reset()
	if _, err := live.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "layer") {
		t.Errorf("live trace missing layer table:\n%s", sb.String())
	}
}

// TestExplainResultLiterals drives ExplainResult through crafted
// Result values, covering the closest-only, exhausted, and note paths
// without running a search.
func TestExplainResultLiterals(t *testing.T) {
	q := countQ(15, leDim(10))
	closest := relq.RefinedQuery{Base: q, Scores: []float64{30}, QScore: 30, Aggregate: 12, Err: 0.2}

	res := &Result{Explored: 9, CellQueries: 4, StoredPoints: 4, Closest: &closest}
	s := ExplainResult(q, res)
	for _, want := range []string{"explored 9 grid queries", "no refinement satisfied", "closest", "error 0.2000"} {
		if !strings.Contains(s, want) {
			t.Errorf("closest-only explain missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "exhausted") {
		t.Errorf("non-exhausted explain mentions exhaustion:\n%s", s)
	}

	res.Exhausted = true
	res.Note = "exploration budget exhausted"
	s = ExplainResult(q, res)
	for _, want := range []string{"search exhausted its budget or grid", "note: exploration budget exhausted"} {
		if !strings.Contains(s, want) {
			t.Errorf("exhausted explain missing %q:\n%s", want, s)
		}
	}

	sat := relq.RefinedQuery{Base: q, Scores: []float64{20}, QScore: 20, Aggregate: 15, Err: 0}
	res2 := &Result{Explored: 3, Satisfied: true, Queries: []relq.RefinedQuery{sat}, Best: &sat}
	s2 := ExplainResult(q, res2)
	for _, want := range []string{"1 refined queries satisfy", "aggregate 15", "refinement 20"} {
		if !strings.Contains(s2, want) {
			t.Errorf("satisfied explain missing %q:\n%s", want, s2)
		}
	}
}

func TestExplainResult(t *testing.T) {
	e := lineTable(t, 100)
	q := countQ(50, leDim(10))
	res, err := Run(e, q, Options{Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	s := ExplainResult(q, res)
	for _, want := range []string{"explored", "satisfy the constraint", "aggregate 50"} {
		if !strings.Contains(s, want) {
			t.Errorf("ExplainResult missing %q:\n%s", want, s)
		}
	}

	// Unsatisfied path.
	q2 := countQ(1e6, leDim(10))
	res2, err := Run(e, q2, Options{Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	s2 := ExplainResult(q2, res2)
	if !strings.Contains(s2, "closest") || !strings.Contains(s2, "exhausted") {
		t.Errorf("unsatisfied ExplainResult:\n%s", s2)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		sat, over, rep bool
		want           string
	}{
		{true, false, false, "satisfied"},
		{false, true, false, "overshoot"},
		{false, true, true, "repartitioned"},
		{false, false, false, "undershoot"},
	}
	for _, c := range cases {
		if got := classify(c.sat, c.over, c.rep); got != c.want {
			t.Errorf("classify(%v,%v,%v) = %q, want %q", c.sat, c.over, c.rep, got, c.want)
		}
	}
}

func TestTraceOnContractionAbsent(t *testing.T) {
	// Contraction runs its own loop; tracing is an expansion feature
	// and must simply be ignored (no panic).
	e := lineTable(t, 100)
	q := &relq.Query{
		Tables:     []string{"t"},
		Dims:       []relq.Dimension{leDim(50)},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 20},
	}
	var trace TraceBuffer
	if _, err := Run(e, q, Options{Delta: 0.001, Trace: &trace}); err != nil {
		t.Fatal(err)
	}
}
