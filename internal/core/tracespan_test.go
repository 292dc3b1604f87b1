package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"acquire/internal/obs"
)

// TestSearchSpanTree: a traced search records one span tree — search
// root with per-layer layer spans, each holding prefetch and fold
// children, engine batches nested below — deposited in the observer's
// flight recorder with deterministic FakeClock timing.
func TestSearchSpanTree(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10)) // forces a repartition (see acquire_test)

	clk := obs.NewFakeClock(time.Unix(1000, 0)).AutoAdvance(time.Millisecond)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{})
	o := obs.NewObserver(nil).WithClock(clk).WithRecorder(rec)

	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %+v", res)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d traces, want 1", rec.Len())
	}
	tr := rec.Traces()[0]
	spans := tr.Snapshot()
	root, ok := tr.Root()
	if !ok || root.Name != "search" {
		t.Fatalf("root span = %+v", root)
	}
	if root.End.IsZero() {
		t.Fatal("root never ended")
	}
	if a, ok := root.Attr("satisfied"); !ok || !a.B() {
		t.Errorf("root satisfied attr = %+v, %v", a, ok)
	}
	if a, ok := root.Attr("explored"); !ok || a.I64() != int64(res.Explored) {
		t.Errorf("root explored attr = %+v, want %d", a, res.Explored)
	}

	// Count the tree's layers and check phase nesting.
	byID := map[obs.SpanID]obs.TraceSpan{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var layers, prefetches, folds, expands int
	for _, s := range spans {
		switch s.Name {
		case "layer":
			layers++
			if s.Parent != root.ID {
				t.Errorf("layer span %d not under root", s.ID)
			}
			if s.End.IsZero() {
				t.Errorf("layer span %d never ended", s.ID)
			}
		case "prefetch":
			prefetches++
			if byID[s.Parent].Name != "layer" {
				t.Errorf("prefetch under %q", byID[s.Parent].Name)
			}
		case "fold":
			folds++
			if byID[s.Parent].Name != "layer" {
				t.Errorf("fold under %q", byID[s.Parent].Name)
			}
		case "expand":
			expands++
			if s.Parent != root.ID {
				t.Errorf("expand span %d not under root", s.ID)
			}
		}
		// Every non-root span nests timewise in its parent.
		if s.Parent != 0 {
			p := byID[s.Parent]
			if s.Start.Before(p.Start) {
				t.Errorf("span %q starts before parent %q", s.Name, p.Name)
			}
		}
	}
	if layers == 0 || layers != prefetches || layers != folds {
		t.Errorf("layers=%d prefetches=%d folds=%d", layers, prefetches, folds)
	}
	if expands == 0 {
		t.Errorf("no expand spans")
	}

	// §6 is visible in the tree: each repartition span says how many
	// probes it ran, how many regions they sent and whether one of them
	// was the answer, and the root totals them. This search overshoots
	// once, at u=1, and the first probe (the box (0, 5]) satisfies.
	var reparts int
	for _, s := range spans {
		if s.Name != "repartition" {
			continue
		}
		reparts++
		probes, _ := s.Attr("probes")
		regions, _ := s.Attr("regions")
		found, ok := s.Attr("found")
		if probes.I64() != 1 || regions.I64() != 1 || !ok || !found.B() {
			t.Errorf("repartition span attrs probes=%d regions=%d found=%v, want 1, 1, true", probes.I64(), regions.I64(), found.B())
		}
	}
	if reparts != 1 {
		t.Errorf("%d repartition spans, want 1", reparts)
	}
	probes, _ := root.Attr("probes")
	regions, _ := root.Attr("probe_regions")
	if probes.I64() != 1 || regions.I64() != 1 {
		t.Errorf("root probes=%d probe_regions=%d, want 1 and 1", probes.I64(), regions.I64())
	}

	// The trace exports as valid Chrome JSON.
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("invalid Chrome JSON:\n%s", buf.String())
	}
}

// TestLayerEventsFromTrace: the -explain layer table and the span tree
// are the same data — a search run with both a TraceBuffer and a
// recorder yields identical layer rows from either source.
func TestLayerEventsFromTrace(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10))

	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{})
	o := obs.NewObserver(nil).WithClock(clk).WithRecorder(rec)
	var trace TraceBuffer
	if _, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Observer: o, Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d traces", rec.Len())
	}
	fromTrace := LayerEventsFromTrace(rec.Traces()[0])
	if len(fromTrace) == 0 || len(fromTrace) != len(trace.Layers) {
		t.Fatalf("LayerEventsFromTrace = %d rows, TraceBuffer = %d", len(fromTrace), len(trace.Layers))
	}
	for i := range fromTrace {
		got, want := fromTrace[i], trace.Layers[i]
		if got.Layer != want.Layer || got.QScore != want.QScore ||
			got.Width != want.Width || got.BatchWidth != want.BatchWidth || got.Wall != want.Wall {
			t.Errorf("layer %d: span-derived %+v != buffer %+v", i, got, want)
		}
	}
}

// TestTraceBufferWithoutRecorder: -explain alone (LayerTracer, no
// recorder) still produces layer rows — the search builds a private
// span tree to derive them even when nothing retains it.
func TestTraceBufferWithoutRecorder(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10))
	var trace TraceBuffer
	if _, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	if len(trace.Layers) == 0 {
		t.Fatal("no layer events without a recorder")
	}
	for i, ev := range trace.Layers {
		if ev.Layer != i {
			t.Errorf("layer %d has index %d", i, ev.Layer)
		}
	}
}

// TestSearchSpanNestsUnderCaller: a caller-provided context span makes
// the search graft its tree under the caller's trace instead of
// opening its own (and nothing lands in the recorder — the caller owns
// the root).
func TestSearchSpanNestsUnderCaller(t *testing.T) {
	e := lineTable(t, 200)
	q := countQ(50, leDim(10))

	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{})
	o := obs.NewObserver(nil).WithClock(clk).WithRecorder(rec)

	caller := obs.NewTrace("caller", clk)
	callerRoot := caller.NewSpan(0, "request")
	ctx := obs.ContextWithSpan(context.Background(), callerRoot)

	if _, err := RunContext(ctx, e, q, Options{Delta: 0.001, Observer: o}); err != nil {
		t.Fatal(err)
	}
	callerRoot.End()
	if rec.Len() != 0 {
		t.Errorf("nested search deposited %d traces in the recorder", rec.Len())
	}
	var found bool
	for _, s := range caller.Snapshot() {
		if s.Name == "search" && s.Parent == callerRoot.ID() {
			found = true
			if s.End.IsZero() {
				t.Error("nested search span never ended")
			}
		}
	}
	if !found {
		t.Error("search span missing from the caller's trace")
	}
}
