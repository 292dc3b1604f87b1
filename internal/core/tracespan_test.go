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

// TestLayerEventsFromTrace: the search.layer events and a traced
// search's layer spans are the same data — one event per layer span
// under the root, with equal layer, qscore, width, batch_width and
// wall time.
func TestLayerEventsFromTrace(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10))

	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	rec := obs.NewFlightRecorder(obs.RecorderConfig{})
	log := &eventLog{}
	o := log.observer().WithClock(clk).WithRecorder(rec)
	if _, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Observer: o}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d traces", rec.Len())
	}
	tr := rec.Traces()[0]
	root, _ := tr.Root()
	var spans []obs.TraceSpan
	for _, sp := range tr.Snapshot() {
		if sp.Parent == root.ID && sp.Name == "layer" {
			spans = append(spans, sp)
		}
	}
	events := log.named("search.layer")
	if len(spans) == 0 || len(spans) != len(events) {
		t.Fatalf("%d layer spans, %d search.layer events", len(spans), len(events))
	}
	for i, sp := range spans {
		ev := events[i]
		for _, key := range []string{"layer", "width", "batch_width"} {
			if a, _ := sp.Attr(key); a.I64() != ev.i64(key) {
				t.Errorf("layer %d: span %s=%d, event %d", i, key, a.I64(), ev.i64(key))
			}
		}
		if a, _ := sp.Attr("qscore"); a.F64() != ev.f64("qscore") {
			t.Errorf("layer %d: span qscore=%v, event %v", i, a.F64(), ev.f64("qscore"))
		}
		if ms := float64(sp.Duration()) / float64(time.Millisecond); ms != ev.f64("wall_ms") {
			t.Errorf("layer %d: span wall %v ms, event %v ms", i, ms, ev.f64("wall_ms"))
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
