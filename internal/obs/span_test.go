package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestFakeClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := NewFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("fake clock did not start at t0")
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("advance: got %v", got)
	}
	c.AutoAdvance(time.Millisecond)
	a := c.Now()
	b := c.Now()
	if d := b.Sub(a); d != time.Millisecond {
		t.Fatalf("auto-advance step = %v, want 1ms", d)
	}
}

func TestSpanDeterministicWithFakeClock(t *testing.T) {
	reg := NewRegistry()
	clk := NewFakeClock(time.Unix(0, 0))
	o := NewObserver(reg).WithClock(clk).ForSearch("s1")

	sp := o.StartSpan(SpanRef{}, "expand")
	clk.Advance(250 * time.Millisecond)
	if d := sp.End(); d != 250*time.Millisecond {
		t.Fatalf("span duration = %v, want 250ms", d)
	}
	sp2 := o.StartSpan(SpanRef{}, "expand")
	clk.Advance(50 * time.Millisecond)
	sp2.End()

	ph := o.Phases()
	if ph["expand"].Count != 2 || ph["expand"].Total != 300*time.Millisecond {
		t.Fatalf("phase stats = %+v", ph["expand"])
	}

	h := reg.Histogram(`acquire_phase_duration_seconds{phase="expand"}`, "", nil)
	if h.Count() != 2 {
		t.Fatalf("histogram count = %d, want 2", h.Count())
	}
	if h.Sum() != 0.3 {
		t.Fatalf("histogram sum = %v, want 0.3", h.Sum())
	}
}

// TestSpanRefOneTimer: one End times a span into the phase histogram
// and the search's PhaseTimes and, when the ref is traced, closes its
// trace record; children inherit the observer across a context hop,
// traced or timing only.
func TestSpanRefOneTimer(t *testing.T) {
	reg := NewRegistry()
	clk := NewFakeClock(time.Unix(0, 0))
	o := NewObserver(reg).WithClock(clk).ForSearch("s")

	tr, root := o.StartTrace("search")
	if tr.ID() != "s" || !root.Active() || root.Observer() != o {
		t.Fatalf("StartTrace = %q, %+v", tr.ID(), root)
	}
	clk.Advance(time.Millisecond)
	layer := SpanFromContext(ContextWithSpan(context.Background(), root)).StartChild("layer")
	clk.Advance(2 * time.Millisecond)
	ev := layer.AddChild("evaluate", clk.Now().Add(-time.Millisecond), clk.Now())
	layer.End()
	root.End()

	bare := o.StartSpan(SpanRef{}, "layer")
	if bare.Active() || !bare.Timed() {
		t.Fatalf("timing-only ref: active=%v timed=%v", bare.Active(), bare.Timed())
	}
	child := SpanFromContext(ContextWithSpan(context.Background(), bare)).StartChild("evaluate")
	clk.Advance(time.Millisecond)
	if d := child.End(); d != time.Millisecond {
		t.Errorf("timing-only child = %v, want 1ms", d)
	}
	bare.End()

	want := map[string]PhaseStat{
		"search":   {Count: 1, Total: 3 * time.Millisecond},
		"layer":    {Count: 2, Total: 3 * time.Millisecond},
		"evaluate": {Count: 2, Total: 2 * time.Millisecond},
	}
	ph := o.Phases()
	for name, w := range want {
		if ph[name] != w {
			t.Errorf("phase %q = %+v, want %+v", name, ph[name], w)
		}
		h := reg.Histogram(`acquire_phase_duration_seconds{phase="`+name+`"}`, "", nil)
		if h.Count() != w.Count {
			t.Errorf("phase %q histogram count = %d, want %d", name, h.Count(), w.Count)
		}
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("trace holds %d spans, want 3 (timing-only spans are not recorded)", len(spans))
	}
	if sp, _ := ev.Span(); sp.Parent != layer.ID() || sp.Duration() != time.Millisecond {
		t.Errorf("evaluate record = %+v", sp)
	}
	if d := tr.Duration(); d != 3*time.Millisecond {
		t.Errorf("trace duration = %v, want 3ms", d)
	}
}

func TestForSearchIsolatesPhases(t *testing.T) {
	o := NewObserver(nil)
	a := o.ForSearch("a")
	b := o.ForSearch("b")
	clk := NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	a = a.WithClock(clk)
	a.StartSpan(SpanRef{}, "fold").End()
	if got := b.Phases(); len(got) != 0 {
		t.Fatalf("search b sees search a's phases: %v", got)
	}
	if got := a.Phases(); got["fold"].Count != 1 {
		t.Fatalf("search a phases = %v", got)
	}
	if o.Phases() != nil {
		t.Fatal("unscoped observer must have no phase collector")
	}
}

func TestObserverStructuredEvents(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := NewObserver(nil).WithLogger(logger).ForSearch("search-7")
	o.Info("search.start", "gamma", 10.0)
	o.Debug("search.point", "seq", 3, "outcome", "satisfied")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["msg"] != "search.start" || rec["search_id"] != "search-7" || rec["gamma"] != 10.0 {
		t.Errorf("start record = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["outcome"] != "satisfied" || rec["search_id"] != "search-7" {
		t.Errorf("point record = %v", rec)
	}
}

func TestLogEnabledGatesLevels(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil)) // Info level
	o := NewObserver(nil).WithLogger(logger)
	if o.LogEnabled(slog.LevelDebug) {
		t.Error("debug must be disabled at info level")
	}
	if !o.LogEnabled(slog.LevelInfo) {
		t.Error("info must be enabled")
	}
	o.Debug("dropped")
	if buf.Len() != 0 {
		t.Errorf("debug event leaked: %s", buf.String())
	}
	var nilObs *Observer
	if nilObs.LogEnabled(slog.LevelError) {
		t.Error("nil observer must report logging disabled")
	}
}

func TestNilObserverAccessors(t *testing.T) {
	var o *Observer
	if o.Clock() != Real {
		t.Error("nil observer clock must be Real")
	}
	if o.Registry() != nil || o.SearchID() != "" || o.Phases() != nil {
		t.Error("nil observer accessors must be zero")
	}
	if o.WithClock(Real) != nil || o.WithLogger(nil) != nil || o.ForSearch("x") != nil {
		t.Error("deriving from a nil observer must stay nil")
	}
	if o.Counter("x", "") != nil || o.Gauge("x", "") != nil || o.Histogram("x", "", nil) != nil {
		t.Error("nil observer metrics must be nil")
	}
}
