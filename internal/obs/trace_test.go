package obs

import (
	"context"
	"testing"
	"time"
)

// TestTraceSpanTree builds a deterministic two-layer tree on a fake
// clock and checks IDs, parent links, timing and attributes.
func TestTraceSpanTree(t *testing.T) {
	clk := NewFakeClock(time.Unix(100, 0))
	tr := NewTrace("search-1", clk)
	if tr.ID() != "search-1" {
		t.Fatalf("ID = %q", tr.ID())
	}

	root := tr.NewSpan(0, "search")
	if !root.Active() || root.ID() != 1 {
		t.Fatalf("root ref = %+v", root)
	}
	root.SetAttrs(Float("gamma", 20), String("norm", "l2"), Int("dims", 3), Bool("exhausted", false))

	clk.Advance(time.Millisecond)
	layer := root.StartChild("layer")
	clk.Advance(time.Millisecond)
	fold := layer.StartChild("fold")
	clk.Advance(2 * time.Millisecond)
	if d := fold.End(); d != 2*time.Millisecond {
		t.Errorf("fold duration = %v", d)
	}
	clk.Advance(time.Millisecond)
	layer.End()
	clk.Advance(time.Millisecond)
	root.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "search" || spans[0].Parent != 0 {
		t.Errorf("root span = %+v", spans[0])
	}
	if spans[1].Name != "layer" || spans[1].Parent != spans[0].ID {
		t.Errorf("layer span = %+v", spans[1])
	}
	if spans[2].Name != "fold" || spans[2].Parent != spans[1].ID {
		t.Errorf("fold span = %+v", spans[2])
	}
	if d := tr.Duration(); d != 6*time.Millisecond {
		t.Errorf("trace duration = %v", d)
	}
	// Children are contained in their parents.
	for i := 1; i < len(spans); i++ {
		p := spans[spans[i].Parent-1]
		if spans[i].Start.Before(p.Start) || spans[i].End.After(p.End) {
			t.Errorf("span %q not contained in parent %q", spans[i].Name, p.Name)
		}
	}

	if a, ok := spans[0].Attr("gamma"); !ok || a.F64() != 20 {
		t.Errorf("gamma attr = %+v, %v", a, ok)
	}
	if a, ok := spans[0].Attr("norm"); !ok || a.Str() != "l2" {
		t.Errorf("norm attr = %+v, %v", a, ok)
	}
	if a, ok := spans[0].Attr("dims"); !ok || a.I64() != 3 {
		t.Errorf("dims attr = %+v, %v", a, ok)
	}
	if a, ok := spans[0].Attr("exhausted"); !ok || a.B() {
		t.Errorf("exhausted attr = %+v, %v", a, ok)
	}
	if _, ok := spans[0].Attr("missing"); ok {
		t.Error("found absent attr")
	}
}

// TestTraceEndIdempotent: ending twice keeps the first end time.
func TestTraceEndIdempotent(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("", clk)
	sp := tr.NewSpan(0, "search")
	clk.Advance(time.Second)
	sp.End()
	clk.Advance(time.Hour)
	sp.End()
	if d := tr.Duration(); d != time.Second {
		t.Errorf("duration after double End = %v", d)
	}
}

// TestTraceAutoID: empty ids are auto-generated and unique.
func TestTraceAutoID(t *testing.T) {
	a, b := NewTrace("", nil), NewTrace("", nil)
	if a.ID() == "" || a.ID() == b.ID() {
		t.Errorf("auto ids %q, %q", a.ID(), b.ID())
	}
}

// TestTraceMaxSpans: spans past the cap are dropped and counted, and
// refs for dropped spans are inert.
func TestTraceMaxSpans(t *testing.T) {
	tr := NewTrace("capped", NewFakeClock(time.Unix(0, 0)))
	tr.SetMaxSpans(2)
	root := tr.NewSpan(0, "search")
	root.StartChild("kept")
	dropped := root.StartChild("dropped")
	if dropped.Active() {
		t.Error("over-cap span ref is active")
	}
	dropped.SetAttrs(Int("x", 1)) // must not panic or record
	dropped.End()
	if n := tr.NumSpans(); n != 2 {
		t.Errorf("NumSpans = %d", n)
	}
	if d := tr.Dropped(); d != 1 {
		t.Errorf("Dropped = %d", d)
	}
}

// TestSpanContextRoundTrip: spans survive a context hop; inactive refs
// leave the context untouched.
func TestSpanContextRoundTrip(t *testing.T) {
	tr := NewTrace("ctx", NewFakeClock(time.Unix(0, 0)))
	sp := tr.NewSpan(0, "search")
	ctx := ContextWithSpan(context.Background(), sp)
	got := SpanFromContext(ctx)
	if got != sp {
		t.Errorf("round trip = %+v, want %+v", got, sp)
	}
	base := context.Background()
	if ContextWithSpan(base, SpanRef{}) != base {
		t.Error("inactive ref changed the context")
	}
	if SpanFromContext(base).Active() {
		t.Error("empty context produced an active span")
	}
	if SpanFromContext(nil).Active() {
		t.Error("nil context produced an active span")
	}
}

// TestInertSpanZeroAlloc asserts the tracing-disabled path allocates
// nothing: the zero SpanRef's whole surface — child creation, attrs,
// end, context threading — must be free, since every search runs
// through it when no recorder is attached.
func TestInertSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	var sink SpanRef
	allocs := testing.AllocsPerRun(1000, func() {
		sp := SpanFromContext(ctx)
		child := sp.StartChild("layer")
		child.End()
		ctx2 := ContextWithSpan(ctx, child)
		sink = SpanFromContext(ctx2)
		sink.AddChild("evaluate", time.Time{}, time.Time{})
		_ = sink.Active()
	})
	if allocs != 0 {
		t.Errorf("disabled-path allocs/op = %v, want 0", allocs)
	}
	var nilTrace *Trace
	allocs = testing.AllocsPerRun(1000, func() {
		sp := nilTrace.NewSpan(0, "search")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("nil-trace allocs/op = %v, want 0", allocs)
	}
}

// TestTraceBytesGrows: the byte estimate reflects spans and attrs, so
// the recorder cap has something real to account.
func TestTraceBytesGrows(t *testing.T) {
	tr := NewTrace("b", NewFakeClock(time.Unix(0, 0)))
	b0 := tr.Bytes()
	sp := tr.NewSpan(0, "search")
	b1 := tr.Bytes()
	sp.SetAttrs(String("fingerprint", "0123456789abcdef0123456789abcdef"))
	b2 := tr.Bytes()
	if !(b0 < b1 && b1 < b2) {
		t.Errorf("Bytes not monotonic: %d, %d, %d", b0, b1, b2)
	}
}
