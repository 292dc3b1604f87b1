package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// chromeDoc mirrors the Chrome trace-event JSON object format the
// exporter emits, for round-trip assertions.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func exportTrace(t *testing.T, tr *Trace) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// TestChromeJSONRoundTrip: a simple nested trace exports as parseable
// Chrome JSON with microsecond timestamps relative to the trace start
// and args carrying the span attributes.
func TestChromeJSONRoundTrip(t *testing.T) {
	clk := NewFakeClock(time.Unix(50, 0))
	tr := NewTrace("search-7", clk)
	root := tr.NewSpan(0, "search")
	root.SetAttrs(Float("gamma", 20), String("norm", "l2"))
	clk.Advance(time.Millisecond)
	layer := root.StartChild("layer")
	clk.Advance(3 * time.Millisecond)
	layer.End()
	clk.Advance(time.Millisecond)
	root.End()

	doc := exportTrace(t, tr)
	byName := map[string]chromeEvent{}
	for _, ev := range doc.TraceEvents {
		byName[ev.Name] = ev
	}
	if _, ok := byName["process_name"]; !ok {
		t.Error("missing process_name metadata event")
	}
	rootEv, ok := byName["search"]
	if !ok {
		t.Fatal("missing search event")
	}
	if rootEv.Ph != "X" {
		t.Errorf("ph = %q", rootEv.Ph)
	}
	if rootEv.Ts != 0 || rootEv.Dur != 5000 {
		t.Errorf("root ts/dur = %v/%v, want 0/5000 µs", rootEv.Ts, rootEv.Dur)
	}
	layerEv := byName["layer"]
	if layerEv.Ts != 1000 || layerEv.Dur != 3000 {
		t.Errorf("layer ts/dur = %v/%v, want 1000/3000 µs", layerEv.Ts, layerEv.Dur)
	}
	if g, ok := rootEv.Args["gamma"].(float64); !ok || g != 20 {
		t.Errorf("gamma arg = %v", rootEv.Args["gamma"])
	}
	if n, ok := rootEv.Args["norm"].(string); !ok || n != "l2" {
		t.Errorf("norm arg = %v", rootEv.Args["norm"])
	}
	// A nested child shares its parent's lane so the viewer stacks them.
	if layerEv.Tid != rootEv.Tid {
		t.Errorf("nested child on lane %d, parent on %d", layerEv.Tid, rootEv.Tid)
	}
}

// TestChromeJSONConcurrentSiblings: overlapping siblings must land on
// distinct lanes or the viewer would draw them as nested — even
// siblings with identical intervals, which "contain" each other.
func TestChromeJSONConcurrentSiblings(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("siblings", clk)
	root := tr.NewSpan(0, "search")
	base := clk.Now()
	// Four sibling spans covering the same interval.
	batch := root.StartChild("engine.batch")
	for i := 0; i < 4; i++ {
		batch.AddChild("evaluate", base, base.Add(10*time.Millisecond))
	}
	clk.Advance(10 * time.Millisecond)
	batch.End()
	root.End()

	doc := exportTrace(t, tr)
	lanes := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "evaluate" {
			if lanes[ev.Tid] {
				t.Errorf("two overlapping sibling spans share lane %d", ev.Tid)
			}
			lanes[ev.Tid] = true
		}
	}
	if len(lanes) != 4 {
		t.Errorf("sibling spans on %d lanes, want 4", len(lanes))
	}
}

// TestChromeJSONNonFiniteAttrs: NaN/Inf float attrs must not corrupt
// the JSON document (they are not representable as JSON numbers).
func TestChromeJSONNonFiniteAttrs(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("nan", clk)
	sp := tr.NewSpan(0, "search")
	sp.SetAttrs(Float("skew_ratio", math.NaN()), Float("inf", math.Inf(1)), String("quote", `a"b\c`))
	sp.End()
	doc := exportTrace(t, tr) // Unmarshal inside fails on invalid JSON
	for _, ev := range doc.TraceEvents {
		if ev.Name == "search" {
			if q, _ := ev.Args["quote"].(string); q != `a"b\c` {
				t.Errorf("escaped string round-trip = %q", q)
			}
		}
	}
}

// TestChromeJSONOpenSpan: a never-ended span (cancelled search) still
// exports — zero duration, valid document.
func TestChromeJSONOpenSpan(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("open", clk)
	root := tr.NewSpan(0, "search")
	root.StartChild("layer") // never ended
	clk.Advance(time.Millisecond)
	root.End()
	doc := exportTrace(t, tr)
	var found bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "layer" {
			found = true
			if ev.Dur != 0 {
				t.Errorf("open span dur = %v", ev.Dur)
			}
		}
	}
	if !found {
		t.Error("open span missing from export")
	}
}

// TestChromeJSONSpanIDs: every event carries span_id/parent_id args so
// the tree is reconstructible from the file alone.
func TestChromeJSONSpanIDs(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace("ids", clk)
	root := tr.NewSpan(0, "search")
	child := root.StartChild("layer")
	child.End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"span_id"`, `"parent_id"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("export missing %s:\n%s", want, buf.String())
		}
	}
}
