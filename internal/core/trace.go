package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"acquire/internal/obs"
	"acquire/internal/relq"
)

// TraceEvent is one step of the refinement search, for debugging and
// the CLI's -explain mode. Events are emitted in exploration order, so
// a trace is also a readable proof of Theorem 2's layer ordering.
type TraceEvent struct {
	// Seq is the exploration index (0-based).
	Seq int
	// Scores is the grid query's refinement vector.
	Scores []float64
	// QScore is its refinement score under the search norm.
	QScore float64
	// Aggregate is the actual aggregate value.
	Aggregate float64
	// Err is the aggregate error.
	Err float64
	// Outcome classifies the step: "satisfied", "undershoot",
	// "overshoot", "repartitioned".
	Outcome string
}

// Tracer receives search events. Implementations must be cheap; the
// search calls them on every explored point.
type Tracer interface {
	Event(ev TraceEvent)
}

// LayerEvent summarises one Expand layer of the batched search: how
// wide the layer was, how many evaluation-layer queries the batch
// dispatched (already-stored points are skipped, so BatchWidth <=
// Width), and the wall-clock time the layer took end to end. These
// events make the batch parallelism observable without profiling.
type LayerEvent struct {
	// Layer is the 0-based layer index in exploration order.
	Layer int
	// QScore is the layer's refinement score (the score of its first
	// point).
	QScore float64
	// Width is the number of grid points in the layer.
	Width int
	// BatchWidth is the number of regions dispatched in the layer's
	// prefetch batch.
	BatchWidth int
	// Wall is the elapsed wall-clock time for the whole layer
	// (prefetch + recurrence folds + repartitioning).
	Wall time.Duration
}

// LayerTracer is an optional extension of Tracer: implementations also
// receive one LayerEvent per Expand layer.
type LayerTracer interface {
	Tracer
	LayerDone(ev LayerEvent)
}

// TraceBuffer is a Tracer that records every event.
type TraceBuffer struct {
	Events []TraceEvent
	// Layers records per-layer batch events (LayerTracer).
	Layers []LayerEvent
}

// Event implements Tracer.
func (t *TraceBuffer) Event(ev TraceEvent) { t.Events = append(t.Events, ev) }

// LayerDone implements LayerTracer.
func (t *TraceBuffer) LayerDone(ev LayerEvent) { t.Layers = append(t.Layers, ev) }

// WriteTo renders the trace as an aligned table: the per-point events
// first, then (when the search ran the batched layer pipeline) one row
// per Expand layer with its batch width and wall time.
func (t *TraceBuffer) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-24s  %10s  %12s  %8s  %s\n",
		"seq", "scores", "QScore", "aggregate", "err", "outcome")
	for _, ev := range t.Events {
		fmt.Fprintf(&b, "%4d  %-24s  %10.3f  %12.4g  %8.4f  %s\n",
			ev.Seq, scoresString(ev.Scores), ev.QScore, ev.Aggregate, ev.Err, ev.Outcome)
	}
	if len(t.Layers) > 0 {
		fmt.Fprintf(&b, "\n%5s  %10s  %6s  %6s  %s\n",
			"layer", "QScore", "width", "batch", "wall")
		for _, le := range t.Layers {
			fmt.Fprintf(&b, "%5d  %10.3f  %6d  %6d  %s\n",
				le.Layer, le.QScore, le.Width, le.BatchWidth, le.Wall)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func scoresString(scores []float64) string {
	parts := make([]string, len(scores))
	for i, s := range scores {
		parts[i] = fmt.Sprintf("%.3g", s)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// layerEventFromSpan reconstructs a LayerEvent from one "layer" span
// of a search trace.
func layerEventFromSpan(sp obs.TraceSpan) LayerEvent {
	ev := LayerEvent{Wall: sp.Duration()}
	if a, ok := sp.Attr("layer"); ok {
		ev.Layer = int(a.I64())
	}
	if a, ok := sp.Attr("qscore"); ok {
		ev.QScore = a.F64()
	}
	if a, ok := sp.Attr("width"); ok {
		ev.Width = int(a.I64())
	}
	if a, ok := sp.Attr("batch_width"); ok {
		ev.BatchWidth = int(a.I64())
	}
	return ev
}

// LayerEventFromSpan derives the LayerEvent for a live layer-span ref
// (ok=false when the ref is inactive, e.g. the trace hit its span
// cap). The search emits LayerTracer events through this, so the
// -explain layer table and a trace's layer spans are one dataset.
func LayerEventFromSpan(sp obs.SpanRef) (LayerEvent, bool) {
	rec, ok := sp.Span()
	if !ok {
		return LayerEvent{}, false
	}
	return layerEventFromSpan(rec), true
}

// LayerEventsFromTrace walks a search trace's span tree and returns
// the LayerEvents of every completed "layer" span under the root, in
// start order — the root-span walk /debug/traces consumers use to
// rebuild the CLI's layer table from an exported trace.
func LayerEventsFromTrace(t *obs.Trace) []LayerEvent {
	if t == nil {
		return nil
	}
	root, ok := t.Root()
	if !ok {
		return nil
	}
	var out []LayerEvent
	for _, sp := range t.Snapshot() {
		if sp.Parent == root.ID && sp.Name == "layer" && !sp.End.IsZero() {
			out = append(out, layerEventFromSpan(sp))
		}
	}
	return out
}

// classify names a step's outcome for the trace.
func classify(satisfied, overshoot, repartitioned bool) string {
	switch {
	case satisfied:
		return "satisfied"
	case repartitioned:
		return "repartitioned"
	case overshoot:
		return "overshoot"
	default:
		return "undershoot"
	}
}

// ExplainResult summarises a Result for human consumption: the layer
// profile and the recommended queries.
func ExplainResult(q *relq.Query, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "explored %d grid queries (%d evaluation-layer executions, %d stored points)\n",
		res.Explored, res.CellQueries, res.StoredPoints)
	if res.Exhausted {
		b.WriteString("search exhausted its budget or grid\n")
	}
	if res.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", res.Note)
	}
	if res.Satisfied {
		fmt.Fprintf(&b, "%d refined queries satisfy the constraint; best:\n  %s\n",
			len(res.Queries), res.Best.ToSQL())
		fmt.Fprintf(&b, "  aggregate %.6g (error %.4f), refinement %.4g\n",
			res.Best.Aggregate, res.Best.Err, res.Best.QScore)
	} else if res.Closest != nil {
		fmt.Fprintf(&b, "no refinement satisfied; closest:\n  %s\n  aggregate %.6g (error %.4f)\n",
			res.Closest.ToSQL(), res.Closest.Aggregate, res.Closest.Err)
	}
	return b.String()
}
