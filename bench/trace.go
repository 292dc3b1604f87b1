package main

import (
	"context"
	"encoding/json"
	"os"
	"time"
)

// Span names, one per layer boundary the benchmark crosses:
//
//	refine
//	  sqlparse.parse
//	  sqlparse.analyze
//	  core.search
//	    exec.cell_batch
//	    exec.probe
const (
	spanRefine    = "refine"
	spanParse     = "sqlparse.parse"
	spanAnalyze   = "sqlparse.analyze"
	spanSearch    = "core.search"
	spanCellBatch = "exec.cell_batch"
	spanProbe     = "exec.probe"
)

// span is one timed interval. Spans of one refinement share Refine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a refine span
	Refine int    `json:"refine"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	// Regions is the number of regions an exec span carried.
	Regions int `json:"regions,omitempty"`
}

// tracer keeps spans in memory until the run ends. One client goroutine
// drives the search, and core calls its evaluator from that goroutine
// only, so there is no lock.
type tracer struct {
	start time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin and end do nothing on a nil tracer, which is how the untraced
// run shares the traced run's code.
func (t *tracer) begin(name string, parent, refine int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Refine: refine, Name: name,
		Start: int64(time.Since(t.start))})
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.start))
	}
}

// selfTimes returns each span's duration minus the part its children
// cover. Children of one span run one after another on the client
// goroutine, so the covered part is the sum of their durations.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

func (t *tracer) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEvaluator is the benchmark's decorator around the engine: it
// records one span per evaluation-layer call made by the search that is
// running under parent.
type tracedEvaluator struct {
	inner          evaluator
	tr             *tracer
	parent, refine int
}

func (t *tracedEvaluator) Aggregate(q *query, r region) (partial, error) {
	id := t.tr.begin(spanProbe, t.parent, t.refine)
	t.tr.spans[id].Regions = 1
	p, err := t.inner.Aggregate(q, r)
	t.tr.end(id)
	return p, err
}

func (t *tracedEvaluator) AggregateBatch(ctx context.Context, q *query, regions []region) ([]partial, error) {
	name := spanCellBatch
	if isProbe(regions) {
		name = spanProbe
	}
	id := t.tr.begin(name, t.parent, t.refine)
	t.tr.spans[id].Regions = len(regions)
	ps, err := t.inner.AggregateBatch(ctx, q, regions)
	t.tr.end(id)
	return ps, err
}

func (t *tracedEvaluator) Catalog() *catalog { return t.inner.Catalog() }
