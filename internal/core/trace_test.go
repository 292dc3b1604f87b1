package core

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"acquire/internal/obs"
	"acquire/internal/relq"
)

// searchEvent is one structured event a search emitted: its message
// and its attributes by key.
type searchEvent struct {
	msg   string
	attrs map[string]slog.Value
}

func decodeEvent(r slog.Record) searchEvent {
	ev := searchEvent{msg: r.Message, attrs: make(map[string]slog.Value, r.NumAttrs())}
	r.Attrs(func(a slog.Attr) bool {
		ev.attrs[a.Key] = a.Value
		return true
	})
	return ev
}

func (ev searchEvent) i64(key string) int64   { return ev.attrs[key].Int64() }
func (ev searchEvent) f64(key string) float64 { return ev.attrs[key].Float64() }
func (ev searchEvent) str(key string) string  { return ev.attrs[key].String() }
func (ev searchEvent) scores() []float64      { return ev.attrs["scores"].Any().([]float64) }

// eventLog is an slog.Handler that keeps every event a search emits,
// at every level. The engine logs its events through the search's
// observer from its worker goroutines, hence the lock.
type eventLog struct {
	mu     sync.Mutex
	events []searchEvent
}

func (l *eventLog) Enabled(context.Context, slog.Level) bool { return true }

func (l *eventLog) Handle(_ context.Context, r slog.Record) error {
	ev := decodeEvent(r)
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
	return nil
}

func (l *eventLog) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *eventLog) WithGroup(string) slog.Handler      { return l }

// observer returns an observer whose structured events land in l.
func (l *eventLog) observer() *obs.Observer {
	return obs.NewObserver(nil).WithLogger(slog.New(l))
}

// named returns the events called msg, in emission order.
func (l *eventLog) named(msg string) []searchEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []searchEvent
	for _, ev := range l.events {
		if ev.msg == msg {
			out = append(out, ev)
		}
	}
	return out
}

// TestSearchPointEvents: a search emits one search.point event per
// explored grid query, in exploration order, so the event stream is a
// readable proof of Theorem 2's layer ordering.
func TestSearchPointEvents(t *testing.T) {
	e := lineTable(t, 1000)
	q := countQ(15, leDim(10)) // forces a repartition (see acquire_test)
	log := &eventLog{}
	res, err := Run(e, q, Options{Gamma: 10, Delta: 0.01, Observer: log.observer()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("not satisfied: %+v", res)
	}
	points := log.named("search.point")
	if len(points) != res.Explored {
		t.Fatalf("%d search.point events, explored %d", len(points), res.Explored)
	}
	// Theorem 2 visible in the events: QScores never decrease.
	last := -1.0
	sawRepartition := false
	for i, ev := range points {
		if ev.i64("seq") != int64(i) {
			t.Errorf("event %d has seq %d", i, ev.i64("seq"))
		}
		qs := ev.f64("qscore")
		if qs < last-1e-9 {
			t.Errorf("QScore decreased at event %d: %v after %v", i, qs, last)
		}
		last = qs
		// One dimension under L1: the point's QScore is its score, so
		// every event must hold its own copy of the scores.
		if sc := ev.scores(); len(sc) != 1 || sc[0] != qs {
			t.Errorf("event %d has scores %v, QScore %v", i, sc, qs)
		}
		if ev.str("outcome") == "repartitioned" {
			sawRepartition = true
		}
	}
	if !sawRepartition {
		t.Error("expected a repartitioned event in this workload")
	}
}

// TestDoneEventsCarryEngineWork: a search's search.done and a
// contraction's contract.done both list every engine counter of the
// work they report in Result.Engine, under the keys of Stats.Attrs.
func TestDoneEventsCarryEngineWork(t *testing.T) {
	e := lineTable(t, 1000)
	for _, c := range []struct {
		event string
		q     *relq.Query
	}{
		{"search.done", countQ(15, leDim(10))},
		{"contract.done", &relq.Query{Tables: []string{"t"}, Dims: []relq.Dimension{leDim(600)},
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpLE, Target: 300}}},
	} {
		log := &eventLog{}
		res, err := Run(e, c.q, Options{Gamma: 10, Delta: 0.01, Observer: log.observer()})
		if err != nil {
			t.Fatal(err)
		}
		done := log.named(c.event)
		if len(done) != 1 {
			t.Fatalf("%d %s events, want 1", len(done), c.event)
		}
		if res.Engine.Queries == 0 || res.Engine.RowsScanned == 0 {
			t.Fatalf("%s: the search counted no engine work: %+v", c.event, res.Engine)
		}
		for _, a := range res.Engine.Attrs() {
			v, ok := done[0].attrs[a.Key]
			if !ok || v.Int64() != a.I64() {
				t.Errorf("%s: %s = %v (present %v), Result.Engine has %d", c.event, a.Key, v, ok, a.I64())
			}
		}
		if got := done[0].i64("cell_queries"); got != int64(res.CellQueries) {
			t.Errorf("%s: cell_queries = %d, Result has %d", c.event, got, res.CellQueries)
		}
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
