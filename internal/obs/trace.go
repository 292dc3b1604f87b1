package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID identifies one span within its Trace. IDs are dense — the
// first span of a trace gets 1 — and 0 means "no span" (the zero
// SpanRef, the root's parent).
type SpanID uint32

// AttrKind discriminates the typed payload of an Attr.
type AttrKind uint8

const (
	// AttrString holds a string value.
	AttrString AttrKind = iota
	// AttrInt holds an int64 value.
	AttrInt
	// AttrFloat holds a float64 value.
	AttrFloat
	// AttrBool holds a bool value.
	AttrBool
)

// Attr is one typed key/value annotation on a TraceSpan. Attrs are
// values (no interface boxing) so building them does not allocate
// beyond the containing slice.
type Attr struct {
	Key  string
	Kind AttrKind
	str  string
	num  float64
	i    int64
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, Kind: AttrString, str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, num: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: AttrBool}
	if v {
		a.i = 1
	}
	return a
}

// Str returns the string payload ("" for non-string attrs).
func (a Attr) Str() string { return a.str }

// I64 returns the integer payload (0 for non-int attrs; 1/0 for bools).
func (a Attr) I64() int64 { return a.i }

// F64 returns the float payload (0 for non-float attrs).
func (a Attr) F64() float64 { return a.num }

// B reports the boolean payload.
func (a Attr) B() bool { return a.i != 0 }

// Value returns the payload as an interface for generic rendering.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrString:
		return a.str
	case AttrInt:
		return a.i
	case AttrFloat:
		return a.num
	default:
		return a.i != 0
	}
}

// TraceSpan is one timed node of a Trace's span tree: a name, a
// half-open [Start, End) interval, a parent link and typed attributes.
// Snapshots hand out copies; the canonical storage lives inside the
// Trace.
type TraceSpan struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration is End-Start (0 while the span is still open).
func (s TraceSpan) Duration() time.Duration {
	if s.End.IsZero() || s.End.Before(s.Start) {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Attr returns the first attribute with the key and whether it exists.
func (s TraceSpan) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// DefaultMaxSpans bounds one trace's span count; spans started past
// the cap are dropped (counted in Dropped) so a pathological search
// cannot grow a trace without bound.
const DefaultMaxSpans = 16384

// traceSeq numbers auto-generated trace IDs process-wide.
var traceSeq atomic.Uint64

// Trace is one per-search span tree. Spans are appended under a
// mutex — StartChild/End are called concurrently from worker pools —
// and identified by dense SpanIDs (index+1 into the span slice).
// A nil *Trace is inert: the zero SpanRef it hands out no-ops.
type Trace struct {
	id    string
	clock Clock

	mu       sync.Mutex
	spans    []TraceSpan
	maxSpans int
	dropped  int
}

// NewTrace creates an empty trace. An empty id auto-generates a
// process-unique "trace-<n>"; clock nil defaults to Real.
func NewTrace(id string, clock Clock) *Trace {
	if id == "" {
		id = fmt.Sprintf("trace-%d", traceSeq.Add(1))
	}
	if clock == nil {
		clock = Real
	}
	return &Trace{id: id, clock: clock, maxSpans: DefaultMaxSpans}
}

// ID returns the trace's identifier ("" for nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetMaxSpans overrides the span-count cap (<=0 restores the default).
func (t *Trace) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

// NewSpan starts a span under parent (0 for the root) reading the
// start time from the trace clock. It records into the trace only and
// times into no observer (Observer.StartSpan does both). Returns the
// zero SpanRef when the trace is nil or at its span cap.
func (t *Trace) NewSpan(parent SpanID, name string) SpanRef {
	return startSpan(nil, t, parent, name)
}

// add appends a span and returns its id, or 0 when the trace is at its
// span cap (the span is dropped and counted).
func (t *Trace) add(parent SpanID, name string, start, end time.Time) SpanID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, TraceSpan{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// end closes span id at end; a span already ended keeps its first end.
func (t *Trace) end(id SpanID, end time.Time) {
	t.mu.Lock()
	if int(id) >= 1 && int(id) <= len(t.spans) && t.spans[id-1].End.IsZero() {
		t.spans[id-1].End = end
	}
	t.mu.Unlock()
}

// Snapshot returns a copy of every span recorded so far, in start
// order (spans are appended as they start). Attr slices are shared
// with the trace; treat them as read-only.
func (t *Trace) Snapshot() []TraceSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TraceSpan, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}

// Root returns a copy of the first span (the search root) and whether
// the trace has one.
func (t *Trace) Root() (TraceSpan, bool) {
	if t == nil {
		return TraceSpan{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return TraceSpan{}, false
	}
	return t.spans[0], true
}

// Start returns the root span's start time (zero when empty).
func (t *Trace) Start() time.Time {
	r, ok := t.Root()
	if !ok {
		return time.Time{}
	}
	return r.Start
}

// Duration returns the root span's duration — the flight recorder's
// tail-based keep compares it against the slow threshold.
func (t *Trace) Duration() time.Duration {
	r, ok := t.Root()
	if !ok {
		return 0
	}
	return r.Duration()
}

// NumSpans returns the recorded span count.
func (t *Trace) NumSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were rejected by the span cap.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// spanOverhead approximates the fixed in-memory cost of one TraceSpan
// / one Attr beyond their string payloads, for the recorder's byte
// accounting.
const (
	spanOverhead = 96
	attrOverhead = 48
)

// Bytes estimates the trace's resident size — the FlightRecorder's
// byte cap accounts traces by this estimate.
func (t *Trace) Bytes() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(len(t.id)) + 64
	for i := range t.spans {
		s := &t.spans[i]
		n += spanOverhead + int64(len(s.Name))
		for _, a := range s.Attrs {
			n += attrOverhead + int64(len(a.Key)) + int64(len(a.str))
		}
	}
	return n
}

// SpanRef is the one timer of the repository: a value handle to one
// timed span. It carries the observer it times into and, when the
// search is traced, the Trace it is recorded in. End feeds the phase
// histogram acquire_phase_duration_seconds{phase="<name>"} and the
// observer's search-scoped PhaseTimes, and closes the trace's record.
// A ref with an observer and no trace times without recording; one
// with a trace and no observer records without timing into a phase.
//
// The zero SpanRef — what every constructor returns when neither is
// present — is inert: StartChild returns another zero ref, SetAttrs and
// End do nothing, and none of them read the clock or allocate, so
// instrumented code needs no branches.
type SpanRef struct {
	o     *Observer
	t     *Trace
	id    SpanID
	name  string
	start time.Time
}

// startSpan opens a span named name under span parent of t (nil t: no
// trace) that times into o.
func startSpan(o *Observer, t *Trace, parent SpanID, name string) SpanRef {
	if o == nil && t == nil {
		return SpanRef{}
	}
	s := SpanRef{o: o, name: name}
	if t == nil {
		s.start = o.Clock().Now()
		return s
	}
	s.start = t.clock.Now()
	if s.id = t.add(parent, name, s.start, time.Time{}); s.id != 0 {
		s.t = t
	}
	return s
}

// Active reports whether the ref is recorded in a trace; callers guard
// attr-building (which allocates) behind it on hot paths.
func (s SpanRef) Active() bool { return s.t != nil }

// Timed reports whether End measures anything: the ref times into an
// observer or is recorded in a trace. False only for the inert ref.
func (s SpanRef) Timed() bool { return s.o != nil || s.t != nil }

// Observer returns the observer the ref times into (nil when none).
func (s SpanRef) Observer() *Observer { return s.o }

// Trace returns the owning trace (nil when the ref is not recorded).
func (s SpanRef) Trace() *Trace { return s.t }

// ID returns the span's id (0 when the ref is not recorded).
func (s SpanRef) ID() SpanID { return s.id }

// Clock returns the clock the ref reads: its trace's, else its
// observer's (Real for the zero ref).
func (s SpanRef) Clock() Clock {
	if s.t != nil {
		return s.t.clock
	}
	return s.o.Clock()
}

// StartChild starts a child span that times into the same observer
// and, when this ref is recorded, is recorded as its child. Zero ref
// in, zero ref out — and zero allocations either way until a span is
// recorded.
func (s SpanRef) StartChild(name string) SpanRef {
	return startSpan(s.o, s.t, s.id, name)
}

// AddChild attaches an already-timed child span [start, end): callers
// that learn only once an interval is over whether it is a span of its
// own record it then. It is timed and recorded as StartChild's span
// would be.
func (s SpanRef) AddChild(name string, start, end time.Time) SpanRef {
	if !s.Timed() {
		return SpanRef{}
	}
	c := SpanRef{o: s.o, name: name, start: start}
	if s.t != nil {
		if c.id = s.t.add(s.id, name, start, end); c.id != 0 {
			c.t = s.t
		}
	}
	s.o.observe(name, max(end.Sub(start), 0))
	return c
}

// SetAttrs appends attributes to the span's trace record. Building the
// attr slice allocates, so hot paths call this only under Active().
func (s SpanRef) SetAttrs(attrs ...Attr) {
	if s.t == nil || len(attrs) == 0 {
		return
	}
	s.t.mu.Lock()
	if int(s.id) >= 1 && int(s.id) <= len(s.t.spans) {
		sp := &s.t.spans[s.id-1]
		sp.Attrs = append(sp.Attrs, attrs...)
	}
	s.t.mu.Unlock()
}

// End closes the span at the clock's current time, times it into the
// observer and returns its duration. No-op (0) on the zero ref. End a
// ref once: a recorded span keeps its first end time, but each End
// feeds the phase histogram.
func (s SpanRef) End() time.Duration {
	if !s.Timed() {
		return 0
	}
	end := s.Clock().Now()
	if s.t != nil {
		s.t.end(s.id, end)
	}
	d := max(end.Sub(s.start), 0)
	s.o.observe(s.name, d)
	return d
}

// Span returns a copy of the underlying TraceSpan record (ok=false
// for the zero ref).
func (s SpanRef) Span() (TraceSpan, bool) {
	if s.t == nil {
		return TraceSpan{}, false
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if int(s.id) < 1 || int(s.id) > len(s.t.spans) {
		return TraceSpan{}, false
	}
	return s.t.spans[s.id-1], true
}

// spanCtxKey keys the current SpanRef in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying s as the current span, so
// spans opened below it — the engine's, across the evaluation-layer
// call — time into its observer and nest in its trace. It carries a
// timing-only ref too. The zero ref returns ctx unchanged (no
// allocation), so the uninstrumented path threads contexts for free.
func ContextWithSpan(ctx context.Context, s SpanRef) context.Context {
	if !s.Timed() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span carried by ctx (the zero
// SpanRef when none). Allocation-free.
func SpanFromContext(ctx context.Context) SpanRef {
	if ctx == nil {
		return SpanRef{}
	}
	s, _ := ctx.Value(spanCtxKey{}).(SpanRef)
	return s
}
