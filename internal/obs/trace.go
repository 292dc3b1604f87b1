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
// start time from the trace clock. Returns the zero SpanRef when the
// trace is nil or at its span cap.
func (t *Trace) NewSpan(parent SpanID, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return t.addSpan(parent, name, t.clock.Now(), time.Time{})
}

func (t *Trace) addSpan(parent SpanID, name string, start, end time.Time) SpanRef {
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return SpanRef{}
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, TraceSpan{ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return SpanRef{t: t, id: id}
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

// SpanRef is a value handle to one span of a Trace. The zero SpanRef
// — what every constructor returns when tracing is off — is inert:
// StartChild returns another zero ref, SetAttrs and End do nothing,
// and none of them allocate, so traced code needs no branches.
type SpanRef struct {
	t  *Trace
	id SpanID
}

// Active reports whether the ref addresses a live trace; callers
// guard attr-building (which allocates) behind it on hot paths.
func (s SpanRef) Active() bool { return s.t != nil }

// Trace returns the owning trace (nil for the zero ref).
func (s SpanRef) Trace() *Trace { return s.t }

// ID returns the span's id (0 for the zero ref).
func (s SpanRef) ID() SpanID { return s.id }

// Clock returns the owning trace's clock (Real for the zero ref).
func (s SpanRef) Clock() Clock {
	if s.t == nil {
		return Real
	}
	return s.t.clock
}

// StartChild starts a child span under this one. Zero ref in, zero
// ref out — and zero allocations either way until a span is recorded.
func (s SpanRef) StartChild(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return s.t.NewSpan(s.id, name)
}

// AddChild attaches an already-timed child span: callers that measure
// an interval themselves record it once it is over, without holding
// the trace mutex mid-flight.
func (s SpanRef) AddChild(name string, start, end time.Time) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return s.t.addSpan(s.id, name, start, end)
}

// SetAttrs appends attributes to the span. Building the attr slice
// allocates, so hot paths call this only under Active().
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

// End closes the span at the trace clock's current time and returns
// its duration. No-op (0) on the zero ref; ending twice keeps the
// first end time.
func (s SpanRef) End() time.Duration {
	if s.t == nil {
		return 0
	}
	now := s.t.clock.Now()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if int(s.id) < 1 || int(s.id) > len(s.t.spans) {
		return 0
	}
	sp := &s.t.spans[s.id-1]
	if sp.End.IsZero() {
		sp.End = now
	}
	return sp.Duration()
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

// ContextWithSpan returns a context carrying s as the current span.
// An inactive ref returns ctx unchanged (no allocation), so the
// disabled path threads contexts for free.
func ContextWithSpan(ctx context.Context, s SpanRef) context.Context {
	if s.t == nil {
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
