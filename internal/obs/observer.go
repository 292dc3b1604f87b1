package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Observer bundles the three observability channels — metric
// registry, phase spans, structured event log — behind one handle
// that the search, engine and baselines accept. A nil *Observer is
// fully inert: every method is a cheap no-op, so uninstrumented runs
// pay a single nil check on the hot path.
//
// Observers are immutable; WithClock / WithLogger / ForSearch return
// derived observers sharing the same registry (and phase-histogram
// cache), so one process-wide registry serves many searches.
type Observer struct {
	reg      *Registry
	clock    Clock
	logger   *slog.Logger
	phases   *PhaseTimes
	searchID string
	recorder *FlightRecorder

	// phaseHists caches phase-name -> duration histogram so
	// SpanRef.End avoids the registry's name formatting and map lookup.
	phaseHists *sync.Map
}

// NewObserver creates an observer over the registry (which may be nil
// for spans/logs without metrics). The clock defaults to Real.
func NewObserver(reg *Registry) *Observer {
	return &Observer{reg: reg, clock: Real, phaseHists: &sync.Map{}}
}

// WithClock returns a derived observer reading time from c.
func (o *Observer) WithClock(c Clock) *Observer {
	if o == nil || c == nil {
		return o
	}
	d := *o
	d.clock = c
	return &d
}

// WithLogger returns a derived observer emitting structured events
// through l (typically slog.New(slog.NewJSONHandler(...))).
func (o *Observer) WithLogger(l *slog.Logger) *Observer {
	if o == nil {
		return o
	}
	d := *o
	d.logger = l
	return &d
}

// WithRecorder returns a derived observer whose searches build span
// trees and deposit them into rec on completion — the switch that
// turns hierarchical tracing on. Nil rec detaches (tracing off).
func (o *Observer) WithRecorder(rec *FlightRecorder) *Observer {
	if o == nil {
		return nil
	}
	d := *o
	d.recorder = rec
	return &d
}

// Recorder returns the attached flight recorder (nil-safe; nil means
// tracing is off).
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.recorder
}

// TracingEnabled reports whether searches under this observer should
// record span trees.
func (o *Observer) TracingEnabled() bool {
	return o != nil && o.recorder != nil
}

// ForSearch returns a derived observer scoped to one refinement
// search: events carry search_id=id, and phase spans additionally
// accumulate into a fresh PhaseTimes collector for the search's
// report.
func (o *Observer) ForSearch(id string) *Observer {
	if o == nil {
		return nil
	}
	d := *o
	d.searchID = id
	d.phases = NewPhaseTimes()
	return &d
}

// Registry returns the underlying registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Clock returns the observer's clock, or Real for a nil observer —
// callers can always time through it.
func (o *Observer) Clock() Clock {
	if o == nil || o.clock == nil {
		return Real
	}
	return o.clock
}

// SearchID returns the id set by ForSearch ("" otherwise).
func (o *Observer) SearchID() string {
	if o == nil {
		return ""
	}
	return o.searchID
}

// Phases returns the per-search phase breakdown accumulated since
// ForSearch (nil for unscoped or nil observers).
func (o *Observer) Phases() map[string]PhaseStat {
	if o == nil {
		return nil
	}
	return o.phases.Snapshot()
}

// Counter registers/fetches a counter on the observer's registry.
func (o *Observer) Counter(name, help string) *Counter {
	if o == nil {
		return nil
	}
	return o.reg.Counter(name, help)
}

// Gauge registers/fetches a gauge on the observer's registry.
func (o *Observer) Gauge(name, help string) *Gauge {
	if o == nil {
		return nil
	}
	return o.reg.Gauge(name, help)
}

// Histogram registers/fetches a histogram on the observer's registry.
func (o *Observer) Histogram(name, help string, buckets []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.reg.Histogram(name, help, buckets)
}

// StartSpan opens a span named name that times into o. Under a traced
// parent it is also recorded in the parent's trace, as its child;
// otherwise it is timing only. With a nil o and an untraced parent it
// is the inert zero SpanRef. End closes it.
func (o *Observer) StartSpan(parent SpanRef, name string) SpanRef {
	return startSpan(o, parent.t, parent.id, name)
}

// StartTrace opens name as the root span of a new trace, identified by
// the observer's search id and read on its clock, that times into o.
// Nil-safe: a nil o records the trace without timing into any phase.
func (o *Observer) StartTrace(name string) (*Trace, SpanRef) {
	tr := NewTrace(o.SearchID(), o.Clock())
	return tr, startSpan(o, tr, 0, name)
}

// observe folds one span's duration into the phase's duration
// histogram (acquire_phase_duration_seconds{phase="<name>"}) and the
// search-scoped phase collector.
func (o *Observer) observe(name string, d time.Duration) {
	if o == nil {
		return
	}
	o.phaseHist(name).ObserveDuration(d)
	o.phases.add(name, d)
}

// phaseHist resolves (caching) the duration histogram for a phase.
func (o *Observer) phaseHist(name string) *Histogram {
	if h, ok := o.phaseHists.Load(name); ok {
		return h.(*Histogram)
	}
	h := o.reg.Histogram(`acquire_phase_duration_seconds{phase="`+name+`"}`,
		"Duration of search/engine phases by phase name.", nil)
	o.phaseHists.Store(name, h)
	return h
}

// LogEnabled reports whether structured events at the level would be
// emitted — callers use it to skip building attribute lists (and
// their allocations) when logging is off.
func (o *Observer) LogEnabled(level slog.Level) bool {
	return o != nil && o.logger != nil && o.logger.Enabled(context.Background(), level)
}

// Log emits one structured event at the level with the given
// alternating key/value attrs; search-scoped observers append
// search_id automatically. No-op when disabled.
func (o *Observer) Log(level slog.Level, event string, attrs ...any) {
	if !o.LogEnabled(level) {
		return
	}
	if o.searchID != "" {
		attrs = append(attrs, "search_id", o.searchID)
	}
	o.logger.Log(context.Background(), level, event, attrs...)
}

// Info emits an info-level event.
func (o *Observer) Info(event string, attrs ...any) { o.Log(slog.LevelInfo, event, attrs...) }

// Debug emits a debug-level event.
func (o *Observer) Debug(event string, attrs ...any) { o.Log(slog.LevelDebug, event, attrs...) }
