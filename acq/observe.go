package acq

import (
	"context"
	"fmt"
	"time"

	"acquire/internal/core"
	"acquire/internal/exec"
	"acquire/internal/obs"
)

// Observability re-exports. Aliases keep internal/obs as the single
// definition while letting downstream importers attach registries and
// observers without reaching into internal packages.
type (
	// MetricsRegistry holds counters, gauges and histograms and renders
	// them in Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// Observer bundles metrics, phase spans and structured events
	// behind one handle (Options.Observer). Nil disables all three.
	Observer = obs.Observer
	// PhaseStat is the per-phase (count, total duration) pair of a
	// SearchReport breakdown.
	PhaseStat = obs.PhaseStat
	// Clock abstracts time for span measurement; tests inject
	// obs.NewFakeClock instead of sleeping.
	Clock = obs.Clock
	// SearchTrace is one search's hierarchical span tree (export it
	// with WriteChromeJSON, browse it at /debug/traces/<id>).
	SearchTrace = obs.Trace
	// TraceSpan is one timed node of a SearchTrace.
	TraceSpan = obs.TraceSpan
	// FlightRecorder is the bounded ring of recently completed search
	// traces (byte-capped, tail-based keep).
	FlightRecorder = obs.FlightRecorder
	// RecorderConfig bounds and filters a FlightRecorder.
	RecorderConfig = obs.RecorderConfig
)

// NewMetricsRegistry creates an empty metric registry; attach it with
// Session.Observe(NewObserver(reg)) or let Session.Metrics create one
// lazily.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewObserver creates an observer over the registry (which may be nil
// for spans and structured events without metric collection).
func NewObserver(reg *MetricsRegistry) *Observer { return obs.NewObserver(reg) }

// ServeMetrics starts an HTTP server on addr exposing /metrics
// (Prometheus text format), /healthz, /debug/vars and /debug/pprof/*.
// It returns the bound address (useful with ":0") and a shutdown
// function.
func ServeMetrics(addr string, reg *MetricsRegistry) (string, func(), error) {
	return obs.Serve(addr, reg, nil)
}

// ServeObs is ServeMetrics plus the flight-recorder endpoints: the
// server additionally exposes /debug/traces (index) and
// /debug/traces/<id> (Chrome trace-event JSON). rec may be nil.
func ServeObs(addr string, reg *MetricsRegistry, rec *FlightRecorder) (string, func(), error) {
	return obs.Serve(addr, reg, rec)
}

// EnableTracing attaches a flight recorder to the session: every
// refinement search from then on records a hierarchical span tree
// (search root → per-layer expand/prefetch/fold/repartition spans →
// engine batch spans) and deposits it in the returned recorder,
// subject to its tail-based keep and byte cap.
// Calling it again replaces the recorder; a zero RecorderConfig gets
// defaults (8 MiB cap, keep every trace).
func (s *Session) EnableTracing(cfg RecorderConfig) *FlightRecorder {
	rec := obs.NewFlightRecorder(cfg)
	o := s.obs
	if o == nil {
		o = obs.NewObserver(nil)
	}
	s.Observe(o.WithRecorder(rec))
	return rec
}

// Recorder returns the flight recorder attached by EnableTracing (nil
// when tracing is off).
func (s *Session) Recorder() *FlightRecorder { return s.obs.Recorder() }

// Observe attaches an observer to the session: the engine mirrors its
// statistics into the observer's registry, refinement searches run
// under it by default (Options.Observer overrides per call), and the
// evaluation layer's events flow through its logger. Passing nil
// detaches.
func (s *Session) Observe(o *Observer) {
	s.obs = o
	s.eng.SetObserver(o)
	if sampled, ok := s.eval.(*exec.Sampled); ok {
		sampled.SetObserver(o)
	}
}

// Observer returns the session's attached observer (nil when none).
func (s *Session) Observer() *Observer { return s.obs }

// Metrics returns the session's metric registry, lazily creating and
// attaching a registry-backed observer on first use. Serve it with
// ServeMetrics or render it with WritePrometheus.
func (s *Session) Metrics() *MetricsRegistry {
	if s.obs == nil || s.obs.Registry() == nil {
		reg := obs.NewRegistry()
		o := obs.NewObserver(reg)
		if s.obs != nil {
			// Preserve a previously attached clock/recorder.
			o = o.WithClock(s.obs.Clock()).WithRecorder(s.obs.Recorder())
		}
		s.Observe(o)
	}
	return s.obs.Registry()
}

// SearchReport breaks one refinement search down for dashboards and
// regression tracking: wall time, per-phase durations, and the
// evaluation-layer work the search did.
type SearchReport struct {
	// SearchID tags the search's structured events (search_id attr).
	SearchID string
	// Wall is the end-to-end search duration by the observer's clock.
	Wall time.Duration
	// Phases maps phase name (search, expand, layer, prefetch, fold,
	// repartition, engine.batch, evaluate) to its accumulated span
	// stats.
	Phases map[string]PhaseStat
	// Engine is the evaluation-layer work of this search alone
	// (Result.Engine): exact when other searches share the session's
	// engine. It is zero when the search failed with a hard error, which
	// returns no Result.
	Engine EngineStats
}

// RefineReport is RefineContext plus a per-search SearchReport. The
// search runs under a search-scoped observer (derived from
// opts.Observer, the session observer, or a fresh one, in that order),
// so its events carry a unique search_id and its phase spans
// accumulate separately from other searches on the same registry. That
// includes the engine's engine.batch and evaluate spans: the search
// hands its spans to the engine through the context, and a span timed
// under one of them times into its observer. Concurrent reports on one
// session therefore each count their own evaluate spans, and each its
// own engine work (SearchReport.Engine). The report is returned even
// when the search errs mid-way.
func (s *Session) RefineReport(ctx context.Context, q *Query, opts Options) (*Result, *SearchReport, error) {
	o := opts.Observer
	if o == nil {
		o = s.obs
	}
	if o == nil {
		o = obs.NewObserver(nil) // spans + report without a registry
	}
	id := fmt.Sprintf("search-%d", s.searchSeq.Add(1))
	so := o.ForSearch(id)
	opts.Observer = so

	start := so.Clock().Now()
	res, err := core.RunContext(ctx, s.eval, q, opts)
	rep := &SearchReport{
		SearchID: id,
		Wall:     so.Clock().Now().Sub(start),
		Phases:   so.Phases(),
	}
	if res != nil {
		rep.Engine = res.Engine
	}
	return res, rep, err
}
