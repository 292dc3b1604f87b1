package acq

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"acquire/internal/obs"
)

// promLineRE matches one valid Prometheus text-exposition sample line:
// a metric name with optional labels, a space, and a float value.
var promLineRE = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?[0-9.eE+-]+|[-+]Inf)$`)

// TestMetricsEndToEnd is the acceptance path of the observability
// layer: a session runs a refinement with a lazily created registry,
// and GET /metrics on the obs mux returns the engine counters,
// per-phase duration histograms and search gauges in valid Prometheus
// text format.
func TestMetricsEndToEnd(t *testing.T) {
	s := tpchSession(t, 2000)
	reg := s.Metrics() // lazy create + attach
	if reg == nil || s.Observer() == nil {
		t.Fatal("Metrics did not attach an observer")
	}
	if got := s.Metrics(); got != reg {
		t.Fatal("Metrics is not idempotent")
	}

	q, err := s.Parse(q2SQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refine(q, Options{Gamma: 40, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.NewMux(reg, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	// The engine counters, search gauge and phase histograms from the
	// refinement must all be exposed.
	for _, want := range []string{
		"acquire_engine_queries_total",
		"acquire_engine_rows_scanned_total",
		"acquire_engine_cells_skipped_total",
		"acquire_searches_total 1",
		"acquire_search_layers_explored",
		`acquire_phase_duration_seconds_count{phase="search"} 1`,
		`acquire_phase_duration_seconds_bucket{phase="expand",le="+Inf"}`,
		`acquire_phase_duration_seconds_bucket{phase="fold",le="+Inf"}`,
		`acquire_phase_duration_seconds_bucket{phase="prefetch",le="+Inf"}`,
		`acquire_phase_duration_seconds_bucket{phase="evaluate",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every non-comment line is format-valid.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLineRE.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Error(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /healthz: %s", resp.Status)
		}
	}
}

// TestRefineReport exercises the per-search report: deterministic
// fake-clock wall time, a phase breakdown covering the whole pipeline,
// engine counter deltas, and distinct search ids across calls.
func TestRefineReport(t *testing.T) {
	s := tpchSession(t, 2000)
	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s.Observe(NewObserver(NewMetricsRegistry()).WithClock(clk).WithLogger(logger))

	q, err := s.Parse(q2SQL)
	if err != nil {
		t.Fatal(err)
	}
	res, rep, err := s.RefineReport(t.Context(), q, Options{Gamma: 40, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("refinement failed: %+v", res)
	}
	if rep.SearchID != "search-1" {
		t.Errorf("SearchID = %q", rep.SearchID)
	}
	if rep.Wall <= 0 {
		t.Errorf("Wall = %v", rep.Wall)
	}
	if rep.Engine.Queries <= 0 || rep.Engine.RowsScanned <= 0 {
		t.Errorf("engine delta not recorded: %+v", rep.Engine)
	}
	for _, phase := range []string{"search", "expand", "prefetch", "fold", "evaluate"} {
		st, ok := rep.Phases[phase]
		if !ok || st.Count == 0 {
			t.Errorf("phase %q missing from report: %+v", phase, rep.Phases)
			continue
		}
		if st.Total <= 0 {
			t.Errorf("phase %q has zero total with auto-advancing clock", phase)
		}
	}
	if st := rep.Phases["search"]; st.Count != 1 {
		t.Errorf("search phase count = %d, want 1", st.Count)
	}

	// Structured events carry the search id.
	if !strings.Contains(buf.String(), `"search_id":"search-1"`) {
		t.Errorf("events missing search_id:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"msg":"search.done"`) {
		t.Errorf("events missing search.done:\n%s", buf.String())
	}

	// Second search gets a fresh id and a fresh phase collector.
	_, rep2, err := s.RefineReport(t.Context(), q, Options{Gamma: 40, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SearchID != "search-2" {
		t.Errorf("second SearchID = %q", rep2.SearchID)
	}
	if rep2.Phases["search"].Count != 1 {
		t.Errorf("phase collector leaked across searches: %+v", rep2.Phases["search"])
	}
}

// TestRefineReportWithoutObserver still yields a usable report (wall
// time and phase breakdown) when nothing was attached.
func TestRefineReportWithoutObserver(t *testing.T) {
	s := tpchSession(t, 1000)
	q, err := s.Parse(q2SQL)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := s.RefineReport(t.Context(), q, Options{Gamma: 40, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SearchID == "" || rep.Phases == nil {
		t.Fatalf("degenerate report: %+v", rep)
	}
	if _, ok := rep.Phases["search"]; !ok {
		t.Errorf("report missing search phase: %+v", rep.Phases)
	}
}

// TestRefineReportConcurrent: two reports running at once on one
// session each count exactly their own evaluate spans and their own
// engine work — what the same search counts when it runs alone. The
// search hands its spans and its scope to the engine through the
// context, so no report can see the other's.
func TestRefineReportConcurrent(t *testing.T) {
	s, err := NewUsersSession(5000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(NewObserver(NewMetricsRegistry()))
	opts := Options{Gamma: 15, Delta: 0.05}
	var qs []*Query
	for _, sql := range []string{
		`SELECT * FROM users CONSTRAINT COUNT(*) = 2000 WHERE age <= 30`,
		`SELECT * FROM users CONSTRAINT COUNT(*) = 1500 WHERE age <= 30 AND income <= 60000`,
	} {
		q, err := s.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	alone := make([]int64, len(qs))
	aloneEngine := make([]EngineStats, len(qs))
	for i, q := range qs {
		_, rep, err := s.RefineReport(t.Context(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if alone[i] = rep.Phases["evaluate"].Count; alone[i] == 0 {
			t.Fatalf("search %d counted no evaluate spans: %+v", i, rep.Phases)
		}
		if aloneEngine[i] = rep.Engine; rep.Engine.Queries == 0 || rep.Engine.RowsScanned == 0 {
			t.Fatalf("search %d counted no engine work: %+v", i, rep.Engine)
		}
	}
	if alone[0] == alone[1] {
		t.Fatalf("both searches count %d evaluate spans; the test needs distinct counts", alone[0])
	}
	for round := 0; round < 3; round++ {
		reps := make([]*SearchReport, len(qs))
		errs := make([]error, len(qs))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, reps[i], errs[i] = s.RefineReport(t.Context(), q, opts)
			}()
		}
		close(start)
		wg.Wait()
		for i := range qs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got := reps[i].Phases["evaluate"].Count; got != alone[i] {
				t.Errorf("round %d: concurrent search %d counted %d evaluate spans, %d alone", round, i, got, alone[i])
			}
			if got := reps[i].Engine; got != aloneEngine[i] {
				t.Errorf("round %d: concurrent search %d counted engine work %+v, alone %+v", round, i, got, aloneEngine[i])
			}
		}
	}
}
