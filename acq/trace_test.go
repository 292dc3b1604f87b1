package acq

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acquire/internal/obs"
)

// TestTracingEndToEnd is the acceptance path for the tracing
// subsystem: a session with tracing enabled runs a refinement, and the
// flight recorder holds a span tree with the search root, its
// per-layer spans, the engine.batch spans of the evaluation layer
// inside them and evaluate spans under those — exported as valid
// Chrome trace-event JSON.
func TestTracingEndToEnd(t *testing.T) {
	s, err := NewUsersSession(5000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.EnableTracing(RecorderConfig{})
	if s.Recorder() != rec {
		t.Fatal("Recorder() does not return the enabled recorder")
	}

	q, err := s.Parse(`SELECT * FROM users CONSTRAINT COUNT(*) = 2000 WHERE age <= 30`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Refine(q, Options{Gamma: 15, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied && res.Closest == nil {
		t.Fatalf("search failed: %+v", res)
	}
	if rec.Len() != 1 {
		t.Fatalf("recorder holds %d traces, want 1", rec.Len())
	}
	tr := rec.Traces()[0]
	root, ok := tr.Root()
	if !ok || root.Name != "search" {
		t.Fatalf("root = %+v", root)
	}
	spans := tr.Snapshot()
	byID := make(map[obs.SpanID]obs.TraceSpan, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	// under reports whether an ancestor of sp is named name.
	under := func(sp obs.TraceSpan, name string) bool {
		for p, ok := byID[sp.Parent]; ok; p, ok = byID[p.Parent] {
			if p.Name == name {
				return true
			}
		}
		return false
	}
	count := map[string]int{}
	for _, sp := range spans {
		count[sp.Name]++
		switch sp.Name {
		case "engine.batch":
			if !under(sp, "layer") && !under(sp, "expand") {
				t.Errorf("engine.batch span %d is outside every layer", sp.ID)
			}
		case "evaluate":
			if p := byID[sp.Parent]; p.Name != "engine.batch" {
				t.Errorf("evaluate span %d has parent %q, want engine.batch", sp.ID, p.Name)
			}
		}
	}
	for _, name := range []string{"layer", "engine.batch", "evaluate"} {
		if count[name] == 0 {
			t.Errorf("trace has no %s spans (have %v)", name, count)
		}
	}

	// Export parses as Chrome JSON and contains every structural name.
	var sb strings.Builder
	if err := tr.WriteChromeJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid Chrome JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"search", "layer", "fold", "engine.batch", "evaluate"} {
		if !names[want] {
			t.Errorf("export missing %q event (have %v)", want, names)
		}
	}
}

// TestTracingSampling: with 1-in-N sampling and a slow threshold the
// recorder keeps every search here (fake clock makes them all "slow"),
// while a sampled-out fast path is covered in internal/obs.
func TestTracingSampling(t *testing.T) {
	s, err := NewUsersSession(2000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
	s.Observe(NewObserver(nil).WithClock(clk))
	rec := s.EnableTracing(RecorderConfig{SampleN: 100, SlowThreshold: time.Millisecond})
	q, err := s.Parse(`SELECT * FROM users CONSTRAINT COUNT(*) = 800 WHERE age <= 30`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Refine(q, Options{Gamma: 15, Delta: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	// Every search exceeds the 1ms threshold on an auto-advancing clock,
	// so tail-based keep overrides the 1-in-100 sampler.
	if rec.Len() != 3 {
		t.Errorf("recorder kept %d traces, want 3 (tail-based keep)", rec.Len())
	}
}

// TestConcurrentScrapeRace hammers /metrics and /debug/traces while
// searches are in flight — the race-detector regression test for the
// observability surfaces (recorder ring, registry, span trees all
// shared with the search goroutines and the engine's worker pool).
func TestConcurrentScrapeRace(t *testing.T) {
	s, err := NewUsersSession(5000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := s.EnableTracing(RecorderConfig{})
	reg := s.Metrics()

	srv := httptest.NewServer(obs.NewMux(reg, rec))
	defer srv.Close()

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	scrape := func(path string) {
		defer scrapers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Follow the index to each trace body as it appears.
			if path == "/debug/traces" {
				for _, tr := range rec.Traces() {
					r2, err := http.Get(srv.URL + "/debug/traces/" + tr.ID())
					if err == nil {
						io.Copy(io.Discard, r2.Body)
						r2.Body.Close()
					}
				}
			}
		}
	}
	scrapers.Add(2)
	go scrape("/metrics")
	go scrape("/debug/traces")

	sqls := []string{
		`SELECT * FROM users CONSTRAINT COUNT(*) = 2000 WHERE age <= 30`,
		`SELECT * FROM users CONSTRAINT COUNT(*) = 1500 WHERE income <= 60000`,
	}
	var searches sync.WaitGroup
	for _, sql := range sqls {
		searches.Add(1)
		go func(sql string) {
			defer searches.Done()
			q, err := s.Parse(sql)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Refine(q, Options{Gamma: 15, Delta: 0.05}); err != nil {
				t.Error(err)
			}
		}(sql)
	}
	searches.Wait()
	close(stop)
	scrapers.Wait()

	if rec.Len() != len(sqls) {
		t.Errorf("recorder holds %d traces, want %d", rec.Len(), len(sqls))
	}
	// The index lists every recorded search after the dust settles.
	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, tr := range rec.Traces() {
		if !strings.Contains(string(body), tr.ID()) {
			t.Errorf("/debug/traces index missing %s:\n%s", tr.ID(), body)
		}
	}
}

// TestTracingDisabledNoTraces: without EnableTracing a search records
// nothing and Recorder() is nil — the default path stays dark.
func TestTracingDisabledNoTraces(t *testing.T) {
	s, err := NewUsersSession(1000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder() != nil {
		t.Fatal("fresh session has a recorder")
	}
	q, err := s.Parse(`SELECT * FROM users CONSTRAINT COUNT(*) = 500 WHERE age <= 30`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refine(q, Options{Gamma: 15, Delta: 0.05}); err != nil {
		t.Fatal(err)
	}
	if s.Recorder() != nil {
		t.Error("search attached a recorder")
	}
}
