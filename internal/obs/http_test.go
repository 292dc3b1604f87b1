package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("acq_http_total", "Requests.").Add(11)
	rec := NewFlightRecorder(RecorderConfig{})
	clk := NewFakeClock(time.Unix(100, 0)).AutoAdvance(time.Millisecond)
	tr := NewTrace("search-9", clk)
	root := tr.NewSpan(0, "search")
	root.StartChild("layer").End()
	root.End()
	rec.Add(tr)
	srv := httptest.NewServer(NewMux(reg, rec))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type %q", ct)
	}
	if !strings.Contains(body, "acq_http_total 11") {
		t.Errorf("/metrics body:\n%s", body)
	}
	checkExposition(t, body)

	code, body, _ = get(t, srv, "/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, _ = get(t, srv, "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	code, _, _ = get(t, srv, "/debug/vars")
	if code != 200 {
		t.Errorf("/debug/vars = %d", code)
	}

	code, body, _ = get(t, srv, "/debug/traces")
	if code != 200 || !strings.Contains(body, "search-9") || !strings.Contains(body, "sampled=0 rejected=0") {
		t.Errorf("/debug/traces = %d:\n%s", code, body)
	}

	code, body, hdr = get(t, srv, "/debug/traces/search-9")
	if code != 200 {
		t.Fatalf("/debug/traces/search-9 status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("trace content-type %q", ct)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, body)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if n, ok := ev["name"].(string); ok {
			names[n] = true
		}
	}
	if !names["search"] || !names["layer"] {
		t.Errorf("trace events missing search/layer spans: %v", names)
	}

	code, _, _ = get(t, srv, "/debug/traces/nope")
	if code != 404 {
		t.Errorf("/debug/traces/nope = %d, want 404", code)
	}
}

func TestServeBindsAndShutsDown(t *testing.T) {
	reg := NewRegistry()
	addr, shutdown, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	shutdown()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server still reachable after shutdown")
	}
}
