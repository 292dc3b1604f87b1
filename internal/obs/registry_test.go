package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acq_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("acq_test_total", ""); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := r.Gauge("acq_depth", "a gauge")
	g.Set(3.5)
	g.Add(-1)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("acq_lat_seconds", "a histogram", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("hist sum = %v, want 105", h.Sum())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("acq_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("acq_x_total", "")
}

// promLine matches a Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[-+]?[0-9].*)$`)

func checkExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("acq_queries_total", "Total queries.").Add(7)
	r.Gauge("acq_layers", "Layers explored.").Set(3)
	h := r.Histogram(`acq_dur_seconds{phase="expand"}`, "Phase durations.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	h2 := r.Histogram(`acq_dur_seconds{phase="fold"}`, "", []float64{0.1, 1})
	h2.Observe(0.2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checkExposition(t, out)
	for _, want := range []string{
		"# HELP acq_queries_total Total queries.",
		"# TYPE acq_queries_total counter",
		"acq_queries_total 7",
		"# TYPE acq_layers gauge",
		"acq_layers 3",
		"# TYPE acq_dur_seconds histogram",
		`acq_dur_seconds_bucket{phase="expand",le="0.1"} 1`,
		`acq_dur_seconds_bucket{phase="expand",le="1"} 2`,
		`acq_dur_seconds_bucket{phase="expand",le="+Inf"} 3`,
		`acq_dur_seconds_sum{phase="expand"} 2.55`,
		`acq_dur_seconds_count{phase="expand"} 3`,
		`acq_dur_seconds_bucket{phase="fold",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE header per family even with two series.
	if n := strings.Count(out, "# TYPE acq_dur_seconds histogram"); n != 1 {
		t.Errorf("histogram family has %d TYPE headers, want 1", n)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("acq_a_total", "").Add(2)
	r.Gauge("acq_g", "").Set(1.5)
	r.Histogram(`acq_h_seconds{phase="x"}`, "", []float64{1}).Observe(0.25)
	snap := r.Snapshot()
	want := map[string]float64{
		"acq_a_total":                    2,
		"acq_g":                          1.5,
		`acq_h_seconds_sum{phase="x"}`:   0.25,
		`acq_h_seconds_count{phase="x"}`: 1,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, snap[k], v)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("acq_cc_total", "")
	g := r.Gauge("acq_cg", "")
	h := r.Histogram("acq_ch_seconds", "", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("hist count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-800) > 1e-6 {
		t.Errorf("hist sum = %v, want 800", h.Sum())
	}
}

func TestNilRegistryFastPath(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no metric registry") {
		t.Errorf("nil exposition = %q", b.String())
	}
	if r.Snapshot() != nil {
		t.Error("nil snapshot must be nil")
	}
	r.Publish("acq_nil_test") // must not panic
}

// TestNilFastPathAllocs is the acceptance guard for the nil-registry
// fast path: every per-point hot-path operation on nil handles must
// cost zero allocations.
func TestNilFastPathAllocs(t *testing.T) {
	var (
		reg *Registry
		o   *Observer
		c   *Counter
		g   *Gauge
		h   *Histogram
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(2)
		h.Observe(3)
		sp := o.StartSpan(SpanRef{}, "fold")
		sp.StartChild("evaluate").End()
		sp.End()
		o.Debug("event", "k", "v")
		_ = reg.Counter("x", "")
	})
	if allocs != 0 {
		t.Fatalf("nil fast path allocates %v per run, want 0", allocs)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("acq_pub_total", "").Add(3)
	name := fmt.Sprintf("acq_test_publish_%p", r)
	r.Publish(name)
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not published")
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Fatalf("expvar value %q: %v", v.String(), err)
	}
	if m["acq_pub_total"] != 3 {
		t.Errorf("expvar snapshot = %v", m)
	}
	r.Publish(name) // idempotent, must not panic
}
