package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode keeps the description the driver reads
// and the tables the program prints from the same.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q has characters outside letters, digits, _ . -", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range doc.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has {%q, %q}, workloads.go has {%q, %q}",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
		if n := len(workloads[i].acqs); n%2 == 0 {
			t.Errorf("workload %s has %d ACQs; the per-refinement median needs an odd number", w.Name, n)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, perLayer)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		unique(m.Name)
	}
}

// TestWorkloadsAtSmallScale runs every workload once at 20K rows, one
// pass untraced and one traced. It asserts results and work counters,
// never wall-clock time.
func TestWorkloadsAtSmallScale(t *testing.T) {
	cfg := config{usersRows: 20000, tpchRows: 20000, seed: 1, minPasses: 1, withTrace: true, setups: 1}
	digests := map[string][]uint64{}
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Correct covers: every refinement satisfied, every repeat's
			// digest equal to the reference pass's, the oracle confirming
			// the returned aggregates, and the traced pass doing exactly
			// the untraced pass's work.
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d/%d: %v", res.Correct, res.Failed, res.Attempted, res.notes)
			}
			if want := 2 * len(def.acqs); res.Attempted != want {
				t.Errorf("attempted %d refinements, want %d", res.Attempted, want)
			}
			want := map[string]bool{}
			for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				want[m.Name] = true
			}
			for name := range res.Metrics {
				if !want[name] {
					t.Errorf("printed metric %q is not in BENCHMARK.json's lists", name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("metric %q is listed but not printed", name)
			}
			for _, m := range endToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
			if got := res.Metrics["regioncache.hit_ratio"].Value; (def.cacheBytes > 0) != (got == 1) {
				t.Errorf("regioncache.hit_ratio = %v with cacheBytes %d", got, def.cacheBytes)
			}
			digests[def.name] = res.digests
		})
	}
	for _, name := range []string{"users_sql_gridagg", "users_sql_cached"} {
		if !reflect.DeepEqual(digests[name], digests["users_sql"]) {
			t.Errorf("%s returns %x, users_sql returns %x", name, digests[name], digests["users_sql"])
		}
	}
}

func TestCompareFlagsBreachAndDrift(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, passMS []float64, executions float64) string {
		path := dir + "/" + name
		for _, v := range passMS {
			vals := map[string]float64{"pass_p50_ms": v, "executions_per_pass": executions}
			for _, m := range endToEnd {
				if _, ok := vals[m.Name]; !ok {
					vals[m.Name] = 1
				}
			}
			metrics, err := metricSet(endToEnd, vals)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range workloads {
				if err := appendResult(path, &runResult{Workload: w.name, Correct: true, Attempted: 5, Metrics: metrics}); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("a", []float64{100, 101, 102, 103}, 500)
	for _, tc := range []struct {
		name string
		path string
		ok   bool
	}{
		{"same", write("same", []float64{101, 102, 100, 103}, 500), true},
		{"slower", write("slower", []float64{140, 141, 142, 143}, 500), false},
		{"more executions", write("more", []float64{100, 101, 102, 103}, 501), false},
		{"noisy is unresolved, not a breach", write("noisy", []float64{80, 100, 180, 260}, 500), true},
	} {
		ok, err := compareFiles(io.Discard, base, tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok {
			t.Errorf("%s: compare says ok=%v, want %v", tc.name, ok, tc.ok)
		}
	}
}
