package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNamesAndKnown(t *testing.T) {
	n := names()
	for _, want := range []string{"fig8", "fig9", "fig10a", "fig10b", "fig10c", "fig11", "skew", "join", "ablation-incremental", "ablation-gridindex"} {
		if !strings.Contains(n, want) {
			t.Errorf("names missing %q", want)
		}
		if !known(want) {
			t.Errorf("known(%q) = false", want)
		}
	}
	for _, gone := range []string{"nonsense", "scan", "autocluster", "zorder", "shards", "repeated"} {
		if known(gone) {
			t.Errorf("known(%q) = true", gone)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// Smallest end-to-end run: fig10b at tiny scale (ACQUIRE only).
	if err := run(context.Background(), []string{"-experiment", "fig10b", "-rows", "1000"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunTable1(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "table1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunFig10aWithSizes(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "fig10a", "-sizes", "500,1000", "-tqgen-k", "3", "-tqgen-rounds", "1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunSummary(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "summary", "-rows", "2000", "-tqgen-k", "4", "-tqgen-rounds", "2"}); err != nil {
		t.Fatalf("run summary: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-experiment", "nope"}); err == nil {
		t.Error("unknown experiment: expected error")
	}
	if err := run(context.Background(), []string{"-experiment", "fig10a", "-sizes", "a,b"}); err == nil {
		t.Error("bad sizes: expected error")
	}
	// The clustering studies and their flag are gone, not hidden.
	if err := run(context.Background(), []string{"-experiment", "autocluster"}); err == nil {
		t.Error("-experiment autocluster: expected an unknown-experiment error")
	}
	if err := run(context.Background(), []string{"-autocluster", "-experiment", "table1"}); err == nil {
		t.Error("-autocluster: expected an unknown-flag error")
	}
	// So is the flag that re-sorted tables for the zone maps.
	if err := run(context.Background(), []string{"-cluster", "age", "-experiment", "table1"}); err == nil {
		t.Error("-cluster: expected an unknown-flag error")
	}
	// So are the shard sweep and its flag.
	if err := run(context.Background(), []string{"-experiment", "shards"}); err == nil {
		t.Error("-experiment shards: expected an unknown-experiment error")
	}
	if err := run(context.Background(), []string{"-shards", "2", "-experiment", "table1"}); err == nil {
		t.Error("-shards: expected an unknown-flag error")
	}
	// So are the repeated-workload study and its cache flags.
	if err := run(context.Background(), []string{"-experiment", "repeated"}); err == nil {
		t.Error("-experiment repeated: expected an unknown-experiment error")
	}
	for _, f := range [][]string{{"-cache"}, {"-cache-mb", "64"}} {
		err := run(context.Background(), append(f, "-experiment", "table1"))
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", f[0], err)
		}
	}
}

func TestRunJSONResults(t *testing.T) {
	// -json archives figures + config + metric snapshot; the run is
	// instrumented, so engine counters must appear in the snapshot.
	path := filepath.Join(t.TempDir(), "results.json")
	if err := run(context.Background(), []string{
		"-experiment", "fig10b", "-rows", "1000", "-json", path, "-metrics-addr", "127.0.0.1:0",
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Config  map[string]any     `json:"config"`
		Figures []json.RawMessage  `json:"figures"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("results JSON: %v", err)
	}
	if len(res.Figures) == 0 {
		t.Error("results JSON has no figures")
	}
	if res.Config["Rows"] != float64(1000) {
		t.Errorf("config rows = %v", res.Config["Rows"])
	}
	if _, ok := res.Config["Obs"]; ok {
		t.Error("live observer handle leaked into results JSON")
	}
	if res.Metrics["acquire_engine_queries_total"] <= 0 {
		t.Errorf("metric snapshot missing engine counters: %v", res.Metrics)
	}
	if res.Metrics["acquire_searches_total"] <= 0 {
		t.Errorf("metric snapshot missing search counter: %v", res.Metrics)
	}
}
