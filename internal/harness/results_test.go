package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func validResults() *Results {
	return &Results{
		GeneratedAt: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
		Figures: []Figure{
			{ID: "t.a", Title: "t", X: []float64{1, 2}, Series: []Series{{Name: "ms", Y: []float64{3, 4}}}},
		},
		Metrics: map[string]float64{"acquire_queries_total": 8},
	}
}

func TestValidateResults(t *testing.T) {
	if err := ValidateResults(validResults()); err != nil {
		t.Fatalf("valid results rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Results)
		want   string
	}{
		{"zero timestamp", func(r *Results) { r.GeneratedAt = time.Time{} }, "generated_at"},
		{"no figures", func(r *Results) { r.Figures = nil }, "no figures"},
		{"empty figure ID", func(r *Results) { r.Figures[0].ID = "" }, "empty ID"},
		{"duplicate figure ID", func(r *Results) { r.Figures = append(r.Figures, r.Figures[0]) }, "duplicate"},
		{"empty X axis", func(r *Results) { r.Figures[0].X = nil }, "empty X"},
		{"NaN X", func(r *Results) { r.Figures[0].X[1] = math.NaN() }, "non-finite X"},
		{"no series", func(r *Results) { r.Figures[0].Series = nil }, "no series"},
		{"length mismatch", func(r *Results) { r.Figures[0].Series[0].Y = []float64{1} }, "points"},
		{"Inf Y", func(r *Results) { r.Figures[0].Series[0].Y[0] = math.Inf(1) }, "non-finite value"},
		{"NaN metric", func(r *Results) { r.Metrics["acquire_queries_total"] = math.NaN() }, "non-finite"},
		{"empty metric name", func(r *Results) { r.Metrics[""] = 1 }, "empty name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := validResults()
			tc.mutate(r)
			err := ValidateResults(r)
			if err == nil {
				t.Fatalf("mutation accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWriteResultsRefusesInvalid pins the guard on the write path: a
// malformed figure set must error out before any JSON is emitted, so
// the acqbench temp-file dance never renames garbage into place.
func TestWriteResultsRefusesInvalid(t *testing.T) {
	cfg := Config{}.WithDefaults()
	var buf bytes.Buffer
	bad := []Figure{{ID: "x", X: []float64{1}, Series: []Series{{Name: "ms", Y: []float64{1, 2}}}}}
	if err := WriteResults(&buf, cfg, bad); err == nil {
		t.Fatal("WriteResults accepted a series/X length mismatch")
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteResults wrote %d bytes before failing validation", buf.Len())
	}

	good := []Figure{{ID: "x", X: []float64{1, 2}, Series: []Series{{Name: "ms", Y: []float64{1, 2}}}}}
	if err := WriteResults(&buf, cfg, good); err != nil {
		t.Fatalf("WriteResults rejected a valid figure set: %v", err)
	}
	var r Results
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("WriteResults output does not decode: %v", err)
	}
	if err := ValidateResults(&r); err != nil {
		t.Fatalf("WriteResults output fails validation: %v", err)
	}
}
