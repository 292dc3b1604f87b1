package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Results is the machine-readable form of an acqbench run: the
// configuration, every reproduced figure, and — when the run was
// instrumented — a flat snapshot of the metric registry (counter and
// gauge values, histogram sums/counts), so a CI job can archive the
// run's cost profile next to its figures.
type Results struct {
	GeneratedAt time.Time          `json:"generated_at"`
	Config      Config             `json:"config"`
	Figures     []Figure           `json:"figures"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// WriteResults serialises the figures (plus the registry snapshot of
// cfg.Obs, when instrumented) as indented JSON to w. The payload is
// validated first — a malformed run must fail loudly rather than emit
// a results file with garbage in it.
func WriteResults(w io.Writer, cfg Config, figs []Figure) error {
	r := Results{
		GeneratedAt: time.Now().UTC(),
		Config:      cfg,
		Figures:     figs,
		Metrics:     cfg.Obs.Registry().Snapshot(),
	}
	if err := ValidateResults(&r); err != nil {
		return fmt.Errorf("refusing to write results: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ValidateResults checks the structural invariants every results file
// must satisfy before WriteResults emits it: a real generation
// timestamp, at least one figure, non-empty figure IDs (unique across
// the run), every series exactly as long as its figure's X axis, and
// every number — axis point, series value, metric — finite.
func ValidateResults(r *Results) error {
	if r.GeneratedAt.IsZero() {
		return fmt.Errorf("results: generated_at is zero")
	}
	if len(r.Figures) == 0 {
		return fmt.Errorf("results: no figures")
	}
	seen := make(map[string]bool, len(r.Figures))
	for i, f := range r.Figures {
		if f.ID == "" {
			return fmt.Errorf("results: figure %d has an empty ID", i)
		}
		if seen[f.ID] {
			return fmt.Errorf("results: duplicate figure ID %q", f.ID)
		}
		seen[f.ID] = true
		if len(f.X) == 0 {
			return fmt.Errorf("results: figure %q has an empty X axis", f.ID)
		}
		for _, x := range f.X {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("results: figure %q has a non-finite X value", f.ID)
			}
		}
		if len(f.Series) == 0 {
			return fmt.Errorf("results: figure %q has no series", f.ID)
		}
		for _, s := range f.Series {
			if len(s.Y) != len(f.X) {
				return fmt.Errorf("results: figure %q series %q has %d points, X axis has %d",
					f.ID, s.Name, len(s.Y), len(f.X))
			}
			for _, y := range s.Y {
				if math.IsNaN(y) || math.IsInf(y, 0) {
					return fmt.Errorf("results: figure %q series %q has a non-finite value", f.ID, s.Name)
				}
			}
		}
	}
	for name, v := range r.Metrics {
		if name == "" {
			return fmt.Errorf("results: metric with empty name")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("results: metric %q is non-finite", name)
		}
	}
	return nil
}
