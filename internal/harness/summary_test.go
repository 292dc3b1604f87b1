package harness

import (
	"context"
	"strings"
	"testing"
)

func TestSummaryClaimsHold(t *testing.T) {
	// §8.5(3) (Top-k slower than ACQUIRE) is a scale-dependent claim —
	// the paper itself notes Top-k "can be efficient at small-sized
	// datasets" — so the check runs at a scale where sorting matters.
	cfg := tinyCfg()
	cfg.Rows = 30000
	claims, figs, err := Summary(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d", len(figs))
	}
	if len(claims) != 5 {
		t.Fatalf("claims = %d, want 5", len(claims))
	}
	// §8.5(1a)/(1b)/(3) compare wall-clock across methods, which a
	// loaded machine or the race detector (it slows each method by a
	// different factor) bends; they are reported, not asserted. The
	// deterministic claims (error bound, refinement quality) must hold
	// under any instrumentation.
	timing := map[string]bool{"§8.5(1a)": true, "§8.5(1b)": true, "§8.5(3)": true}
	deviated := false
	for _, c := range claims {
		if !c.Holds {
			if timing[c.ID] {
				t.Logf("claim %s deviates (timing-based, not asserted): %s (%s)", c.ID, c.Paper, c.Measured)
				continue
			}
			deviated = true
			t.Errorf("claim %s deviates: %s (%s)", c.ID, c.Paper, c.Measured)
		}
	}
	s := FormatClaims(claims)
	if !strings.Contains(s, "HOLDS") || !strings.Contains(s, "§8.5") {
		t.Errorf("FormatClaims:\n%s", s)
	}
	if deviated {
		t.Errorf("deviation detail:\n%s", s)
	}
}

func TestOrderSensitivityStudy(t *testing.T) {
	figs, err := OrderSensitivityStudy(context.Background(), tinyCfg())
	if err != nil {
		t.Fatalf("OrderSensitivityStudy: %v", err)
	}
	f := figs[0]
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	var best, worst []float64
	for _, s := range f.Series {
		switch s.Name {
		case "BinSearch best order":
			best = s.Y
		case "BinSearch worst order":
			worst = s.Y
		}
	}
	for i := range best {
		if worst[i] < best[i] {
			t.Errorf("ratio %v: worst %v < best %v", f.X[i], worst[i], best[i])
		}
	}
}

func TestPermutations(t *testing.T) {
	ps := permutations(3)
	if len(ps) != 6 {
		t.Fatalf("permutations(3) = %d", len(ps))
	}
	seen := map[[3]int]bool{}
	for _, p := range ps {
		var k [3]int
		copy(k[:], p)
		if seen[k] {
			t.Fatalf("duplicate permutation %v", p)
		}
		seen[k] = true
	}
}
