package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/norms"
	"acquire/internal/relq"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search.golden from the current search")

// TestSearchGolden pins the whole observable outcome of a search — the
// work counters (Explored, CellQueries, StoredPoints), every refined
// query's scores, QScore, aggregate and error as float bits, and the
// closest query — over mixedTable for every frontier, both Explore
// modes and COUNT/SUM/MIN/MAX, against testdata/search.golden. The
// file was written by the map-based search the lattice replaced, so any
// change to the Expand order, the fold's float association or the
// fetch accounting shows here. Regenerate with -update only for a
// change that is meant to alter results.
func TestSearchGolden(t *testing.T) {
	const gamma, delta, depth = 20, 0.005, 8
	plain := exec.New(mixedTable(t, 11, 4000))
	l2, err := norms.NewLp(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontiers := []struct {
		name string
		norm func(d int) norms.Norm
	}{
		{"bfs", func(int) norms.Norm { return norms.L1{} }},
		{"linf", func(int) norms.Norm { return norms.LInf{} }},
		{"priority-l2", func(int) norms.Norm { return l2 }},
		{"priority-weighted", func(d int) norms.Norm {
			w := make([]float64, d)
			for i := range w {
				w[i] = float64(1 + (i*2)%3)
			}
			n, err := norms.NewLp(1, w)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
	}
	// Targets: the aggregate 1.4 and 4.6 grid steps out on every
	// dimension (between layers, so §6 repartitions), and one beyond the
	// table under a budget that runs out in the middle of a layer.
	targets := []struct {
		name   string
		steps  float64
		scale  float64
		budget int
	}{{"near", 1.4, 1, 3000}, {"far", 4.6, 1, 3000}, {"budget", 4.6, 1e6, 57}}
	var b strings.Builder
	for d := 1; d <= 3; d++ {
		for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMin, relq.AggMax} {
			for _, tg := range targets {
				q := &relq.Query{Tables: []string{"t"}, Dims: mixedDims(d), Constraint: relq.Constraint{Func: f, Op: relq.CmpEQ}}
				if f != relq.AggCount {
					q.Constraint.Attr = relq.ColumnRef{Table: "t", Column: "v"}
				}
				at := make([]float64, d)
				for i := range at {
					at[i] = tg.steps * gamma / float64(d)
				}
				q.Constraint.Target = finalAt(t, plain.Aggregate, q, at) * tg.scale
				for _, fr := range frontiers {
					for _, naive := range []bool{false, true} {
						opts := Options{Gamma: gamma, Delta: delta, RepartitionDepth: depth, ErrFn: agg.RelativeError,
							Norm: fr.norm(d), NoIncremental: naive, MaxExplored: tg.budget}
						res, err := Run(plain, q, opts)
						if err != nil {
							t.Fatalf("d=%d %s %s %s naive=%v: %v", d, f, tg.name, fr.name, naive, err)
						}
						fmt.Fprintf(&b, "d=%d %s %s %s naive=%v: explored=%d cells=%d stored=%d satisfied=%v exhausted=%v\n",
							d, f, tg.name, fr.name, naive, res.Explored, res.CellQueries, res.StoredPoints, res.Satisfied, res.Exhausted)
						for _, rq := range res.Queries {
							fmt.Fprintf(&b, "  answer %s\n", goldenQuery(rq))
						}
						if res.Closest != nil {
							fmt.Fprintf(&b, "  closest %s\n", goldenQuery(*res.Closest))
						}
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "search.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	lines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(lines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(lines) {
			w = lines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// goldenQuery renders a refined query with every float as its bits.
func goldenQuery(rq relq.RefinedQuery) string {
	var b strings.Builder
	b.WriteString("scores=[")
	for i, s := range rq.Scores {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(s))
	}
	fmt.Fprintf(&b, "] qscore=%x aggregate=%x err=%x", math.Float64bits(rq.QScore),
		math.Float64bits(rq.Aggregate), math.Float64bits(rq.Err))
	return b.String()
}
