package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"acquire/internal/core"
	"acquire/internal/relq"
	"acquire/internal/workload"
)

// TestFigure8Golden pins the answers of fig. 8's ACQUIRE searches at the
// harness's default 20K rows, not their times: per aggregate ratio, the
// chosen refinement's scores, L1 refinement, QScore, aggregate and error,
// each float exact. A change to the refined space, the Expand order, the
// best pick or the evaluation layer that moves an answer fails here.
func TestFigure8Golden(t *testing.T) {
	cfg := Config{}.WithDefaults()
	e, err := usersEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range Ratios {
		q, err := workload.BuildCalibrated(e, workload.Spec{Kind: workload.Users, Dims: 3, Agg: relq.AggCount, Ratio: r})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunContext(context.Background(), e, q, acquireOpts(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatalf("ratio %v: no satisfying refinement", r)
		}
		p := res.Best
		fmt.Fprintf(&b, "ratio %v: scores %v refinement %v qscore %v aggregate %v err %v\n",
			r, p.Scores, l1(p.Scores), p.QScore, p.Aggregate, p.Err)
	}
	const want = `ratio 0.1: scores [11.666666666666668 18.333333333333336 18.333333333333336] refinement 48.33333333333334 qscore 48.33333333333334 aggregate 2239 err 0.004888888888888889
ratio 0.3: scores [0 11.666666666666668 11.666666666666668] refinement 23.333333333333336 qscore 23.333333333333336 aggregate 725 err 0.03333333333333333
ratio 0.5: scores [0 6.666666666666667 6.666666666666667] refinement 13.333333333333334 qscore 13.333333333333334 aggregate 456 err 0.013333333333333334
ratio 0.7: scores [0 6.666666666666667 0] refinement 6.666666666666667 qscore 6.666666666666667 aggregate 318 err 0.010666666666666717
ratio 0.9: scores [0 1.6666666666666667 0] refinement 1.6666666666666667 qscore 1.6666666666666667 aggregate 248 err 0.008
`
	if got := b.String(); got != want {
		t.Fatalf("fig. 8 answers moved:\n got\n%s want\n%s", got, want)
	}
}
