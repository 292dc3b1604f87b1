package core

import (
	"testing"
	"time"

	"acquire/internal/obs"
	"acquire/internal/relq"
)

// TestPhaseHistogramCounts pins how many times each phase of a few
// fixed searches is observed in acquire_phase_duration_seconds, with
// the observer attached to the search and to the engine as a session
// attaches it. The counts are the searches' structure — one search, one
// expand per Expand step, one prefetch and fold per layer, one
// repartition per §6 overshoot, one evaluate per region an engine front
// resolves or per scan unit — so a change to the timing code that
// drops, doubles or moves a phase observation fails here.
func TestPhaseHistogramCounts(t *testing.T) {
	vDim := relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "v"}, Bound: 2, Width: 6}
	cases := []struct {
		name    string
		q       *relq.Query
		gridagg bool
		want    map[string]int64
	}{
		{"repartition", countQ(15, leDim(10)), false, map[string]int64{
			"search": 1, "expand": 3, "prefetch": 2, "fold": 2, "repartition": 1, "evaluate": 3}},
		{"two-dims", countQ(47, leDim(10), vDim), false, map[string]int64{
			"search": 1, "expand": 20, "prefetch": 19, "fold": 19, "repartition": 0, "evaluate": 119}},
		{"box-kernel", countQ(47, leDim(10), vDim), true, map[string]int64{
			"search": 1, "expand": 20, "prefetch": 19, "fold": 19, "repartition": 0, "evaluate": 180}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := lineTable(t, 1000)
			if tc.gridagg {
				if err := e.BuildGridAggIndex("t", []string{"x", "v"}, nil, 16); err != nil {
					t.Fatal(err)
				}
			}
			reg := obs.NewRegistry()
			clk := obs.NewFakeClock(time.Unix(0, 0)).AutoAdvance(time.Millisecond)
			o := obs.NewObserver(reg).WithClock(clk)
			e.SetObserver(o)
			if _, err := Run(e, tc.q, Options{Gamma: 10, Delta: 0.01, Observer: o}); err != nil {
				t.Fatal(err)
			}
			for phase, want := range tc.want {
				h := reg.Histogram(`acquire_phase_duration_seconds{phase="`+phase+`"}`, "", nil)
				if got := h.Count(); got != want {
					t.Errorf("phase %q observed %d times, want %d", phase, got, want)
				}
			}
		})
	}
}
