package exec

import (
	"math"
	"testing"

	"acquire/internal/relq"
)

func TestNumBlocks(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {blockRows - 1, 1}, {blockRows, 1},
		{blockRows + 1, 2}, {3 * blockRows, 3}, {3*blockRows + 1, 4},
	}
	for _, c := range cases {
		if got := numBlocks(c.n); got != c.want {
			t.Errorf("numBlocks(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFilterRangeRejectsNaN(t *testing.T) {
	vec := []float64{1, math.NaN(), 5, 10, math.Inf(1), math.Inf(-1)}
	sel := []int32{0, 1, 2, 3, 4, 5}
	got := filterRange(sel, vec, 2, 11)
	// Kept: 5, 10. Dropped: 1, NaN (inside no range), +Inf, -Inf.
	want := []int32{2, 3}
	if len(got) != len(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kept %v, want %v", got, want)
		}
	}
}

func TestFilterViolationMatchesDimension(t *testing.T) {
	vec := []float64{-5, 0, 10, 20, 35, 50, math.NaN(), math.Inf(1), math.Inf(-1)}
	dims := []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 20, Width: 40},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 20, Width: 40},
		{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 20, Width: 40},
	}
	for _, hi := range []float64{0, 12.5, 60, math.Inf(1)} {
		for di := range dims {
			d := &dims[di]
			sel := make([]int32, len(vec))
			for i := range sel {
				sel[i] = int32(i)
			}
			got := filterViolation(sel, d, vec, hi)
			var want []int32
			for i := range vec {
				if !(d.Violation(vec[i]) > hi) {
					want = append(want, int32(i))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("kind=%v hi=%v: kept %v, want %v", d.Kind, hi, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("kind=%v hi=%v: kept %v, want %v", d.Kind, hi, got, want)
				}
			}
		}
	}
}
