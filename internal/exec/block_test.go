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

func TestBuildZoneMap(t *testing.T) {
	vec := make([]float64, blockRows+3)
	for i := range vec {
		vec[i] = float64(i)
	}
	vec[5] = math.NaN()             // block 0 carries NaN
	vec[blockRows+1] = math.Inf(-1) // tail block min is -Inf

	zm := buildZoneMap(vec)
	if len(zm.mins) != 2 {
		t.Fatalf("blocks = %d, want 2", len(zm.mins))
	}
	if !zm.nan[0] || zm.nan[1] {
		t.Errorf("nan flags = %v/%v, want true/false", zm.nan[0], zm.nan[1])
	}
	if zm.mins[0] != 0 || zm.maxs[0] != float64(blockRows-1) {
		t.Errorf("block 0 span = [%v, %v]", zm.mins[0], zm.maxs[0])
	}
	if !math.IsInf(zm.mins[1], -1) || zm.maxs[1] != float64(blockRows+2) {
		t.Errorf("block 1 span = [%v, %v]", zm.mins[1], zm.maxs[1])
	}

	// All-NaN block: unskippable via the nan flag, degenerate interval.
	allNaN := buildZoneMap([]float64{math.NaN(), math.NaN()})
	if !allNaN.nan[0] || !math.IsInf(allNaN.mins[0], 1) || !math.IsInf(allNaN.maxs[0], -1) {
		t.Errorf("all-NaN block = {%v, %v, %v}", allNaN.mins[0], allNaN.maxs[0], allNaN.nan[0])
	}
}

func TestZonePredSkip(t *testing.T) {
	zm := &zoneMap{mins: []float64{10, 10}, maxs: []float64{20, 20}, nan: []bool{false, true}}
	cases := []struct {
		lo, hi float64
		bi     int
		skip   bool
	}{
		{30, 40, 0, true},  // block entirely below the range
		{0, 5, 0, true},    // block entirely above the range
		{15, 40, 0, false}, // overlap
		{20, 40, 0, false}, // touching endpoint must not skip
		{0, 10, 0, false},  // touching endpoint must not skip
		{30, 40, 1, false}, // NaN block is never skippable
	}
	for _, c := range cases {
		zp := zonePred{zm: zm, lo: c.lo, hi: c.hi}
		if got := zp.skip(c.bi); got != c.skip {
			t.Errorf("skip(bi=%d, [%v,%v]) = %v, want %v", c.bi, c.lo, c.hi, got, c.skip)
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

func TestPruneIntervalConservative(t *testing.T) {
	// For every select kind, any value whose violation is <= hi must lie
	// inside the prune interval (the interval may be wider, never
	// narrower).
	dims := []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 100, Width: 50},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 100, Width: 50},
		{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "t", Column: "c"}, Bound: 100, Width: 50},
	}
	for di := range dims {
		d := &dims[di]
		for _, ivLo := range []float64{0, 2.1, 15} {
			for _, hi := range []float64{0, 7.3, 33.3, 99.9} {
				if hi < ivLo {
					continue
				}
				iv := relq.ViolInterval{Lo: ivLo, Hi: hi}
				lo, up := pruneInterval(d, iv)
				for v := -50.0; v <= 250; v += 0.7 {
					viol := d.Violation(v)
					if viol > iv.Lo && viol <= iv.Hi && (v < lo || v > up) {
						t.Fatalf("kind=%v iv=(%v,%v]: qualifying value %v outside prune hull [%v, %v]",
							d.Kind, iv.Lo, iv.Hi, v, lo, up)
					}
				}
			}
		}
	}
}

func TestPrunePadInfinityHandling(t *testing.T) {
	lo, hi := prunePad(math.Inf(-1), 50)
	if !math.IsInf(lo, -1) || !(hi > 50) || math.IsInf(hi, 1) {
		t.Errorf("prunePad(-Inf, 50) = (%v, %v)", lo, hi)
	}
	lo, hi = prunePad(10, math.Inf(1))
	if !(lo < 10) || math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Errorf("prunePad(10, +Inf) = (%v, %v)", lo, hi)
	}
}
