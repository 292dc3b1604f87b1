package exec

import (
	"math"
	"math/rand"
	"testing"

	"acquire/internal/relq"
)

// denseTestVec builds an n-row column with NaN, ±Inf and duplicated
// values mixed in — the inputs the branchless keep conditions must
// treat exactly like the row-at-a-time scan does.
func denseTestVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vec := make([]float64, n)
	for i := range vec {
		switch rng.Intn(25) {
		case 0:
			vec[i] = math.NaN()
		case 1:
			vec[i] = math.Inf(1)
		case 2:
			vec[i] = math.Inf(-1)
		case 3:
			vec[i] = 0
		default:
			vec[i] = rng.NormFloat64() * 100
		}
	}
	return vec
}

// identitySel returns the selection vector [lo, hi) — the dense
// kernels' implicit input, materialized so the scalar gather kernels
// can run over the same rows.
func identitySel(lo, hi int) []int32 {
	sel := make([]int32, hi-lo)
	for i := range sel {
		sel[i] = int32(lo + i)
	}
	return sel
}

// denseStrides exercises the 8-wide main loop, its scalar tail, and the
// degenerate spans around both.
func denseStrides(n int) [][2]int {
	return [][2]int{
		{0, n}, {0, 8}, {0, 7}, {0, 9}, {3, 3}, {5, 6},
		{1, n - 1}, {n - 17, n}, {8, 16}, {0, 1},
	}
}

func TestFilterRangeDenseMatchesScalar(t *testing.T) {
	const n = 300
	vec := denseTestVec(n, 1)
	preds := [][2]float64{
		{-50, 50}, {0, 0}, {math.Inf(-1), math.Inf(1)},
		{math.Inf(-1), -10}, {200, math.Inf(1)}, {10, 5}, // empty range
	}
	var buf [blockRows]int32
	for _, p := range preds {
		for _, s := range denseStrides(n) {
			lo, hi := s[0], s[1]
			got := filterRangeDense(buf[:0], vec, lo, hi, p[0], p[1])
			want := filterRange(identitySel(lo, hi), vec, p[0], p[1])
			if len(got) != len(want) {
				t.Fatalf("pred [%v,%v] rows [%d,%d): dense kept %d, scalar kept %d",
					p[0], p[1], lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pred [%v,%v] rows [%d,%d): row %d: dense %d vs scalar %d",
						p[0], p[1], lo, hi, i, got[i], want[i])
				}
			}
		}
	}
}

func TestFilterViolationDenseMatchesScalar(t *testing.T) {
	const n = 300
	vec := denseTestVec(n, 2)
	dims := []relq.Dimension{
		{Kind: relq.SelectLE, Bound: 10, Width: 60},
		{Kind: relq.SelectGE, Bound: -20, Width: 45},
		{Kind: relq.SelectEQ, Bound: 0, Width: 100},
	}
	var buf [blockRows]int32
	for di := range dims {
		d := &dims[di]
		for _, vhi := range []float64{0, 12.5, 100, math.Inf(1)} {
			for _, s := range denseStrides(n) {
				lo, hi := s[0], s[1]
				got := filterViolationDense(buf[:0], d, vec, lo, hi, vhi)
				want := filterViolation(identitySel(lo, hi), d, vec, vhi)
				if len(got) != len(want) {
					t.Fatalf("kind %d vhi=%v rows [%d,%d): dense kept %d, scalar kept %d",
						d.Kind, vhi, lo, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("kind %d vhi=%v rows [%d,%d): row %d: dense %d vs scalar %d",
							d.Kind, vhi, lo, hi, i, got[i], want[i])
					}
				}
				// The survivors must be exactly the rows the per-row
				// Violation check keeps.
				for _, r := range got {
					if d.Violation(vec[r]) > vhi {
						t.Fatalf("kind %d vhi=%v: kept row %d with violation %v",
							d.Kind, vhi, r, d.Violation(vec[r]))
					}
				}
			}
		}
	}
}

// TestZoneSkipNeverDropsQualifyingBlock is the block-level soundness
// property behind two-sided pruneInterval hulls: whenever the zone test
// built from pruneInterval skips a block, no row of that block can
// contribute to the final result — i.e. no value has a violation inside
// (iv.Lo, iv.Hi]. Randomized over dimension shapes, intervals (Lo > 0
// included) and clustered-ish data.
func TestZoneSkipNeverDropsQualifyingBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 16 * blockRows
	for trial := 0; trial < 60; trial++ {
		// Clustered-ish column: sorted base with local jitter, so zone
		// intervals are tight and skips actually fire.
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = float64(i)/float64(n)*1000 + rng.NormFloat64()*5
		}
		if trial%3 == 0 {
			vec[rng.Intn(n)] = math.NaN()
		}

		kind := []relq.DimKind{relq.SelectLE, relq.SelectGE, relq.SelectEQ}[rng.Intn(3)]
		d := &relq.Dimension{
			Kind:  kind,
			Bound: rng.Float64() * 1000,
			Width: 50 + rng.Float64()*500,
		}
		if kind == relq.SelectEQ {
			d.Width = 100
		}
		iv := relq.ViolInterval{Hi: rng.Float64() * 120}
		if rng.Intn(2) == 0 {
			iv.Lo = iv.Hi * rng.Float64()
		}

		lo, hi := pruneInterval(d, iv)
		zp := zonePred{zm: buildZoneMap(vec), lo: lo, hi: hi}
		skips := 0
		for bi := 0; bi < numBlocks(n); bi++ {
			if !zp.skip(bi) {
				continue
			}
			skips++
			blo, bhi := bi*blockRows, min((bi+1)*blockRows, n)
			for r := blo; r < bhi; r++ {
				if v := d.Violation(vec[r]); v > iv.Lo && v <= iv.Hi {
					t.Fatalf("trial %d kind %d iv=(%v,%v]: skipped block %d holds qualifying row %d (value %v, violation %v)",
						trial, kind, iv.Lo, iv.Hi, bi, r, vec[r], v)
				}
			}
		}
		_ = skips // skips may legitimately be 0 for wide intervals
	}
}

func BenchmarkFilterRangeDense(b *testing.B) {
	vec := make([]float64, blockRows)
	rng := rand.New(rand.NewSource(1))
	for i := range vec {
		vec[i] = rng.Float64() * 100
	}
	var buf [blockRows]int32
	b.SetBytes(blockRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterRangeDense(buf[:0], vec, 0, blockRows, 25, 75)
	}
}

func BenchmarkFilterViolationDense(b *testing.B) {
	vec := make([]float64, blockRows)
	rng := rand.New(rand.NewSource(1))
	for i := range vec {
		vec[i] = rng.Float64() * 100
	}
	d := &relq.Dimension{Kind: relq.SelectLE, Bound: 25, Width: 50}
	var buf [blockRows]int32
	b.SetBytes(blockRows * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filterViolationDense(buf[:0], d, vec, 0, blockRows, 40)
	}
}
