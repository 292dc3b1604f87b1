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
