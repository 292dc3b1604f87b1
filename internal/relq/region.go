package relq

import (
	"fmt"
	"math"
)

// ViolInterval is a half-open interval (Lo, Hi] of violation scores for
// one dimension. Violations are non-negative, so Lo = -1 with Hi = 0
// selects exactly the tuples satisfying the original predicate
// (violation 0), and Lo = -1 with Hi = h selects the whole prefix
// [0, h].
type ViolInterval struct {
	Lo, Hi float64
}

// Contains reports whether violation v lies in (Lo, Hi].
func (iv ViolInterval) Contains(v float64) bool { return v > iv.Lo && v <= iv.Hi }

// Region is a d-dimensional box of violation intervals; the engine
// evaluates tuples whose violation vector lies inside it. Grid queries
// are prefix regions; cell queries (§5.1.1) are unit boxes.
type Region []ViolInterval

// PrefixRegion returns the region of the full refined query at score
// vector scores: dimension i admits violations in [0, scores[i]].
func PrefixRegion(scores []float64) Region {
	r := make(Region, len(scores))
	for i, s := range scores {
		r[i] = ViolInterval{Lo: -1, Hi: s}
	}
	return r
}

// CellRegion returns the unit-cell region at grid point u with the given
// per-axis step: dimension i admits violations in
// ((u[i]-1)·step, u[i]·step], or exactly 0 when u[i] == 0 (§5.1.1: the
// cell sub-query O1 has lower bound one unit below the query on every
// dimension; at the origin the cell degenerates to the original query).
func CellRegion[T int | int32](u []T, step float64) Region {
	return AppendCellRegion(make(Region, 0, len(u)), u, step)
}

// AppendCellRegion appends the intervals of CellRegion(u, step) to dst,
// so a caller can build a batch of cells into one backing array.
func AppendCellRegion[T int | int32](dst Region, u []T, step float64) Region {
	for _, ui := range u {
		if ui == 0 {
			dst = append(dst, ViolInterval{Lo: -1, Hi: 0})
		} else {
			dst = append(dst, ViolInterval{Lo: float64(ui-1) * step, Hi: float64(ui) * step})
		}
	}
	return dst
}

// SubQueryRegion returns the region of sub-query O_j (1-indexed,
// j = 1..d+1) at grid point u (Eqs. 5-8): dimensions 1..j-1 span their
// full prefix [0, u_i·step]; dimensions j..d span only the unit cell
// ((u_i-1)·step, u_i·step].
func SubQueryRegion(u []int, j int, step float64) Region {
	d := len(u)
	if j < 1 || j > d+1 {
		panic(fmt.Sprintf("relq: sub-query index %d out of range for d=%d", j, d))
	}
	r := make(Region, d)
	for i, ui := range u {
		if i < j-1 { // full prefix
			r[i] = ViolInterval{Lo: -1, Hi: float64(ui) * step}
		} else { // unit cell slice
			if ui == 0 {
				r[i] = ViolInterval{Lo: -1, Hi: 0}
			} else {
				r[i] = ViolInterval{Lo: float64(ui-1) * step, Hi: float64(ui) * step}
			}
		}
	}
	return r
}

// Contains reports whether the violation vector lies inside the region.
func (r Region) Contains(viol []float64) bool {
	for i, iv := range r {
		if !iv.Contains(viol[i]) {
			return false
		}
	}
	return true
}

// MaxViolation returns the per-dimension upper bounds — the loosest
// predicate bounds the engine must scan for.
func (r Region) MaxViolation() []float64 {
	out := make([]float64, len(r))
	for i, iv := range r {
		out[i] = iv.Hi
	}
	return out
}

// Empty reports whether any interval is vacuous.
func (r Region) Empty() bool {
	for _, iv := range r {
		if iv.Hi < 0 || iv.Hi <= iv.Lo && !(iv.Lo < 0) {
			return true
		}
	}
	return false
}

// String renders the region for diagnostics.
func (r Region) String() string {
	s := "["
	for i, iv := range r {
		if i > 0 {
			s += ", "
		}
		if iv.Lo < 0 {
			s += fmt.Sprintf("[0,%g]", iv.Hi)
		} else {
			s += fmt.Sprintf("(%g,%g]", iv.Lo, iv.Hi)
		}
	}
	return s + "]"
}

// ScoresAlmostEqual compares score vectors with a small tolerance;
// grid arithmetic accumulates float error.
func ScoresAlmostEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])+math.Abs(b[i])) {
			return false
		}
	}
	return true
}
