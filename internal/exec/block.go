package exec

import (
	"math"

	"acquire/internal/relq"
)

// blockRows is the unit of vectorized execution: scans, gather-filters
// and the finalize fold all process rows in fixed blocks of this many
// entries, compacting a reusable selection vector per predicate instead
// of running one branchy multi-predicate loop per row. 1024 int32 row
// ids (4 KiB) plus one float64 column block (8 KiB) stay comfortably
// inside L1.
const blockRows = 1024

// numBlocks returns the number of blockRows-sized blocks covering n rows.
func numBlocks(n int) int {
	return (n + blockRows - 1) / blockRows
}

// The filter primitives below compact a selection vector in place in
// SIMD-friendly shape (the gonum/asm idiom, pure Go): the surviving row
// id is stored unconditionally and the output cursor advances by a
// branchless boolean-to-int increment (`k += b2i(keep)`), so the store
// path compiles to compare + SETcc + add with no data-dependent branch
// for the predictor to miss on mixed-selectivity blocks. Dense variants
// (filterRangeDense / filterViolationDense) run the chain's first
// predicate straight over a contiguous column stride, emitting row ids
// without the identity-fill + gather round trip.

// b2i converts a predicate result to an output-cursor increment. The
// compiler lowers it to SETcc, keeping compaction loops branch-free.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filterRange keeps rows with lo <= vec[r] <= hi. A NaN fails both
// comparisons and is rejected, as it is when the range drives a sorted
// index, so the answer does not depend on the access path.
func filterRange(sel []int32, vec []float64, lo, hi float64) []int32 {
	k := 0
	for _, r := range sel {
		v := vec[r]
		sel[k] = r
		k += b2i(v >= lo && v <= hi)
	}
	return sel[:k]
}

// filterRangeDense filters the contiguous rows [lo, hi) of a column
// against [plo, phi] (filterRange's test: NaN rejected), appending
// surviving row ids into buf — the dense
// first-predicate kernel of a full block scan. The main loop runs
// 8-wide over a fixed stride: each lane is an independent load +
// compare + unconditional store + SETcc advance, the shape
// auto-vectorizers and wide cores both like.
func filterRangeDense(buf []int32, vec []float64, lo, hi int, plo, phi float64) []int32 {
	sel := buf[:cap(buf)]
	col := vec[lo:hi]
	base := int32(lo)
	k, i := 0, 0
	for ; i+8 <= len(col); i += 8 {
		v0, v1, v2, v3 := col[i], col[i+1], col[i+2], col[i+3]
		v4, v5, v6, v7 := col[i+4], col[i+5], col[i+6], col[i+7]
		r := base + int32(i)
		sel[k] = r
		k += b2i(v0 >= plo && v0 <= phi)
		sel[k] = r + 1
		k += b2i(v1 >= plo && v1 <= phi)
		sel[k] = r + 2
		k += b2i(v2 >= plo && v2 <= phi)
		sel[k] = r + 3
		k += b2i(v3 >= plo && v3 <= phi)
		sel[k] = r + 4
		k += b2i(v4 >= plo && v4 <= phi)
		sel[k] = r + 5
		k += b2i(v5 >= plo && v5 <= phi)
		sel[k] = r + 6
		k += b2i(v6 >= plo && v6 <= phi)
		sel[k] = r + 7
		k += b2i(v7 >= plo && v7 <= phi)
	}
	for ; i < len(col); i++ {
		v := col[i]
		sel[k] = base + int32(i)
		k += b2i(v >= plo && v <= phi)
	}
	return sel[:k]
}

// filterStringIn keeps rows whose string value is in the set. (Map
// probes keep a branch — hashing dominates here anyway.)
func filterStringIn(sel []int32, vec []string, set map[string]struct{}) []int32 {
	k := 0
	for _, r := range sel {
		sel[k] = r
		if _, ok := set[vec[r]]; ok {
			k++
		}
	}
	return sel[:k]
}

// filterViolation keeps rows with Violation(vec[r]) <= hi (NaN values
// pass: their violation is NaN and NaN > hi is false, matching the
// row-at-a-time check). The per-kind loops inline the exact float
// expressions of relq.Dimension.Violation — same operations, same
// order — so results are bit-identical to calling it per row.
func filterViolation(sel []int32, d *relq.Dimension, vec []float64, hi float64) []int32 {
	k := 0
	switch d.Kind {
	case relq.SelectLE:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			v := vec[r]
			sel[k] = r
			k += b2i(!(v > bound && (v-bound)*scale > hi))
		}
	case relq.SelectGE:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			v := vec[r]
			sel[k] = r
			k += b2i(!(v < bound && (bound-v)*scale > hi))
		}
	case relq.SelectEQ:
		bound, scale := d.Bound, 100/d.Width
		for _, r := range sel {
			sel[k] = r
			k += b2i(!(math.Abs(vec[r]-bound)*scale > hi))
		}
	default:
		for _, r := range sel {
			sel[k] = r
			k += b2i(!(d.Violation(vec[r]) > hi))
		}
	}
	return sel[:k]
}

// filterViolationDense is filterViolation's dense first-predicate form:
// it evaluates the dimension's violation over the contiguous rows
// [lo, hi) of its column, appending survivors into buf. Same exact
// float expressions, 8-wide strides for the two monotone kinds.
func filterViolationDense(buf []int32, d *relq.Dimension, vec []float64, lo, hi int, vhi float64) []int32 {
	sel := buf[:cap(buf)]
	col := vec[lo:hi]
	base := int32(lo)
	k, i := 0, 0
	switch d.Kind {
	case relq.SelectLE:
		bound, scale := d.Bound, 100/d.Width
		for ; i+8 <= len(col); i += 8 {
			r := base + int32(i)
			for j := 0; j < 8; j++ {
				v := col[i+j]
				sel[k] = r + int32(j)
				k += b2i(!(v > bound && (v-bound)*scale > vhi))
			}
		}
		for ; i < len(col); i++ {
			v := col[i]
			sel[k] = base + int32(i)
			k += b2i(!(v > bound && (v-bound)*scale > vhi))
		}
	case relq.SelectGE:
		bound, scale := d.Bound, 100/d.Width
		for ; i+8 <= len(col); i += 8 {
			r := base + int32(i)
			for j := 0; j < 8; j++ {
				v := col[i+j]
				sel[k] = r + int32(j)
				k += b2i(!(v < bound && (bound-v)*scale > vhi))
			}
		}
		for ; i < len(col); i++ {
			v := col[i]
			sel[k] = base + int32(i)
			k += b2i(!(v < bound && (bound-v)*scale > vhi))
		}
	case relq.SelectEQ:
		bound, scale := d.Bound, 100/d.Width
		for ; i < len(col); i++ {
			sel[k] = base + int32(i)
			k += b2i(!(math.Abs(col[i]-bound)*scale > vhi))
		}
	default:
		for ; i < len(col); i++ {
			sel[k] = base + int32(i)
			k += b2i(!(d.Violation(col[i]) > vhi))
		}
	}
	return sel[:k]
}
