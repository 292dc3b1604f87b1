package exec

import (
	"sort"

	"acquire/internal/data"
)

// sortedIdx is a lazily built secondary index: the column's non-NaN
// values in sorted order with their row ids. NaN rows are left out — no
// range contains them, and under `<` they have no place in a sort
// order, so a NaN among the values would leave the binary searches
// below undefined. Scans use it the way Postgres uses a B-tree
// index: the most selective range predicate drives candidate
// generation, and the remaining predicates are verified per candidate.
// This is what makes ACQUIRE's highly selective cell queries cheap
// relative to the broad whole-query probes of the baselines — the cost
// asymmetry the paper's evaluation rests on.
type sortedIdx struct {
	vals []float64
	rows []int32
}

// sortedIndex returns column ord's sorted index, built once per table
// generation and shared by every engine over the table (data.Derived).
func sortedIndex(t *data.Table, ord int) (*sortedIdx, error) {
	return data.Derived(t, ord, data.SortedIndex, buildSortedIdx)
}

func buildSortedIdx(vec []float64) (*sortedIdx, error) {
	perm := make([]int32, 0, len(vec))
	for i, v := range vec {
		if v == v {
			perm = append(perm, int32(i))
		}
	}
	sort.Slice(perm, func(a, b int) bool { return vec[perm[a]] < vec[perm[b]] })
	idx := &sortedIdx{
		vals: make([]float64, len(perm)),
		rows: make([]int32, len(perm)),
	}
	for i, r := range perm {
		idx.vals[i] = vec[r]
		idx.rows[i] = r
	}
	return idx, nil
}

// slab returns the positions [a, b) of the index whose values fall in
// [lo, hi]: b-a rows qualify, and rows[a:b] are their ids in value
// order. An interval that admits nothing returns a == b.
func (ix *sortedIdx) slab(lo, hi float64) (a, b int) {
	a = sort.SearchFloat64s(ix.vals, lo)
	b = sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] > hi })
	if b < a {
		b = a
	}
	return a, b
}
