package data

import (
	"fmt"
	"sort"
)

// SortedBy returns a copy of the table with rows reordered ascending by
// the named numeric column (NaNs last, ties in original row order).
// Re-clustering a fact table this way is what makes per-block zone maps
// effective: on an i.i.d. row layout every block spans the whole value
// domain and no block is ever provably out of range, while on a
// clustered layout a range predicate excludes most blocks outright.
// This mirrors how real columnar stores depend on sort keys / clustering
// columns for their zone-map (a.k.a. min-max index) pruning.
//
// The result records its clustering column and sorted-prefix length
// (ClusterInfo), so later appends are visible as an explicit unsorted
// tail rather than silently stale-looking zone-map behavior.
func SortedBy(t *Table, column string) (*Table, error) {
	ord := t.schema.Ordinal(column)
	if ord < 0 {
		return nil, fmt.Errorf("data: table %s has no column %q", t.name, column)
	}
	key, err := t.NumericColumn(ord)
	if err != nil {
		return nil, fmt.Errorf("data: cluster column must be numeric: %w", err)
	}

	perm := make([]int, t.rows)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return keyLess(key[perm[a]], key[perm[b]])
	})

	out := permuted(t, perm)
	out.clusterCol = t.schema.Columns[ord].Name
	out.sortedRows = out.rows
	return out, nil
}

// keyLess is the clustering comparator: ascending, NaNs last.
func keyLess(a, b float64) bool {
	if a != a { // NaN sorts last
		return false
	}
	if b != b {
		return true
	}
	return a < b
}

// permuted builds a fresh table whose row i is t's row perm[i].
func permuted(t *Table, perm []int) *Table {
	out := &Table{
		name:    t.name,
		schema:  t.schema,
		rows:    t.rows,
		ints:    make(map[int][]int64, len(t.ints)),
		floats:  make(map[int][]float64, len(t.floats)),
		strings: make(map[int][]string, len(t.strings)),
	}
	out.Touch()
	for o, v := range t.ints {
		nv := make([]int64, len(v))
		for i, p := range perm {
			nv[i] = v[p]
		}
		out.ints[o] = nv
	}
	for o, v := range t.floats {
		nv := make([]float64, len(v))
		for i, p := range perm {
			nv[i] = v[p]
		}
		out.floats[o] = nv
	}
	for o, v := range t.strings {
		nv := make([]string, len(v))
		for i, p := range perm {
			nv[i] = v[p]
		}
		out.strings[o] = nv
	}
	return out
}
