package data

import (
	"fmt"
	"math"
	"sync"
)

// Table is an immutable-after-load, append-only columnar table. Numeric
// columns are stored as dense vectors so the executor can scan without
// per-cell allocation; string columns are dictionary-free plain slices
// (categorical cardinalities in our workloads are tiny).
type Table struct {
	name   string
	schema *Schema
	rows   int

	ints    map[int][]int64   // ordinal -> vector
	floats  map[int][]float64 // ordinal -> vector
	strings map[int][]string  // ordinal -> vector

	// Clustering metadata: clusterCol names the numeric column the rows
	// were last sorted by (SortedBy; empty when unclustered) and
	// sortedRows is the length of the sorted prefix run. Appends after
	// clustering land beyond sortedRows as an explicitly-degraded
	// unsorted tail; the executor reads ClusterInfo and ClusterTail to
	// decide whether zone maps stay trustworthy by construction.
	clusterCol string
	sortedRows int

	// stats are lazily computed min/max per numeric ordinal; ACQUIRE
	// needs attribute domains to anchor predicate intervals (§2.2:
	// "if the minimum value of B.y is 0 ..."). statsMu guards the lazy
	// fill — concurrent refinement searches share one catalog.
	statsMu sync.Mutex
	stats   map[int]ColumnStats
}

// ColumnStats holds the domain statistics the refinement model needs.
type ColumnStats struct {
	Min, Max float64
	// FiniteMin and FiniteMax are the extremes over the finite values
	// (+Inf and -Inf when there are none): what the refined space is
	// measured against, since a row with an infinite violation lies in
	// no finite prefix.
	FiniteMin, FiniteMax float64
	// Distinct is an exact distinct count (tables are loaded once and
	// scanned many times, so exactness is affordable).
	Distinct int
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, schema *Schema) *Table {
	t := &Table{
		name:    name,
		schema:  schema,
		ints:    make(map[int][]int64),
		floats:  make(map[int][]float64),
		strings: make(map[int][]string),
		stats:   make(map[int]ColumnStats),
	}
	for i, c := range schema.Columns {
		switch c.Type {
		case Int64:
			t.ints[i] = nil
		case Float64:
			t.floats[i] = nil
		case String:
			t.strings[i] = nil
		}
	}
	return t
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.rows }

// ClusterInfo reports the clustering column the table was last sorted
// by and the length of the sorted prefix run; an unclustered table
// returns ("", 0). sortedRows < NumRows means appends have grown an
// unsorted tail beyond the clustered run.
func (t *Table) ClusterInfo() (column string, sortedRows int) {
	return t.clusterCol, t.sortedRows
}

// ClusterTail returns the number of rows appended after the last
// clustering pass (zero for unclustered or fully-sorted tables).
func (t *Table) ClusterTail() int {
	if t.clusterCol == "" {
		return 0
	}
	return t.rows - t.sortedRows
}

// AppendRow appends one row given values in schema order.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("data: table %s: append %d values into %d columns", t.name, len(vals), t.schema.Len())
	}
	for i, c := range t.schema.Columns {
		v := vals[i]
		switch c.Type {
		case Int64:
			if v.Kind == Float64 && v.F == math.Trunc(v.F) {
				v = IntValue(int64(v.F))
			}
			if v.Kind != Int64 {
				return fmt.Errorf("data: table %s column %s: expected BIGINT, got %s", t.name, c.Name, v.Kind)
			}
			t.ints[i] = append(t.ints[i], v.I)
		case Float64:
			if v.Kind == Int64 {
				v = FloatValue(float64(v.I))
			}
			if v.Kind != Float64 {
				return fmt.Errorf("data: table %s column %s: expected DOUBLE, got %s", t.name, c.Name, v.Kind)
			}
			t.floats[i] = append(t.floats[i], v.F)
		case String:
			if v.Kind != String {
				return fmt.Errorf("data: table %s column %s: expected TEXT, got %s", t.name, c.Name, v.Kind)
			}
			t.strings[i] = append(t.strings[i], v.S)
		}
	}
	t.rows++
	t.statsMu.Lock()
	t.stats = make(map[int]ColumnStats) // invalidate
	t.statsMu.Unlock()
	return nil
}

// Ints returns the int64 vector for a column ordinal. The returned slice
// must not be mutated.
func (t *Table) Ints(ordinal int) ([]int64, bool) {
	v, ok := t.ints[ordinal]
	return v, ok
}

// Floats returns the float64 vector for a column ordinal.
func (t *Table) Floats(ordinal int) ([]float64, bool) {
	v, ok := t.floats[ordinal]
	return v, ok
}

// Strings returns the string vector for a column ordinal.
func (t *Table) Strings(ordinal int) ([]string, bool) {
	v, ok := t.strings[ordinal]
	return v, ok
}

// NumericAt returns the numeric value at (row, ordinal) as float64.
// It is the executor's main accessor for predicate evaluation.
func (t *Table) NumericAt(row, ordinal int) (float64, error) {
	if iv, ok := t.ints[ordinal]; ok {
		return float64(iv[row]), nil
	}
	if fv, ok := t.floats[ordinal]; ok {
		return fv[row], nil
	}
	return 0, fmt.Errorf("data: table %s: column ordinal %d is not numeric", t.name, ordinal)
}

// NumericColumn materialises a float64 view of a numeric column. For
// Int64 columns this copies; for Float64 it returns the backing vector.
func (t *Table) NumericColumn(ordinal int) ([]float64, error) {
	if fv, ok := t.floats[ordinal]; ok {
		return fv, nil
	}
	if iv, ok := t.ints[ordinal]; ok {
		out := make([]float64, len(iv))
		for i, v := range iv {
			out[i] = float64(v)
		}
		return out, nil
	}
	return nil, fmt.Errorf("data: table %s: column ordinal %d is not numeric", t.name, ordinal)
}

// StringAt returns the string value at (row, ordinal).
func (t *Table) StringAt(row, ordinal int) (string, error) {
	if sv, ok := t.strings[ordinal]; ok {
		return sv[row], nil
	}
	return "", fmt.Errorf("data: table %s: column ordinal %d is not TEXT", t.name, ordinal)
}

// ValueAt returns the boxed value at (row, ordinal); used only at API
// boundaries (examples, CLI output).
func (t *Table) ValueAt(row, ordinal int) Value {
	if iv, ok := t.ints[ordinal]; ok {
		return IntValue(iv[row])
	}
	if fv, ok := t.floats[ordinal]; ok {
		return FloatValue(fv[row])
	}
	return StringValue(t.strings[ordinal][row])
}

// Stats returns min/max/distinct for a numeric column, computing and
// caching on first use. An empty table yields zero stats.
func (t *Table) Stats(ordinal int) (ColumnStats, error) {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if s, ok := t.stats[ordinal]; ok {
		return s, nil
	}
	col, err := t.NumericColumn(ordinal)
	if err != nil {
		return ColumnStats{}, err
	}
	s := ColumnStats{}
	if len(col) > 0 {
		s.Min, s.Max = math.Inf(1), math.Inf(-1)
		s.FiniteMin, s.FiniteMax = s.Min, s.Max
		seen := make(map[float64]struct{})
		for _, v := range col {
			if v < s.Min {
				s.Min = v
			}
			if v > s.Max {
				s.Max = v
			}
			if !math.IsInf(v, 0) {
				if v < s.FiniteMin {
					s.FiniteMin = v
				}
				if v > s.FiniteMax {
					s.FiniteMax = v
				}
			}
			seen[v] = struct{}{}
		}
		s.Distinct = len(seen)
	}
	t.stats[ordinal] = s
	return s, nil
}
