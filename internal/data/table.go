package data

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Table is an immutable-after-load, append-only columnar table. Numeric
// columns are stored as dense vectors so the executor can scan without
// per-cell allocation; string columns are dictionary-free plain slices
// (categorical cardinalities in our workloads are tiny).
//
// A table has a generation (Gen), unique across the process: a new table
// gets a fresh one and every AppendRow and Touch moves it, so a catalog
// Replace always changes the generation a name resolves to. Everything
// derived from the columns — the float view of an Int64 column, Stats,
// and the state packages above keep through Derived — lives in a memo of
// one generation and is built at most once per generation. That is the
// one staleness rule: state of an old generation is never served. The
// table cannot see a rewrite of a vector Ints or Floats returned; whoever
// rewrites one in place calls Touch before the next read.
type Table struct {
	name   string
	schema *Schema
	rows   int

	ints    map[int][]int64   // ordinal -> vector
	floats  map[int][]float64 // ordinal -> vector
	strings map[int][]string  // ordinal -> vector

	gen  atomic.Uint64
	memo atomic.Pointer[tableMemo] // derived.go
}

// genSeq hands out generations; one counter for every table makes them
// unique across the process.
var genSeq atomic.Uint64

// Gen returns the table's generation: equal generations mean the same
// table with the same contents.
func (t *Table) Gen() uint64 { return t.gen.Load() }

// Touch moves the table to a fresh generation, retiring everything derived
// from its columns. Call it after rewriting a column vector in place, the
// one change the table cannot see; appends move the generation themselves.
func (t *Table) Touch() { t.gen.Store(genSeq.Add(1)) }

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
	}
	t.Touch()
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

// AppendRow appends one row given values in schema order. It is
// all-or-nothing: every value is checked before any column grows, so a
// rejected row leaves the table, its generation included, as it was.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != t.schema.Len() {
		return fmt.Errorf("data: table %s: append %d values into %d columns", t.name, len(vals), t.schema.Len())
	}
	for i, c := range t.schema.Columns {
		if v := vals[i]; !fits(c.Type, v) {
			return fmt.Errorf("data: table %s column %s: expected %s, got %s %v", t.name, c.Name, c.Type, v.Kind, v)
		}
	}
	for i, c := range t.schema.Columns {
		v := vals[i]
		switch c.Type {
		case Int64:
			if v.Kind == Float64 {
				v.I = int64(v.F)
			}
			t.ints[i] = append(t.ints[i], v.I)
		case Float64:
			if v.Kind == Int64 {
				v.F = float64(v.I)
			}
			t.floats[i] = append(t.floats[i], v.F)
		case String:
			t.strings[i] = append(t.strings[i], v.S)
		}
	}
	t.rows++
	t.Touch()
	return nil
}

// fits reports whether v can be stored in a column of type k: a BIGINT
// widens to DOUBLE, and a DOUBLE narrows to BIGINT only when it is an
// integer inside the int64 range (so ±Inf, NaN and 1e30 are rejected,
// not wrapped).
func fits(k Type, v Value) bool {
	switch {
	case v.Kind == k:
		return true
	case k == Float64:
		return v.Kind == Int64
	case k == Int64 && v.Kind == Float64:
		return v.F == math.Trunc(v.F) && v.F >= -(1<<63) && v.F < 1<<63
	}
	return false
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

// NumericColumn returns a float64 view of a numeric column: a Float64
// column's backing vector, or for an Int64 column a copy built once per
// generation and shared by every caller. The returned slice must not be
// mutated.
func (t *Table) NumericColumn(ordinal int) ([]float64, error) {
	if fv, ok := t.floats[ordinal]; ok {
		return fv, nil
	}
	iv, ok := t.ints[ordinal]
	if !ok {
		return nil, fmt.Errorf("data: table %s: column ordinal %d is not numeric", t.name, ordinal)
	}
	return t.colMemo(ordinal).view.get(func() ([]float64, error) {
		out := make([]float64, len(iv))
		for i, v := range iv {
			out[i] = float64(v)
		}
		return out, nil
	})
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

// Stats returns min/max/distinct for a numeric column, computed once per
// generation; ACQUIRE needs attribute domains to anchor predicate
// intervals (§2.2: "if the minimum value of B.y is 0 ..."). An empty
// table yields zero stats.
func (t *Table) Stats(ordinal int) (ColumnStats, error) {
	if fv, ok := t.floats[ordinal]; ok {
		return t.colMemo(ordinal).stats.get(func() (ColumnStats, error) { return columnStats(fv), nil })
	}
	if iv, ok := t.ints[ordinal]; ok {
		// From the integers: a float view built only for stats would stay
		// in the memo for the generation.
		return t.colMemo(ordinal).stats.get(func() (ColumnStats, error) { return columnStats(iv), nil })
	}
	return ColumnStats{}, fmt.Errorf("data: table %s: column ordinal %d is not numeric", t.name, ordinal)
}

func columnStats[T int64 | float64](col []T) ColumnStats {
	s := ColumnStats{}
	if len(col) == 0 {
		return s
	}
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	s.FiniteMin, s.FiniteMax = s.Min, s.Max
	seen := make(map[float64]struct{})
	for _, x := range col {
		v := float64(x)
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
	return s
}
