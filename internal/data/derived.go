package data

import "sync"

// Slot names one kind of state a package above data derives from a
// column and keeps in the table's memo: exec's sorted index and zone map.
// The values stay that package's own types.
type Slot int

const (
	SortedIndex Slot = iota
	ZoneMap
	numSlots
)

// tableMemo is the derived state of one generation, per column ordinal.
type tableMemo struct {
	gen  uint64
	cols []colMemo
}

type colMemo struct {
	view  lazy[[]float64] // an Int64 column's float view
	stats lazy[ColumnStats]
	slots [numSlots]lazy[any]
}

// lazy is a value built once, by its first caller, and shared with every
// caller after it, concurrent ones included.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}

// colMemo returns column ord's memo of the current generation, starting
// a fresh memo when the generation has moved.
func (t *Table) colMemo(ord int) *colMemo {
	gen := t.gen.Load()
	for {
		m := t.memo.Load()
		if m != nil && m.gen == gen {
			return &m.cols[ord]
		}
		if t.memo.CompareAndSwap(m, &tableMemo{gen: gen, cols: make([]colMemo, t.schema.Len())}) {
			continue
		}
	}
}

// Derived returns the value build makes from the float view of numeric
// column ord, built once per generation: every caller of one generation,
// whichever engine it serves, shares the first caller's value, and a new
// generation builds afresh. The lookup allocates nothing once the value
// is built.
func Derived[T any](t *Table, ord int, slot Slot, build func(vec []float64) (*T, error)) (*T, error) {
	vec, err := t.NumericColumn(ord)
	if err != nil {
		return nil, err
	}
	v, err := t.colMemo(ord).slots[slot].get(func() (any, error) { return build(vec) })
	if err != nil {
		return nil, err
	}
	return v.(*T), nil
}
