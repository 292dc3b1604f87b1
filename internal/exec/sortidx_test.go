package exec

import (
	"math"
	"testing"

	"acquire/internal/data"
)

// sortedFrom builds a sortedIdx directly from an already-sorted value
// slice, with row ids equal to sort positions.
func sortedFrom(vals ...float64) *sortedIdx {
	ix := &sortedIdx{vals: vals, rows: make([]int32, len(vals))}
	for i := range ix.rows {
		ix.rows[i] = int32(i)
	}
	return ix
}

func TestRangeSizeEdgeCases(t *testing.T) {
	empty := sortedFrom()
	uniform := sortedFrom(5, 5, 5, 5) // degenerate all-equal column
	normal := sortedFrom(1, 2, 3, 4, 5, 6)

	cases := []struct {
		name   string
		ix     *sortedIdx
		lo, hi float64
		want   int
	}{
		{"empty index", empty, 0, 10, 0},
		{"empty index reversed", empty, 10, 0, 0},
		{"reversed bounds", normal, 4, 2, 0},
		{"below domain", normal, -5, 0, 0},
		{"above domain", normal, 7, 100, 0},
		{"full cover", normal, 0, 10, 6},
		{"inclusive endpoints", normal, 2, 4, 3},
		{"single value hit", normal, 3, 3, 1},
		{"single value miss", normal, 2.5, 2.6, 0},
		{"all-equal hit", uniform, 5, 5, 4},
		{"all-equal cover", uniform, 0, 10, 4},
		{"all-equal below", uniform, 0, 4.9, 0},
		{"all-equal above", uniform, 5.1, 10, 0},
		{"all-equal reversed", uniform, 5, 4, 0},
		{"unbounded", normal, math.Inf(-1), math.Inf(1), 6},
	}
	for _, c := range cases {
		// An empty range is an empty slab (a == b), never a reversed one.
		if a, b := c.ix.slab(c.lo, c.hi); b-a != c.want {
			t.Errorf("%s: slab(%v, %v) = [%d, %d), want %d rows", c.name, c.lo, c.hi, a, b, c.want)
		}
	}
}

func TestRangeRowsContents(t *testing.T) {
	// Duplicated values: every duplicate's row id must be returned.
	ix := &sortedIdx{
		vals: []float64{1, 2, 2, 2, 3},
		rows: []int32{4, 0, 2, 3, 1},
	}
	rangeRows := func(lo, hi float64) []int32 {
		a, b := ix.slab(lo, hi)
		return ix.rows[a:b]
	}
	got := rangeRows(2, 2)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 3 {
		t.Errorf("rows in [2,2] = %v, want [0 2 3]", got)
	}
	// Boundary behavior: [lo, hi] is closed on both sides.
	if got := rangeRows(2, 3); len(got) != 4 {
		t.Errorf("rows in [2,3] = %v, want 4 rows", got)
	}
	if got := rangeRows(1, 1.5); len(got) != 1 || got[0] != 4 {
		t.Errorf("rows in [1,1.5] = %v, want [4]", got)
	}
}

// TestSortedIndexSkipsNaN builds the index over a NaN-bearing column:
// NaN has no place in a `<` sort order, so a NaN left among the values
// would make the range searches miss rows. Every range must return
// exactly the rows a linear scan finds.
func TestSortedIndexSkipsNaN(t *testing.T) {
	vals := []float64{10, math.Inf(1), 63, math.Inf(1), 31, 96, 16, 25, 52, math.NaN(), 19, 86, 63, math.NaN(), 61, math.Inf(-1)}
	cat := data.NewCatalog()
	tbl := data.NewTable("t", data.MustSchema(data.Column{Name: "v", Type: data.Float64}))
	for _, v := range vals {
		if err := tbl.AppendRow(data.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	ix, err := sortedIndex(tbl, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []float64{math.Inf(-1), 0, 19, 50, 63, 86.5, 100, math.Inf(1)}
	for _, lo := range bounds {
		for _, hi := range bounds {
			want := map[int32]bool{}
			for r, v := range vals {
				if v >= lo && v <= hi {
					want[int32(r)] = true
				}
			}
			a, b := ix.slab(lo, hi)
			got := ix.rows[a:b]
			if len(got) != len(want) {
				t.Fatalf("[%v, %v]: %d rows, want %d", lo, hi, len(got), len(want))
			}
			for _, r := range got {
				if !want[r] {
					t.Fatalf("[%v, %v]: row %d (value %v) is out of range", lo, hi, r, vals[r])
				}
			}
		}
	}
}
