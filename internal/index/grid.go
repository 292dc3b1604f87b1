// Package index implements the multi-dimensional grid bitmap index of
// §7.4 of the paper: each indexed attribute is divided into equi-width
// parts, forming a grid over the table; each grid cell carries one bit,
// set iff some tuple falls in the cell. The Explore phase consults the
// index to decide whether a cell query is empty without executing it.
package index

import (
	"fmt"
	"math"
	"math/bits"

	"acquire/internal/data"
)

// maxCells caps the bitmap size (bits). 2^22 bits = 512 KiB.
const maxCells = 1 << 22

// MaxAggCells caps aggregate-augmented grids, which carry per-cell
// partials (8 B count + 4 B posting offset + 24 B per aggregate
// column) rather than one bit. 2^18 cells keeps the steady-state
// payload around 9 MiB/column and the transient build memory (one
// dense accumulator per build shard) under ~70 MiB at the cap; see
// DESIGN.md for the policy.
const MaxAggCells = 1 << 18

// buildShards is the fixed number of row shards of BuildAgg. It is a
// constant — not a function of the worker count — so the §2.6 shard
// merge tree, and therefore the float association of every per-cell
// SUM, depends only on the input, making the payload bit-identical
// across worker counts (the same trick as exec's fixed fold chunks).
const buildShards = 8

// cellAggs is the aggregate payload of an aggregate-augmented grid:
// per-cell COUNT plus SUM/MIN/MAX of each registered aggregate column,
// and a CSR posting list mapping each cell to its row ids.
type cellAggs struct {
	cols   []string    // aggregate column names, original case
	counts []int64     // [cell]
	sums   [][]float64 // [aggIdx][cell]
	mins   [][]float64
	maxs   [][]float64
	// postStart[c]..postStart[c+1] index postRows; postRows holds the
	// id of every row in a cell, grouped by cell, ascending within each.
	postStart []int32
	postRows  []int32
}

// Grid is an immutable equi-width grid bitmap over k numeric columns of
// one table, optionally augmented with per-cell aggregate partials and
// posting lists (BuildAgg).
type Grid struct {
	table   string
	columns []string
	mins    []float64
	widths  []float64 // bin width per dimension (0 for degenerate domains)
	bins    []int     // bins per dimension
	strides []int
	cells   int
	bits    []uint64
	aggs    *cellAggs // nil for plain bitmap grids
}

// newGrid builds the shared geometry (bin edges, strides, bitmap
// storage) and returns the indexed column vectors.
func newGrid(t *data.Table, columns []string, binsPerDim, cellCap int) (*Grid, [][]float64, error) {
	if len(columns) == 0 {
		return nil, nil, fmt.Errorf("index: no columns")
	}
	if binsPerDim < 1 {
		return nil, nil, fmt.Errorf("index: binsPerDim must be >= 1, got %d", binsPerDim)
	}
	total := 1
	for range columns {
		if total > cellCap/binsPerDim {
			return nil, nil, fmt.Errorf("index: grid of %d^%d cells exceeds cap", binsPerDim, len(columns))
		}
		total *= binsPerDim
	}

	g := &Grid{
		table:   t.Name(),
		columns: append([]string(nil), columns...),
		mins:    make([]float64, len(columns)),
		widths:  make([]float64, len(columns)),
		bins:    make([]int, len(columns)),
		strides: make([]int, len(columns)),
		cells:   total,
		bits:    make([]uint64, (total+63)/64),
	}

	vecs := make([][]float64, len(columns))
	for i, col := range columns {
		ord := t.Schema().Ordinal(col)
		if ord < 0 {
			return nil, nil, fmt.Errorf("index: table %s has no column %q", t.Name(), col)
		}
		vec, err := t.NumericColumn(ord)
		if err != nil {
			return nil, nil, err
		}
		stats, err := t.Stats(ord)
		if err != nil {
			return nil, nil, err
		}
		vecs[i] = vec
		g.mins[i] = stats.Min
		g.bins[i] = binsPerDim
		if stats.Max > stats.Min {
			g.widths[i] = (stats.Max - stats.Min) / float64(binsPerDim)
		}
	}
	stride := 1
	for i := len(columns) - 1; i >= 0; i-- {
		g.strides[i] = stride
		stride *= g.bins[i]
	}
	return g, vecs, nil
}

// Build constructs a grid over the named numeric columns with the given
// number of bins per dimension. A row with a NaN in any of the columns
// is in no cell (see cellOf).
func Build(t *data.Table, columns []string, binsPerDim int) (*Grid, error) {
	g, vecs, err := newGrid(t, columns, binsPerDim, maxCells)
	if err != nil {
		return nil, err
	}
	for row := 0; row < t.NumRows(); row++ {
		if cell := g.cellOf(vecs, row); cell >= 0 {
			g.bits[cell/64] |= 1 << (cell % 64)
		}
	}
	return g, nil
}

// cellOf returns the cell of one table row, or -1 when one of its grid
// values is NaN: a NaN select value lies outside every region, so such
// a row belongs to no cell — not to bin 0, where a float-to-int
// conversion of NaN would put it, and where a box kernel would merge it
// into regions it is not in.
func (g *Grid) cellOf(vecs [][]float64, row int) int {
	cell := 0
	for d, vec := range vecs {
		v := vec[row]
		if v != v {
			return -1
		}
		cell += g.binOf(d, v) * g.strides[d]
	}
	return cell
}

// Table returns the indexed table's name.
func (g *Grid) Table() string { return g.table }

// Columns returns the indexed column names in grid order.
func (g *Grid) Columns() []string { return append([]string(nil), g.columns...) }

func (g *Grid) binOf(dim int, v float64) int {
	if g.widths[dim] == 0 {
		return 0
	}
	b := int((v - g.mins[dim]) / g.widths[dim])
	if b < 0 {
		b = 0
	}
	if b >= g.bins[dim] {
		b = g.bins[dim] - 1
	}
	return b
}

// binRange returns the inclusive bin interval overlapping [lo, hi];
// ok=false when the value interval misses the domain entirely.
func (g *Grid) binRange(dim int, lo, hi float64) (int, int, bool) {
	if hi < lo {
		return 0, 0, false
	}
	domainMax := g.mins[dim] + g.widths[dim]*float64(g.bins[dim])
	if g.widths[dim] == 0 {
		// Degenerate domain: single value at mins[dim].
		if lo <= g.mins[dim] && g.mins[dim] <= hi {
			return 0, 0, true
		}
		return 0, 0, false
	}
	if hi < g.mins[dim] || lo > domainMax {
		return 0, 0, false
	}
	return g.binOf(dim, lo), g.binOf(dim, hi), true
}

// Interval is a closed value interval on one grid dimension.
type Interval struct {
	Lo, Hi float64
}

// AnyInBox reports whether any occupied grid cell intersects the box
// given by one closed interval per dimension (in grid column order).
// Unbounded sides are expressed with ±Inf. This is a conservative test:
// true may be a false positive at bin granularity, but false guarantees
// the region holds no tuples — exactly the §7.4 skip condition.
func (g *Grid) AnyInBox(box []Interval) (bool, error) {
	if len(box) != len(g.columns) {
		return false, fmt.Errorf("index: box has %d dims, grid has %d", len(box), len(g.columns))
	}
	los := make([]int, len(box))
	his := make([]int, len(box))
	for i, iv := range box {
		lo, hi := iv.Lo, iv.Hi
		if math.IsInf(lo, -1) {
			lo = g.mins[i]
		}
		if math.IsInf(hi, 1) {
			hi = g.mins[i] + g.widths[i]*float64(g.bins[i])
		}
		l, h, ok := g.binRange(i, lo, hi)
		if !ok {
			return false, nil
		}
		los[i], his[i] = l, h
	}
	// Walk the sub-box in odometer order.
	cur := make([]int, len(box))
	copy(cur, los)
	for {
		cell := 0
		for i, c := range cur {
			cell += c * g.strides[i]
		}
		if g.bits[cell/64]&(1<<(cell%64)) != 0 {
			return true, nil
		}
		i := len(cur) - 1
		for i >= 0 {
			cur[i]++
			if cur[i] <= his[i] {
				break
			}
			cur[i] = los[i]
			i--
		}
		if i < 0 {
			return false, nil
		}
	}
}

// OccupiedCells counts set bits; diagnostics and tests.
func (g *Grid) OccupiedCells() int {
	n := 0
	for _, w := range g.bits {
		n += bits.OnesCount64(w)
	}
	return n
}
