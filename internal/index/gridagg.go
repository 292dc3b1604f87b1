package index

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"acquire/internal/agg"
	"acquire/internal/data"
)

// shardAcc is one build shard's dense accumulator: the partial
// aggregate of the shard's rows per cell. Shards are disjoint row
// ranges, so merging them cell-wise by the §2.6 rule (counts and sums
// add, mins/maxs fold) reconstructs the whole-table partials exactly.
type shardAcc struct {
	counts []int32
	sums   [][]float64
	mins   [][]float64
	maxs   [][]float64
}

// BuildAgg constructs an aggregate-augmented grid: the §7.4 occupancy
// bitmap of Build, plus per-cell COUNT, per-cell SUM/MIN/MAX of each
// aggCols column, and a CSR posting list of row ids per cell. As in
// Build, a row with a NaN grid value is in no cell, so it is in no
// partial and no posting list either.
//
// The build is row-partitioned: the table is cut into buildShards
// fixed contiguous row ranges, workers accumulate one dense partial
// grid per shard concurrently, and the shards are merged in shard
// order by the §2.6 merge rule. Fixed shard boundaries and a fixed
// merge order make the payload — including the float association of
// every per-cell SUM — bit-identical for any worker count.
//
// The cell budget is MaxAggCells (smaller than the bitmap's cap: each
// cell costs bytes here, one bit there).
func BuildAgg(t *data.Table, columns, aggCols []string, binsPerDim, workers int) (*Grid, error) {
	g, vecs, err := newGrid(t, columns, binsPerDim, MaxAggCells)
	if err != nil {
		return nil, err
	}
	aggVecs := make([][]float64, len(aggCols))
	for i, col := range aggCols {
		ord := t.Schema().Ordinal(col)
		if ord < 0 {
			return nil, fmt.Errorf("index: table %s has no aggregate column %q", t.Name(), col)
		}
		if aggVecs[i], err = t.NumericColumn(ord); err != nil {
			return nil, err
		}
	}

	n := t.NumRows()
	nc := g.cells
	na := len(aggCols)
	rowCell := make([]int32, n)

	// Shard boundaries are a function of n alone (near-equal contiguous
	// ranges); workers only decide how many shards run concurrently.
	type span struct{ lo, hi int }
	shards := make([]span, 0, buildShards)
	for s := 0; s < buildShards; s++ {
		lo, hi := s*n/buildShards, (s+1)*n/buildShards
		if hi > lo {
			shards = append(shards, span{lo, hi})
		}
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	accs := make([]*shardAcc, len(shards))
	runShard := func(si int) {
		acc := &shardAcc{
			counts: make([]int32, nc),
			sums:   make([][]float64, na),
			mins:   make([][]float64, na),
			maxs:   make([][]float64, na),
		}
		for a := 0; a < na; a++ {
			acc.sums[a] = make([]float64, nc)
			acc.mins[a] = make([]float64, nc)
			acc.maxs[a] = make([]float64, nc)
			for c := range acc.mins[a] {
				acc.mins[a][c] = math.Inf(1)
				acc.maxs[a][c] = math.Inf(-1)
			}
		}
		for row := shards[si].lo; row < shards[si].hi; row++ {
			cell := g.cellOf(vecs, row)
			rowCell[row] = int32(cell)
			if cell < 0 {
				continue
			}
			acc.counts[cell]++
			for a := 0; a < na; a++ {
				v := aggVecs[a][row]
				acc.sums[a][cell] += v
				acc.mins[a][cell] = agg.FoldMin(acc.mins[a][cell], v)
				acc.maxs[a][cell] = agg.FoldMax(acc.maxs[a][cell], v)
			}
		}
		accs[si] = acc
	}
	if workers <= 1 {
		for si := range shards {
			runShard(si)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					si := int(next.Add(1)) - 1
					if si >= len(shards) {
						return
					}
					runShard(si)
				}
			}()
		}
		wg.Wait()
	}

	// Merge shards in shard order (§2.6: counts/sums add, mins/maxs
	// fold) into the global payload.
	aggs := &cellAggs{
		cols:      append([]string(nil), aggCols...),
		counts:    make([]int64, nc),
		sums:      make([][]float64, na),
		mins:      make([][]float64, na),
		maxs:      make([][]float64, na),
		postStart: make([]int32, nc+1),
	}
	for a := 0; a < na; a++ {
		aggs.sums[a] = make([]float64, nc)
		aggs.mins[a] = make([]float64, nc)
		aggs.maxs[a] = make([]float64, nc)
		for c := range aggs.mins[a] {
			aggs.mins[a][c] = math.Inf(1)
			aggs.maxs[a][c] = math.Inf(-1)
		}
	}
	for _, acc := range accs {
		for c, cnt := range acc.counts {
			if cnt == 0 {
				continue
			}
			aggs.counts[c] += int64(cnt)
			for a := 0; a < na; a++ {
				aggs.sums[a][c] += acc.sums[a][c]
				aggs.mins[a][c] = agg.FoldMin(aggs.mins[a][c], acc.mins[a][c])
				aggs.maxs[a][c] = agg.FoldMax(aggs.maxs[a][c], acc.maxs[a][c])
			}
		}
	}

	// CSR posting lists: prefix-sum the counts into start offsets, then
	// one counting-sort pass over the precomputed row cells. The pass is
	// serial (it is a cheap array shuffle next to the aggregation above)
	// and ascending row order keeps each cell's posting list sorted.
	run := int32(0)
	for c := 0; c < nc; c++ {
		aggs.postStart[c] = run
		run += int32(aggs.counts[c])
	}
	aggs.postStart[nc] = run
	aggs.postRows = make([]int32, run)
	cursor := make([]int32, nc)
	copy(cursor, aggs.postStart[:nc])
	for row := 0; row < n; row++ {
		if c := rowCell[row]; c >= 0 {
			aggs.postRows[cursor[c]] = int32(row)
			cursor[c]++
		}
	}

	// Occupancy bits, so AnyInBox and the §7.4 skip path work unchanged.
	for c := 0; c < nc; c++ {
		if aggs.counts[c] > 0 {
			g.bits[c/64] |= 1 << (c % 64)
		}
	}
	g.aggs = aggs
	return g, nil
}

// BinsForRows suggests a per-dimension bin count for an aggregate grid
// over a table of `rows` rows: cells ≈ rows/4, so posting lists
// average a few rows and box walks touch far fewer cells than rows,
// clamped to [2, 64] per dimension and to the MaxAggCells budget.
func BinsForRows(dims, rows int) int {
	if dims < 1 {
		return 2
	}
	bins := int(math.Pow(float64(rows)/4, 1/float64(dims)))
	if bins > 64 {
		bins = 64
	}
	for bins > 2 && pow(bins, dims) > MaxAggCells {
		bins--
	}
	if bins < 2 {
		bins = 2
	}
	return bins
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		if out > MaxAggCells {
			return out
		}
		out *= b
	}
	return out
}

// HasAggs reports whether the grid carries the aggregate payload.
func (g *Grid) HasAggs() bool { return g.aggs != nil }

// AggIndex resolves an aggregate column name (case-insensitive) to its
// payload index, or -1 when the column is not materialized.
func (g *Grid) AggIndex(col string) int {
	if g.aggs == nil {
		return -1
	}
	for i, c := range g.aggs.cols {
		if strings.EqualFold(c, col) {
			return i
		}
	}
	return -1
}

// NumCells returns the total cell count of the grid.
func (g *Grid) NumCells() int { return g.cells }

// Bins returns the bin count of one dimension.
func (g *Grid) Bins(dim int) int { return g.bins[dim] }

// Stride returns the cell-id stride of one dimension.
func (g *Grid) Stride(dim int) int { return g.strides[dim] }

// BinRange is the exported form of binRange: the inclusive bin
// interval of dimension dim overlapping the closed value interval
// [lo, hi]; ok=false when the interval misses the domain entirely.
// Unbounded sides (±Inf) clamp to the domain edges, as in AnyInBox.
func (g *Grid) BinRange(dim int, lo, hi float64) (int, int, bool) {
	if math.IsInf(lo, -1) {
		lo = g.mins[dim]
	}
	if math.IsInf(hi, 1) {
		hi = g.mins[dim] + g.widths[dim]*float64(g.bins[dim])
	}
	return g.binRange(dim, lo, hi)
}

// BinSpan returns a conservative closed value span of one bin: every
// row the build placed in the bin has its value inside the span. The
// span is the bin's nominal [min + b·w, min + (b+1)·w] widened by a
// relative pad absorbing the float rounding of binOf's division —
// widening can only demote interior cells to boundary cells, never the
// (unsafe) reverse.
func (g *Grid) BinSpan(dim, bin int) (lo, hi float64) {
	w := g.widths[dim]
	if w == 0 {
		return g.mins[dim], g.mins[dim]
	}
	lo = g.mins[dim] + w*float64(bin)
	hi = g.mins[dim] + w*float64(bin+1)
	pad := 1e-9 * (w + math.Abs(lo) + math.Abs(hi))
	return lo - pad, hi + pad
}

// CellCount returns the row count of one cell (0 for plain grids).
func (g *Grid) CellCount(cell int) int64 {
	if g.aggs == nil {
		return 0
	}
	return g.aggs.counts[cell]
}

// CellAgg returns the stored SUM/MIN/MAX partial of aggregate column
// aggIdx over one cell. Empty cells report (0, +Inf, -Inf) — the
// merge identity.
func (g *Grid) CellAgg(aggIdx, cell int) (sum, min, max float64) {
	a := g.aggs
	return a.sums[aggIdx][cell], a.mins[aggIdx][cell], a.maxs[aggIdx][cell]
}

// PostingList returns the row ids of one cell, ascending. The slice
// aliases the index; callers must not mutate it.
func (g *Grid) PostingList(cell int) []int32 {
	a := g.aggs
	return a.postRows[a.postStart[cell]:a.postStart[cell+1]]
}

// AggBytes reports the aggregate payload's steady-state size in bytes;
// diagnostics and benchmarks.
func (g *Grid) AggBytes() int {
	a := g.aggs
	if a == nil {
		return 0
	}
	b := 8*len(a.counts) + 4*len(a.postStart) + 4*len(a.postRows)
	for i := range a.sums {
		b += 8 * (len(a.sums[i]) + len(a.mins[i]) + len(a.maxs[i]))
	}
	return b
}
