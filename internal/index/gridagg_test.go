package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"acquire/internal/data"
)

// buildAggTable builds a 3-column table: x, y index columns plus a v
// aggregate column.
func buildAggTable(t *testing.T, rows [][3]float64) *data.Table {
	t.Helper()
	tbl := data.NewTable("pts", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
		data.Column{Name: "v", Type: data.Float64},
	))
	for _, r := range rows {
		if err := tbl.AppendRow(data.FloatValue(r[0]), data.FloatValue(r[1]), data.FloatValue(r[2])); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func randAggRows(n int, seed int64) [][3]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][3]float64, n)
	for i := range rows {
		rows[i] = [3]float64{rng.Float64() * 1000, rng.Float64() * 1000, rng.NormFloat64() * 50}
	}
	return rows
}

func TestBuildAggValidation(t *testing.T) {
	tbl := buildAggTable(t, [][3]float64{{0, 0, 1}})
	if _, err := BuildAgg(tbl, nil, nil, 8, 1); err == nil {
		t.Error("no columns: expected error")
	}
	if _, err := BuildAgg(tbl, []string{"x"}, []string{"nope"}, 8, 1); err == nil {
		t.Error("unknown aggregate column: expected error")
	}
	if _, err := BuildAgg(tbl, []string{"x", "y"}, nil, 1<<10, 1); err == nil {
		t.Error("oversized agg grid: expected error")
	}
}

// TestBuildAggMatchesDirect checks the per-cell partials and posting
// lists against a direct serial recomputation from the rows.
func TestBuildAggMatchesDirect(t *testing.T) {
	rows := randAggRows(2000, 11)
	tbl := buildAggTable(t, rows)
	g, err := BuildAgg(tbl, []string{"x", "y"}, []string{"v"}, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ai := g.AggIndex("V") // case-insensitive
	if ai != 0 {
		t.Fatalf("AggIndex(V) = %d, want 0", ai)
	}

	nc := g.NumCells()
	counts := make([]int64, nc)
	sums := make([]float64, nc)
	mins := make([]float64, nc)
	maxs := make([]float64, nc)
	post := make([][]int32, nc)
	for c := range mins {
		mins[c], maxs[c] = math.Inf(1), math.Inf(-1)
	}
	for row, r := range rows {
		cell := g.binOf(0, r[0])*g.strides[0] + g.binOf(1, r[1])*g.strides[1]
		counts[cell]++
		sums[cell] += r[2]
		mins[cell] = math.Min(mins[cell], r[2])
		maxs[cell] = math.Max(maxs[cell], r[2])
		post[cell] = append(post[cell], int32(row))
	}

	totalPost := 0
	for c := 0; c < nc; c++ {
		if g.CellCount(c) != counts[c] {
			t.Fatalf("cell %d: count %d, want %d", c, g.CellCount(c), counts[c])
		}
		sum, mn, mx := g.CellAgg(0, c)
		if mn != mins[c] || mx != maxs[c] {
			t.Fatalf("cell %d: min/max %v/%v, want %v/%v", c, mn, mx, mins[c], maxs[c])
		}
		if math.Abs(sum-sums[c]) > 1e-9*(1+math.Abs(sums[c])) {
			t.Fatalf("cell %d: sum %v, want %v", c, sum, sums[c])
		}
		pl := g.PostingList(c)
		totalPost += len(pl)
		if int64(len(pl)) != counts[c] {
			t.Fatalf("cell %d: posting list len %d, want %d", c, len(pl), counts[c])
		}
		for i, r := range pl {
			if r != post[c][i] {
				t.Fatalf("cell %d: posting list %v, want %v", c, pl, post[c])
			}
			if i > 0 && pl[i] <= pl[i-1] {
				t.Fatalf("cell %d: posting list not ascending: %v", c, pl)
			}
		}
		// Occupancy bit consistent with count.
		bit := g.bits[c/64]&(1<<(c%64)) != 0
		if bit != (counts[c] > 0) {
			t.Fatalf("cell %d: bit %v, count %d", c, bit, counts[c])
		}
	}
	if totalPost != len(rows) {
		t.Fatalf("posting lists cover %d rows, want %d", totalPost, len(rows))
	}
	if g.AggBytes() == 0 {
		t.Error("AggBytes = 0 for aggregate grid")
	}

	// Signed zeros: over a ±0 aggregate column a cell's stored min and
	// max must have the same bits whatever the row order, with −0 the
	// min and +0 the max of every cell that holds both.
	zrng := rand.New(rand.NewSource(12))
	fwd := make([][3]float64, len(rows))
	rev := make([][3]float64, len(rows))
	for i, r := range rows {
		fwd[i] = [3]float64{r[0], r[1], math.Copysign(0, float64(zrng.Intn(2)*2-1))}
		rev[len(rows)-1-i] = fwd[i]
	}
	gf, err := BuildAgg(buildAggTable(t, fwd), []string{"x", "y"}, []string{"v"}, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := BuildAgg(buildAggTable(t, rev), []string{"x", "y"}, []string{"v"}, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := make([]bool, nc), make([]bool, nc)
	for _, r := range fwd {
		cell := gf.binOf(0, r[0])*gf.strides[0] + gf.binOf(1, r[1])*gf.strides[1]
		if math.Signbit(r[2]) {
			neg[cell] = true
		} else {
			pos[cell] = true
		}
	}
	mixed := 0
	for c := 0; c < nc; c++ {
		_, fmn, fmx := gf.CellAgg(0, c)
		_, rmn, rmx := gr.CellAgg(0, c)
		if math.Float64bits(fmn) != math.Float64bits(rmn) || math.Float64bits(fmx) != math.Float64bits(rmx) {
			t.Fatalf("cell %d: forward min/max %v/%v, reversed %v/%v", c, fmn, fmx, rmn, rmx)
		}
		if neg[c] && pos[c] {
			mixed++
			if !math.Signbit(fmn) || math.Signbit(fmx) {
				t.Fatalf("cell %d holds −0 and +0: min/max %v/%v, want -0/0", c, fmn, fmx)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no cell holds both signed zeros")
	}
}

// TestBuildAggDeterministic: the payload — including every float SUM —
// must be bit-identical across worker counts (§2.6 fixed shard merge).
func TestBuildAggDeterministic(t *testing.T) {
	rows := randAggRows(5000, 23)
	tbl := buildAggTable(t, rows)
	var ref *cellAggs
	for _, workers := range []int{1, 2, 4, 8, 16} {
		g, err := BuildAgg(tbl, []string{"x", "y"}, []string{"v"}, 24, workers)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = g.aggs
			continue
		}
		if !reflect.DeepEqual(ref, g.aggs) {
			t.Fatalf("workers=%d: payload differs from workers=1 build", workers)
		}
	}
}

func TestBinSpanConservative(t *testing.T) {
	rows := randAggRows(3000, 5)
	tbl := buildAggTable(t, rows)
	g, err := BuildAgg(tbl, []string{"x", "y"}, nil, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every row's value must lie inside the padded span of its own bin.
	for _, r := range rows {
		for d, v := range []float64{r[0], r[1]} {
			b := g.binOf(d, v)
			lo, hi := g.BinSpan(d, b)
			if v < lo || v > hi {
				t.Fatalf("dim %d: value %v outside BinSpan(%d) = [%v, %v]", d, v, b, lo, hi)
			}
		}
	}
	// Exported BinRange mirrors the internal one.
	l, h, ok := g.BinRange(0, 100, 200)
	l2, h2, ok2 := g.binRange(0, 100, 200)
	if l != l2 || h != h2 || ok != ok2 {
		t.Fatal("BinRange disagrees with binRange")
	}
}

func TestBinsForRows(t *testing.T) {
	cases := []struct{ dims, rows, min, max int }{
		{1, 100, 2, 64},
		{3, 100000, 2, 64},
		{0, 1000, 2, 2},
		{5, 10, 2, 2},
		{2, 100000000, 2, 64},
	}
	for _, c := range cases {
		got := BinsForRows(c.dims, c.rows)
		if got < c.min || got > c.max {
			t.Errorf("BinsForRows(%d, %d) = %d, want in [%d, %d]", c.dims, c.rows, got, c.min, c.max)
		}
		if c.dims >= 1 && pow(got, c.dims) > MaxAggCells {
			t.Errorf("BinsForRows(%d, %d) = %d exceeds MaxAggCells", c.dims, c.rows, got)
		}
	}
}
