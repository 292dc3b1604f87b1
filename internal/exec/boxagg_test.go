package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/index"
	"acquire/internal/relq"
	"acquire/internal/tpch"
)

// usersQuery builds a single-table users ACQ with the given dims and
// constraint spec.
func usersQuery(f relq.AggFunc, attr string, dims ...relq.Dimension) *relq.Query {
	c := relq.Constraint{Func: f, Op: relq.CmpEQ, Target: 1}
	if attr != "" {
		c.Attr = relq.ColumnRef{Table: "users", Column: attr}
	}
	return &relq.Query{Tables: []string{"users"}, Dims: dims, Constraint: c}
}

func usersDims() []relq.Dimension {
	return []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "users", Column: "distance"}, Bound: 60, Width: 100},
	}
}

// TestBoxKernelMatchesScan is the property test of the box-aggregate
// kernel: across randomized regions and COUNT/SUM/MIN/MAX constraints,
// an engine answering through the aggregate grid must agree with a
// grid-less engine running the scan path — COUNT partials bit for bit,
// SUM within float re-association tolerance (the kernel merges
// cell-order partials, the scan folds row chunks).
func TestBoxKernelMatchesScan(t *testing.T) {
	const rows = 5000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	cols := []string{"age", "income", "distance"}
	if err := kern.BuildGridAggIndex("users", cols, []string{"spend"}, index.BinsForRows(3, rows)); err != nil {
		t.Fatal(err)
	}

	dims := usersDims()
	queries := []*relq.Query{
		usersQuery(relq.AggCount, "", dims...),
		usersQuery(relq.AggSum, "spend", dims...),
		usersQuery(relq.AggMin, "spend", dims...),
		usersQuery(relq.AggMax, "spend", dims...),
	}

	rng := rand.New(rand.NewSource(99))
	randRegion := func() relq.Region {
		r := make(relq.Region, len(dims))
		for i := range r {
			hi := rng.Float64() * 80
			if rng.Intn(2) == 0 {
				r[i] = relq.ViolInterval{Lo: -1, Hi: hi} // prefix
			} else {
				r[i] = relq.ViolInterval{Lo: hi * rng.Float64(), Hi: hi} // cell-style band
			}
		}
		return r
	}

	before := kern.Snapshot()
	nonzero := 0
	for trial := 0; trial < 120; trial++ {
		region := randRegion()
		for _, q := range queries {
			want, err := scan.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			got, err := kern.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count || got.Min != want.Min || got.Max != want.Max {
				t.Fatalf("trial %d %v region %v:\nkernel %+v\nscan   %+v",
					trial, q.Constraint.Func, region, got, want)
			}
			if !agg.ApproxEqual(got, want, 1e-9) {
				t.Fatalf("trial %d %v region %v: sum diverged\nkernel %+v\nscan   %+v",
					trial, q.Constraint.Func, region, got, want)
			}
			if q.Constraint.Func == relq.AggCount && got.Sum != want.Sum {
				t.Fatalf("trial %d COUNT sum not bit-identical: %v vs %v", trial, got.Sum, want.Sum)
			}
			spec, err := agg.SpecFor(q.Constraint)
			if err != nil {
				t.Fatal(err)
			}
			gf, wf := spec.Final(got), spec.Final(want)
			if gf != wf && !(math.IsNaN(gf) && math.IsNaN(wf)) &&
				math.Abs(gf-wf) > 1e-9*(1+math.Abs(wf)) {
				t.Fatalf("trial %d: Final %v vs %v", trial, gf, wf)
			}
			if want.Count > 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("property test never produced a non-empty region — workload bug")
	}
	d := kern.Snapshot().Sub(before)
	if d.CellsMerged == 0 {
		t.Errorf("kernel never merged interior cells (CellsMerged = 0)")
	}
	if d.BoundaryRows == 0 {
		t.Errorf("kernel never scanned boundary rows (BoundaryRows = 0)")
	}
	if ds := scan.Snapshot(); ds.CellsMerged != 0 || ds.BoundaryRows != 0 {
		t.Errorf("grid-less engine used the kernel: %+v", ds)
	}
}

// TestBoxKernelSelectEQ covers the V-shaped kind: a single band
// (Lo <= 0) is kernel-eligible; a split band (Lo > 0) falls back to the
// scan path. Both must agree with the grid-less engine.
func TestBoxKernelSelectEQ(t *testing.T) {
	const rows = 3000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	if err := kern.BuildGridAggIndex("users", []string{"age", "income"}, nil, 40); err != nil {
		t.Fatal(err)
	}
	q := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 45, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 100000, Width: 180000},
	)

	single := relq.Region{{Lo: -1, Hi: 30}, {Lo: -1, Hi: 20}}
	split := relq.Region{{Lo: 10, Hi: 30}, {Lo: -1, Hi: 20}}
	for name, region := range map[string]relq.Region{"single-band": single, "split-band": split} {
		want, err := scan.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		before := kern.Snapshot()
		got, err := kern.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("%s: count %d, want %d", name, got.Count, want.Count)
		}
		d := kern.Snapshot().Sub(before)
		engaged := d.CellsMerged+d.BoundaryRows > 0
		if name == "split-band" && engaged {
			t.Errorf("split SelectEQ band must fall back to the scan path, got %+v", d)
		}
	}
}

// TestBoxKernelFallback: joins, UDAs, fixed predicates and unindexed
// dimensions must bypass the kernel and still return scan-path results.
func TestBoxKernelFallback(t *testing.T) {
	const rows = 2000
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scan := New(cat)
	kern := New(cat)
	if err := kern.BuildGridAggIndex("users", []string{"age", "income"}, nil, 32); err != nil {
		t.Fatal(err)
	}
	region := relq.Region{{Lo: -1, Hi: 25}, {Lo: -1, Hi: 25}}

	fixed := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
	)
	fixed.Fixed = []relq.FixedPred{{
		Kind:   relq.FixedStringIn,
		Col:    relq.ColumnRef{Table: "users", Column: "gender"},
		Values: []string{"Women"},
	}}
	unindexed := usersQuery(relq.AggCount, "",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "sessions"}, Bound: 20, Width: 50},
	)
	aggUnindexed := usersQuery(relq.AggSum, "spend",
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "age"}, Bound: 40, Width: 62},
		relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "users", Column: "income"}, Bound: 80000, Width: 180000},
	) // spend not materialized in this grid

	for name, q := range map[string]*relq.Query{
		"fixed-pred": fixed, "unindexed-dim": unindexed, "unmaterialized-agg": aggUnindexed,
	} {
		want, err := scan.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		before := kern.Snapshot()
		got, err := kern.Aggregate(q, region)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: kernel-engine %+v, scan-engine %+v", name, got, want)
		}
		if d := kern.Snapshot().Sub(before); d.CellsMerged != 0 || d.BoundaryRows != 0 {
			t.Errorf("%s: kernel engaged on ineligible query: %+v", name, d)
		}
	}
}

// TestBuildGridAggIdempotent: rebuilding with the same shape keeps the
// registered grid; a different shape replaces it.
func TestBuildGridAggIdempotent(t *testing.T) {
	cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	if err := e.BuildGridAggIndex("users", []string{"age", "income"}, []string{"spend"}, 16); err != nil {
		t.Fatal(err)
	}
	g1 := e.grid("users")
	if err := e.BuildGridAggIndex("users", []string{"AGE", "Income"}, []string{"SPEND"}, 16); err != nil {
		t.Fatal(err)
	}
	if e.grid("users") != g1 {
		t.Error("same-shape rebuild replaced the grid")
	}
	if err := e.BuildGridAggIndex("users", []string{"age"}, nil, 16); err != nil {
		t.Fatal(err)
	}
	if e.grid("users") == g1 {
		t.Error("different-shape rebuild kept the old grid")
	}
}

// TestBoundaryZoneSkip covers the zone-consulting boundary-cell walk:
// on a clustered layout, a boundary cell's posting list is cut into
// per-block runs and runs whose blocks provably miss the pruned value
// hull are skipped outright. The walk must gather strictly fewer rows
// than the posting lists of the cells the region cuts through hold
// (the saving BlocksSkipped accounts for), while every partial agrees
// with the oracle — the per-row keep test enforces both interval sides,
// so a skipped run can only hold rows the filter would reject anyway.
func TestBoundaryZoneSkip(t *testing.T) {
	const n = 20 * blockRows
	cat := clusteredCatalog(t, n) // events(val sorted 0..1000, spend)
	e := New(cat)
	// 8 bins over 20 blocks: each cell spans ~2.5 physical blocks, so a
	// violation hull cutting mid-cell leaves whole out-of-range blocks
	// inside boundary cells for the zone test to drop.
	if err := e.BuildGridAggIndex("events", []string{"val"}, []string{"spend"}, 8); err != nil {
		t.Fatal(err)
	}

	dims := []relq.Dimension{{
		Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "val"},
		Bound: 200, Width: 300,
	}}
	queries := []*relq.Query{
		{Tables: []string{"events"}, Dims: dims,
			Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}},
		{Tables: []string{"events"}, Dims: dims,
			Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "events", Column: "spend"}, Op: relq.CmpEQ, Target: 1}},
	}
	// Bands with Lo > 0 exercise the two-sided hull; prefix regions the
	// one-sided one.
	regions := []relq.Region{
		{{Lo: -1, Hi: 30}}, {{Lo: -1, Hi: 75}},
		{{Lo: 10, Hi: 40}}, {{Lo: 33.3, Hi: 66.6}}, {{Lo: 0, Hi: 5}},
	}

	// A cell holding both rows inside the region and rows outside it can
	// be neither merged nor left out: whatever the kernel's interior
	// proof, an unpruned walk gathers at least those cells' whole lists.
	tbl, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	val, err := tbl.NumericColumn(tbl.Schema().Ordinal("val"))
	if err != nil {
		t.Fatal(err)
	}
	g := e.grid("events")
	var unpruned int64
	for _, region := range regions {
		for cell := 0; cell < g.NumCells(); cell++ {
			rows, in := g.PostingList(cell), 0
			for _, r := range rows {
				if region.Contains([]float64{dims[0].Violation(val[r])}) {
					in++
				}
			}
			if 0 < in && in < len(rows) {
				unpruned += int64(len(rows))
			}
		}
	}
	unpruned *= int64(len(queries))

	before := e.Snapshot()
	for qi, q := range queries {
		for ri, region := range regions {
			got, err := e.Aggregate(q, region)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, e, fmt.Sprintf("boundary query %d region %d", qi, ri), q, region, got)
		}
	}
	d := e.Snapshot().Sub(before)
	if d.BoundaryRows == 0 {
		t.Fatalf("expected boundary-cell work: %+v", d)
	}
	if d.BlocksSkipped == 0 {
		t.Fatalf("zone-consulting walk skipped no posting runs: %+v", d)
	}
	if d.BoundaryRows >= unpruned {
		t.Fatalf("zone-consulting walk gathered %d boundary rows, the cut cells' posting lists hold %d — expected a saving",
			d.BoundaryRows, unpruned)
	}
	// The kernel (not the scan) answered.
	if d.CellsMerged == 0 {
		t.Fatalf("grid kernel not engaged: %+v", d)
	}
}

// TestGridNonFiniteColumn: a grid column holding NaN, +Inf or -Inf must
// not change any answer. A NaN select value is outside every region on
// every scan path, so a NaN row is in no grid cell — not in the
// per-cell partials, the posting lists or the §7.4 bitmap — and a
// query that leaves such a column unconstrained, under which the row
// does qualify, must not be answered from the grid. ±Inf stretches the
// column's domain to infinite width: every value shares bin 0, no cell
// is provably interior and the kernel merges nothing (pinned here; see
// ROADMAP item 3). Both grids against a grid-less engine: COUNT, MIN
// and MAX bit for bit, SUM within 1e-9.
func TestGridNonFiniteColumn(t *testing.T) {
	const rows = 5000
	cases := []struct {
		name   string
		poison func(i int) (float64, bool)
	}{
		{"nan", func(i int) (float64, bool) { return math.NaN(), i%50 == 0 }},
		{"nan-inf", func(i int) (float64, bool) {
			switch i % 50 {
			case 0:
				return math.NaN(), true
			case 17:
				return math.Inf(1), true
			case 33:
				return math.Inf(-1), true
			}
			return 0, false
		}},
	}
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			users, err := cat.Table("users")
			if err != nil {
				t.Fatal(err)
			}
			income, _ := users.Floats(users.Schema().Ordinal("income"))
			for i := range income {
				if v, ok := tc.poison(i); ok {
					income[i] = v
				}
			}
			cols := []string{"age", "income", "distance"}
			scan, kern, bitmap := New(cat), New(cat), New(cat)
			if err := kern.BuildGridAggIndex("users", cols, []string{"spend"}, index.BinsForRows(3, rows)); err != nil {
				t.Fatal(err)
			}
			if err := bitmap.BuildGridIndex("users", cols, 8); err != nil {
				t.Fatal(err)
			}

			all := usersDims()
			var queries []*relq.Query
			for _, dims := range [][]relq.Dimension{all, {all[0], all[2]}} {
				queries = append(queries,
					usersQuery(relq.AggCount, "", dims...),
					usersQuery(relq.AggSum, "spend", dims...),
					usersQuery(relq.AggMin, "spend", dims...),
					usersQuery(relq.AggMax, "spend", dims...))
			}
			rng := rand.New(rand.NewSource(99))
			before := kern.Snapshot()
			for trial := 0; trial < 80; trial++ {
				for _, q := range queries {
					region := make(relq.Region, len(q.Dims))
					for i := range region {
						hi := rng.Float64() * 80
						region[i] = relq.ViolInterval{Lo: -1, Hi: hi}
						if rng.Intn(2) == 0 {
							region[i].Lo = hi * rng.Float64()
						}
					}
					want, err := scan.Aggregate(q, region)
					if err != nil {
						t.Fatal(err)
					}
					for name, e := range map[string]*Engine{"aggregate grid": kern, "bitmap grid": bitmap} {
						got, err := e.Aggregate(q, region)
						if err != nil {
							t.Fatal(err)
						}
						if got.Count != want.Count || !sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) ||
							!sameBits(got.Sum, want.Sum) && math.Abs(got.Sum-want.Sum) > 1e-9*(1+math.Abs(want.Sum)) {
							t.Fatalf("%s, %d dims, %v region %v:\ngrid %+v\nscan %+v",
								name, len(q.Dims), q.Constraint.Func, region, got, want)
						}
					}
				}
			}
			merged := kern.Snapshot().Sub(before).CellsMerged
			if inf := tc.name == "nan-inf"; inf != (merged == 0) {
				t.Errorf("kernel merged %d cells; want none exactly when the column holds ±Inf", merged)
			}
		})
	}
}

// TestGridFollowsTable: a registered grid follows the one derived-state
// rule — it speaks only for the table generation it was built over. After a
// catalog Replace, an append, or an in-place rewrite followed by
// InvalidateTable the next query rebuilds it from its build
// parameters, and a rebuild at another bin count replaces it; in every
// case the engine answers as a fresh grid-less engine does and still
// answers from a grid of the requested bins.
func TestGridFollowsTable(t *testing.T) {
	cols := []string{"age", "income", "distance"}
	users := func(t *testing.T, rows int, seed int64) *data.Table {
		cat, err := tpch.GenerateUsers(tpch.UsersConfig{Rows: rows, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := cat.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	cases := []struct {
		name       string
		rows       int
		bins, want int // bins per dimension at the first build, after mutate
		mutate     func(t *testing.T, e *Engine, cat *data.Catalog)
	}{
		{"replace", 5000, 16, 16, func(t *testing.T, e *Engine, cat *data.Catalog) {
			cat.Replace(users(t, 500, 2))
		}},
		{"append", 2000, 16, 16, func(t *testing.T, e *Engine, cat *data.Catalog) {
			tbl, _ := cat.Table("users")
			for i := 0; i < 50; i++ { // inside the region queried below
				if err := tbl.AppendRow(data.IntValue(int64(90000+i)), data.IntValue(20), data.FloatValue(30000),
					data.FloatValue(90), data.FloatValue(1), data.FloatValue(10), data.StringValue("Men"), data.StringValue("Austin")); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"rewrite", 2000, 16, 16, func(t *testing.T, e *Engine, cat *data.Catalog) {
			tbl, _ := cat.Table("users")
			income, _ := tbl.Floats(tbl.Schema().Ordinal("income"))
			for i := 0; i < 100; i++ { // in place, inside the region queried below
				income[i] = 30000
			}
			e.InvalidateTable("users")
		}},
		{"bins", 2000, 4, 32, func(t *testing.T, e *Engine, cat *data.Catalog) {
			if err := e.BuildGridAggIndex("users", cols, []string{"spend"}, 32); err != nil {
				t.Fatal(err)
			}
		}},
	}
	region := relq.Region{{Lo: -1, Hi: 0}, {Lo: -1, Hi: 0}, {Lo: -1, Hi: 0}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			cat := data.NewCatalog()
			if err := cat.Register(users(t, c.rows, 1)); err != nil {
				t.Fatal(err)
			}
			e := New(cat)
			if err := e.BuildGridAggIndex("users", cols, []string{"spend"}, c.bins); err != nil {
				t.Fatal(err)
			}
			// Query once, so the first grid and the state it feeds are in use.
			if _, err := e.Aggregate(usersQuery(relq.AggCount, "", usersDims()...), region); err != nil {
				t.Fatal(err)
			}
			c.mutate(t, e, cat)

			fresh := New(cat)
			before := e.Snapshot()
			for _, q := range []*relq.Query{usersQuery(relq.AggCount, "", usersDims()...), usersQuery(relq.AggSum, "spend", usersDims()...)} {
				got, err := e.Aggregate(q, region)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Aggregate(q, region)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-6*math.Max(1, math.Abs(want.Sum)) {
					t.Errorf("%s: count %d sum %v, fresh engine %d %v", q.Constraint.Func, got.Count, got.Sum, want.Count, want.Sum)
				}
			}
			if e.Snapshot().Sub(before).CellsMerged == 0 {
				t.Error("no cell answered from the grid")
			}
			if g := e.grid("users"); g == nil {
				t.Error("grid unregistered")
			} else if g.Bins(0) != c.want {
				t.Errorf("grid has %d bins per dimension, want %d", g.Bins(0), c.want)
			}
		})
	}
}
