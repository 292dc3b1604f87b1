package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// This file holds the scan path's equivalence property suite: across
// aggregates, joins, fixed predicates, NaN/±Inf columns, tail blocks
// and table mutations, the engine must agree with
// NaiveAggregate — nested loops over the cross product, sharing no scan,
// index or join code with it — and with itself, bit for bit, between a
// batch and a stand-alone Aggregate of the same region.

// exactEqual fails unless two partials are bitwise identical.
func exactEqual(t *testing.T, label string, got, want agg.Partial) {
	t.Helper()
	if !jpSameBits(got, want) {
		t.Fatalf("%s: %+v != %+v", label, got, want)
	}
}

// oracleEqual fails unless got agrees with the oracle's partial over
// the same tuples: Count, Min and Max bit for bit (a fold picks them, it
// never rounds), Sum and User within agg.ApproxEqual's tolerance,
// because the oracle steps the tuples in another order. A NaN or ±Inf
// sum has no rounding to tolerate and must match outright.
func oracleEqual(t *testing.T, label string, got, want agg.Partial) {
	t.Helper()
	g, w := got, want
	if g.Sum == w.Sum || g.Sum != g.Sum && w.Sum != w.Sum {
		g.Sum, w.Sum = 0, 0
	}
	if g.User == w.User || g.User != g.User && w.User != w.User {
		g.User, w.User = 0, 0
	}
	if !agg.ApproxEqual(g, w, 1e-9) {
		t.Fatalf("%s: engine %+v != oracle %+v", label, got, want)
	}
}

// messyCatalog builds a two-table catalog engineered to stress the scan
// path's edge cases: a NaN/±Inf-bearing aggregate column, ±0 join keys,
// a string filter column, dangling join keys, and row counts chosen by
// the caller to produce partial tail blocks.
//
//	cust(c_key, c_score)
//	orders(o_custkey, o_amount [NaN/±Inf/±0], o_qty, o_status)
func messyCatalog(t testing.TB, nOrders, nCust int, seed int64) *data.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := data.NewCatalog()

	cust := data.NewTable("cust", data.MustSchema(
		data.Column{Name: "c_key", Type: data.Int64},
		data.Column{Name: "c_score", Type: data.Float64},
	))
	for i := 0; i < nCust; i++ {
		if err := cust.AppendRow(data.IntValue(int64(i)), data.FloatValue(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}

	statuses := []string{"OPEN", "SHIPPED", "CLOSED", "HELD"}
	orders := data.NewTable("orders", data.MustSchema(
		data.Column{Name: "o_custkey", Type: data.Int64},
		data.Column{Name: "o_amount", Type: data.Float64},
		data.Column{Name: "o_qty", Type: data.Float64},
		data.Column{Name: "o_status", Type: data.String},
	))
	for i := 0; i < nOrders; i++ {
		amount := rng.Float64() * 1000
		switch r := rng.Float64(); {
		case r < 0.02:
			amount = math.NaN()
		case r < 0.03:
			amount = math.Inf(1)
		case r < 0.04:
			amount = math.Inf(-1)
		case r < 0.06:
			amount = math.Copysign(0, rng.Float64()-0.5) // ±0 keys
		}
		// ~10% dangling keys exercise join misses.
		key := int64(rng.Intn(nCust + nCust/10 + 1))
		if err := orders.AppendRow(
			data.IntValue(key),
			data.FloatValue(amount),
			data.FloatValue(rng.Float64()*50),
			data.StringValue(statuses[rng.Intn(len(statuses))]),
		); err != nil {
			t.Fatal(err)
		}
	}

	for _, tbl := range []*data.Table{cust, orders} {
		if err := cat.Register(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// messyAgg picks a random constraint over the messy catalog. The
// NaN/±Inf column o_amount is deliberately over-represented as the
// aggregate attribute.
func messyAgg(rng *rand.Rand) relq.Constraint {
	c := relq.Constraint{Op: relq.CmpEQ, Target: 1}
	attr := relq.ColumnRef{Table: "orders", Column: "o_amount"}
	if rng.Intn(3) == 0 {
		attr = relq.ColumnRef{Table: "orders", Column: "o_qty"}
	}
	switch rng.Intn(6) {
	case 0:
		c.Func = relq.AggCount
	case 1:
		c.Func, c.Attr = relq.AggSum, attr
	case 2:
		c.Func, c.Attr = relq.AggMin, attr
	case 3:
		c.Func, c.Attr = relq.AggMax, attr
	case 4:
		c.Func, c.Attr = relq.AggAvg, attr
	default:
		c.Func, c.Attr, c.UserName = relq.AggUser, attr, "SUMSQ"
	}
	return c
}

// messyQuery generates a random (query, region) pair: single-table
// selects, equi joins, band joins, fixed ranges (selective enough to
// trigger the index path about half the time) and string-set filters.
func messyQuery(rng *rand.Rand) (*relq.Query, relq.Region) {
	var dims []relq.Dimension
	var fixed []relq.FixedPred
	tables := []string{"orders"}

	// 1-2 select dims on orders.
	orderDims := []relq.Dimension{
		{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 400, Width: 1000},
		{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 30, Width: 50},
		{Kind: relq.SelectEQ, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 20, Width: 50},
	}
	rng.Shuffle(len(orderDims), func(i, j int) { orderDims[i], orderDims[j] = orderDims[j], orderDims[i] })
	dims = append(dims, orderDims[:1+rng.Intn(2)]...)

	switch rng.Intn(3) {
	case 1: // equi join to cust + a cust-side dim
		tables = append(tables, "cust")
		fixed = append(fixed, relq.FixedPred{
			Kind:  relq.FixedEquiJoin,
			Left:  relq.ColumnRef{Table: "orders", Column: "o_custkey"},
			Right: relq.ColumnRef{Table: "cust", Column: "c_key"},
		})
		dims = append(dims, relq.Dimension{
			Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "cust", Column: "c_score"},
			Bound: 30, Width: 100,
		})
	case 2: // band join on the NaN-bearing column
		tables = append(tables, "cust")
		dims = append(dims, relq.Dimension{
			Kind:  relq.JoinBand,
			Left:  relq.ColumnRef{Table: "orders", Column: "o_amount"},
			Right: relq.ColumnRef{Table: "cust", Column: "c_score"},
			Base:  5, Width: 200,
		})
	}

	if rng.Intn(2) == 0 { // fixed range; selective half the time
		lo, hi := 100.0, 900.0
		if rng.Intn(2) == 0 {
			lo, hi = 100.0, 250.0
		}
		fixed = append(fixed, relq.FixedPred{
			Kind: relq.FixedRange,
			Col:  relq.ColumnRef{Table: "orders", Column: "o_amount"},
			Lo:   lo, Hi: hi,
		})
	}
	if rng.Intn(3) == 0 {
		fixed = append(fixed, relq.FixedPred{
			Kind:   relq.FixedStringIn,
			Col:    relq.ColumnRef{Table: "orders", Column: "o_status"},
			Values: []string{"OPEN", "SHIPPED"},
		})
	}

	region := make(relq.Region, len(dims))
	for i := range region {
		hi := rng.Float64() * 90
		if rng.Intn(2) == 0 {
			region[i] = relq.ViolInterval{Lo: -1, Hi: hi}
		} else {
			region[i] = relq.ViolInterval{Lo: hi * rng.Float64(), Hi: hi}
		}
	}

	q := &relq.Query{Tables: tables, Dims: dims, Fixed: fixed, Constraint: messyAgg(rng)}
	return q, region
}

func registerUDAs(t testing.TB) {
	t.Helper()
	for _, u := range agg.StandardUDAs() {
		_ = agg.RegisterUDA(u) // duplicate registration across tests is fine
	}
}

// checkOracle compares got with e.NaiveAggregate's partial of the
// region.
func checkOracle(t *testing.T, e *Engine, label string, q *relq.Query, region relq.Region, got agg.Partial) {
	t.Helper()
	want, err := e.NaiveAggregate(q, region)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	oracleEqual(t, label, got, want)
}

// checkAgainstOracle runs one (query, region) through Aggregate, a
// one-region AggregateBatch and NaiveAggregate: the first two must
// agree bit for bit, and with the oracle by oracleEqual's rule.
func checkAgainstOracle(t *testing.T, e *Engine, label string, q *relq.Query, region relq.Region) agg.Partial {
	t.Helper()
	got, err := e.Aggregate(q, region)
	want, errN := e.NaiveAggregate(q, region)
	if (err != nil) != (errN != nil) {
		t.Fatalf("%s: error divergence: engine=%v oracle=%v", label, err, errN)
	}
	if err != nil {
		return got
	}
	oracleEqual(t, label, got, want)
	batch, err := e.AggregateBatch(context.Background(), q, []relq.Region{region})
	if err != nil {
		t.Fatalf("%s: batch: %v", label, err)
	}
	exactEqual(t, label+" batch vs Aggregate", batch[0], got)
	return got
}

// TestScanOracleEquivalence runs 160 randomized (query, region, agg)
// triples — COUNT/SUM/MIN/MAX/AVG plus a UDA, equi and band joins,
// fixed ranges, string sets, NaN/±Inf aggregate values — through the
// engine and the nested-loop oracle.
func TestScanOracleEquivalence(t *testing.T) {
	registerUDAs(t)
	e := New(messyCatalog(t, 2500, 300, 7))

	rng := rand.New(rand.NewSource(41))
	nonzero := 0
	for trial := 0; trial < 160; trial++ {
		q, region := messyQuery(rng)
		p := checkAgainstOracle(t, e, fmt.Sprintf("trial %d (%v, region %v)", trial, q.Tables, region), q, region)
		if p.Count > 0 {
			nonzero++
		}
	}
	if nonzero < 40 {
		t.Fatalf("only %d/160 trials produced rows; generator too restrictive to be meaningful", nonzero)
	}
}

// TestScanOracleEquivalenceTailBlocks sweeps table sizes around the
// block boundary — single rows, exactly one block, one block plus one
// row — where off-by-one block math would bite.
func TestScanOracleEquivalenceTailBlocks(t *testing.T) {
	registerUDAs(t)
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 16, blockRows - 1, blockRows, blockRows + 1, 2*blockRows + 511} {
		e := New(messyCatalog(t, n, 50, int64(n)))
		for trial := 0; trial < 8; trial++ {
			q, region := messyQuery(rng)
			checkAgainstOracle(t, e, fmt.Sprintf("n=%d trial %d", n, trial), q, region)
		}
	}
}

// clusteredCatalog builds a single-table catalog whose value column is
// sorted — the layout where zone maps can prove whole blocks out of
// range. val runs 0..1000 ascending.
func clusteredCatalog(t testing.TB, n int) *data.Catalog {
	t.Helper()
	cat := data.NewCatalog()
	tbl := data.NewTable("events", data.MustSchema(
		data.Column{Name: "val", Type: data.Float64},
		data.Column{Name: "spend", Type: data.Float64},
	))
	for i := 0; i < n; i++ {
		v := 1000 * float64(i) / float64(n)
		if err := tbl.AppendRow(data.FloatValue(v), data.FloatValue(math.Sqrt(v))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestVectorZoneSkip verifies the zone-map fast path: on a clustered
// column, a broad fixed range (too wide for the index path, narrow
// enough to exclude whole blocks) must skip blocks without touching
// their rows, RowsScanned must exclude the skipped rows, and the result
// must still match the oracle.
func TestVectorZoneSkip(t *testing.T) {
	const n = 20 * blockRows
	cat := clusteredCatalog(t, n)
	vec := New(cat)

	q := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{{
			Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"},
			Bound: 20, Width: 30,
		}},
		Fixed: []relq.FixedPred{{
			Kind: relq.FixedRange,
			Col:  relq.ColumnRef{Table: "events", Column: "val"},
			// 60% of the sorted domain: > n/2 matches, so the index path
			// is rejected and the full scan runs with zone pruning.
			Lo: 0, Hi: 600,
		}},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "events", Column: "spend"}, Op: relq.CmpEQ, Target: 1},
	}
	region := relq.PrefixRegion([]float64{100})

	before := vec.Snapshot()
	pv, err := vec.Aggregate(q, region)
	if err != nil {
		t.Fatal(err)
	}
	d := vec.Snapshot().Sub(before)
	checkOracle(t, vec, "zone-skip query", q, region, pv)

	if d.BlocksSkipped == 0 {
		t.Fatalf("expected zone maps to skip blocks on clustered data; stats: %+v", d)
	}
	if d.BlocksScanned == 0 {
		t.Fatalf("expected some blocks scanned; stats: %+v", d)
	}
	if d.RowsScanned >= int64(n) {
		t.Fatalf("RowsScanned %d should exclude rows in the %d skipped blocks (n=%d)", d.RowsScanned, d.BlocksSkipped, n)
	}
	if got := d.RowsScanned + d.BlocksSkipped*blockRows; got != int64(n) {
		t.Fatalf("scanned rows (%d) + skipped rows (%d blocks) should cover the table: got %d, want %d",
			d.RowsScanned, d.BlocksSkipped, got, n)
	}
}

// violationScanReference is ViolationScan as one loop over the table's
// rows: those inside every fixed range (a NaN is inside none) and
// string set, in row order, with the violation of each select
// dimension. It reads the table through data.Table only.
func violationScanReference(t *testing.T, cat *data.Catalog, q *relq.Query) []RowViolations {
	t.Helper()
	tbl, err := cat.Table(q.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	num := func(ref relq.ColumnRef, r int) float64 {
		v, err := tbl.ValueAt(r, tbl.Schema().Ordinal(ref.Column)).AsFloat()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var out []RowViolations
rows:
	for r := 0; r < tbl.NumRows(); r++ {
		for _, p := range q.Fixed {
			if p.Kind == relq.FixedRange {
				if v := num(p.Col, r); !(v >= p.Lo && v <= p.Hi) {
					continue rows
				}
			} else if !slices.Contains(p.Values, tbl.ValueAt(r, tbl.Schema().Ordinal(p.Col.Column)).S) {
				continue rows
			}
		}
		rv := RowViolations{Row: int32(r), AggValue: 1}
		for i := range q.Dims {
			rv.Viol = append(rv.Viol, q.Dims[i].Violation(num(q.Dims[i].Col, r)))
		}
		if q.Constraint.Attr.Column != "" {
			rv.AggValue = num(q.Constraint.Attr, r)
		}
		out = append(out, rv)
	}
	return out
}

// TestViolationScanEquivalence compares the Top-k primitive row by row
// with a per-row reference loop: same rows, same order, same violation
// vectors bit for bit, same aggregate values — and on a clustered layout
// the scan must skip blocks while still emitting the identical row
// stream.
func TestViolationScanEquivalence(t *testing.T) {
	cat := messyCatalog(t, 3*blockRows+100, 50, 23)
	vec := New(cat)

	q := &relq.Query{
		Tables: []string{"orders"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 400, Width: 1000},
			{Kind: relq.SelectGE, Col: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Bound: 30, Width: 50},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Lo: 50, Hi: 800},
			{Kind: relq.FixedStringIn, Col: relq.ColumnRef{Table: "orders", Column: "o_status"}, Values: []string{"OPEN", "CLOSED"}},
		},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Op: relq.CmpEQ, Target: 1},
	}

	rv, err := vec.ViolationScan(q)
	if err != nil {
		t.Fatal(err)
	}
	rl := violationScanReference(t, cat, q)
	if len(rv) != len(rl) || len(rv) == 0 {
		t.Fatalf("row count: scan %d, reference %d", len(rv), len(rl))
	}
	for i := range rv {
		if rv[i].Row != rl[i].Row ||
			math.Float64bits(rv[i].AggValue) != math.Float64bits(rl[i].AggValue) {
			t.Fatalf("row %d: %+v != %+v", i, rv[i], rl[i])
		}
		for j := range rv[i].Viol {
			if math.Float64bits(rv[i].Viol[j]) != math.Float64bits(rl[i].Viol[j]) {
				t.Fatalf("row %d viol[%d]: %v != %v", i, j, rv[i].Viol[j], rl[i].Viol[j])
			}
		}
	}

	// Clustered layout: ViolationScan must engage zone maps on its fixed
	// range and exclude skipped rows from RowsScanned.
	ccat := clusteredCatalog(t, 10*blockRows)
	cvec := New(ccat)
	cq := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 10, Width: 30},
		},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 500},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	before := cvec.Snapshot()
	cv, err := cvec.ViolationScan(cq)
	if err != nil {
		t.Fatal(err)
	}
	cd := cvec.Snapshot().Sub(before)
	cl := violationScanReference(t, ccat, cq)
	if len(cv) != len(cl) {
		t.Fatalf("clustered row count: %d != %d", len(cv), len(cl))
	}
	for i := range cv {
		if cv[i].Row != cl[i].Row {
			t.Fatalf("clustered row %d: %d != %d", i, cv[i].Row, cl[i].Row)
		}
	}
	if cd.BlocksSkipped == 0 {
		t.Fatalf("clustered ViolationScan should skip blocks; stats %+v", cd)
	}
	if cd.RowsScanned >= int64(10*blockRows) {
		t.Fatalf("RowsScanned %d should exclude skipped blocks", cd.RowsScanned)
	}
}

// TestSemiJoinPushdownEquivalence shapes a query so the scan-level
// semi-join pushdown engages (tiny pre-filtered probe side scanned
// before a large build side on an equi edge) and checks the result is
// unchanged.
func TestSemiJoinPushdownEquivalence(t *testing.T) {
	cat := messyCatalog(t, 8000, 400, 31)
	vec := New(cat)

	// cust is table 0 (scanned first, becomes the probe side of the
	// planned equi attach of orders); the tight c_score bound keeps its
	// candidate set far below len(orders)/4, arming the pushdown.
	q := &relq.Query{
		Tables: []string{"cust", "orders"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "cust", Column: "c_score"}, Bound: 2, Width: 100},
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "orders", Column: "o_amount"}, Bound: 700, Width: 1000},
		},
		Fixed: []relq.FixedPred{{
			Kind:  relq.FixedEquiJoin,
			Left:  relq.ColumnRef{Table: "cust", Column: "c_key"},
			Right: relq.ColumnRef{Table: "orders", Column: "o_custkey"},
		}},
		Constraint: relq.Constraint{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "orders", Column: "o_qty"}, Op: relq.CmpEQ, Target: 1},
	}

	b, err := vec.bind(q)
	if err != nil {
		t.Fatal(err)
	}
	plan := vec.attachPlan(b)
	if plan[1].equi == nil || plan[1].probeTbl != 0 {
		t.Fatalf("attach plan did not arm pushdown for orders: %+v", plan[1])
	}

	for _, hi := range []float64{0, 3, 25, 90} {
		checkAgainstOracle(t, vec, fmt.Sprintf("pushdown hi=%v", hi), q, relq.PrefixRegion([]float64{hi, hi}))
	}
}

// TestScanOracleEquivalenceAfterMutation is the mutate-then-scan sweep
// of derived-state retirement: each round mutates the table a different
// way — sub-block append, block-sized append, a same-size catalog
// Replace (a re-sorted copy: only the *Table identity changes, not the
// row count), an append onto the replacement and an in-place rewrite
// — then calls InvalidateTable, and one engine must agree with an
// oracle over the mutated table. A stale zone map, column vector or
// sorted index shows up as a pruned or miscounted row. Every round runs
// under one join scope, with a join query beside the single-table one:
// only the generation InvalidateTable moves tells the scope's memo that
// an in-place rewrite, which keeps tables and row counts, changed the
// candidates.
func TestScanOracleEquivalenceAfterMutation(t *testing.T) {
	mutationRounds(t, 0)
}

// TestZoneMapRetirementSharded runs the mutation rounds of
// TestScanOracleEquivalenceAfterMutation at worker counts 1-16, the
// shard counts this sweep once partitioned the fact table into: a
// generation of derived state left stale under one fan-out shape must
// not hide behind another.
func TestZoneMapRetirementSharded(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5, 8, 16} {
		mutationRounds(t, workers)
	}
}

// TestGenerationMutationRounds runs the mutation rounds with no call after
// the appends and the Replace, which move the table's generation
// themselves; only the in-place rewrite calls Touch.
func TestGenerationMutationRounds(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		mutationSweep(t, workers, false)
	}
}

// mutationRounds is the body of the mutate-then-scan sweep, on one
// engine with the given Parallelism (0: GOMAXPROCS).
func mutationRounds(t *testing.T, parallelism int) {
	t.Helper()
	mutationSweep(t, parallelism, true)
}

// mutationSweep runs the rounds; invalidate makes every round call
// InvalidateTable, otherwise only the in-place rewrite touches the table.
func mutationSweep(t *testing.T, parallelism int, invalidate bool) {
	t.Helper()
	cat := clusteredCatalog(t, 4*blockRows)
	events, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	// gate holds a sample of val, and the values the appends add.
	gate := data.NewTable("gate", data.MustSchema(data.Column{Name: "g_val", Type: data.Float64}))
	vals, _ := events.Floats(0)
	for i := 0; i < len(vals); i += 97 {
		if err := gate.AppendRow(data.FloatValue(vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []float64{300, 1} {
		if err := gate.AppendRow(data.FloatValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(gate); err != nil {
		t.Fatal(err)
	}

	spend := relq.Dimension{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 20, Width: 30}
	count := relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}
	q := &relq.Query{
		Tables: []string{"events"},
		Dims:   []relq.Dimension{spend},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 600},
		},
		Constraint: count,
	}
	qj := &relq.Query{
		Tables: []string{"events", "gate"},
		Dims:   []relq.Dimension{spend},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin, Left: relq.ColumnRef{Table: "events", Column: "val"}, Right: relq.ColumnRef{Table: "gate", Column: "g_val"}},
		},
		Constraint: count,
	}
	regions := []relq.Region{
		relq.PrefixRegion([]float64{0}),
		relq.PrefixRegion([]float64{50}),
		relq.PrefixRegion([]float64{100}),
	}

	e := New(cat)
	e.Parallelism = parallelism
	ctx := searchScope(context.Background())
	// compare runs both queries and checks them against the oracle of a
	// fresh engine, which holds no derived state a mutation could leave
	// stale; it returns the single-table and the join partials.
	compare := func(round string) (single, joined []agg.Partial) {
		t.Helper()
		oracle := New(cat)
		var out [2][]agg.Partial
		for k, q := range []*relq.Query{q, qj} {
			got, err := e.AggregateBatch(ctx, q, regions)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				checkOracle(t, oracle, fmt.Sprintf("workers=%d %s query %d region %d", parallelism, round, k, i), q, regions[i], got[i])
			}
			out[k] = got
		}
		return out[0], out[1]
	}
	appendRows := func(tbl *data.Table, n int, val, spend float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := tbl.AppendRow(data.FloatValue(val), data.FloatValue(spend)); err != nil {
				t.Fatal(err)
			}
		}
		if invalidate {
			e.InvalidateTable("events")
		}
	}

	base, _ := compare("baseline")

	// Sub-block append: the tail block's bounds change without adding a
	// full new block.
	appendRows(events, 7, 300, 5)
	r1, _ := compare("sub-block append")
	if r1[2].Count != base[2].Count+7 {
		t.Fatalf("workers=%d sub-block append: count %d -> %d, want +7", parallelism, base[2].Count, r1[2].Count)
	}

	// Block-sized append: new blocks appear whose rows a stale zone map
	// generation would never have covered.
	appendRows(events, blockRows+11, 300, 5)
	r2, _ := compare("block append")
	if r2[2].Count != r1[2].Count+blockRows+11 {
		t.Fatalf("workers=%d block append: count %d -> %d, want +%d", parallelism, r1[2].Count, r2[2].Count, blockRows+11)
	}

	// Same-size Replace: a re-sorted copy swaps in with an unchanged row
	// count, so only table identity distinguishes the new layout.
	sorted, err := data.SortedBy(events, "val")
	if err != nil {
		t.Fatal(err)
	}
	cat.Replace(sorted)
	if invalidate {
		e.InvalidateTable("events")
	}
	r3, _ := compare("same-size replace")
	if r3[2].Count != r2[2].Count {
		t.Fatalf("workers=%d replace changed the count: %d -> %d", parallelism, r2[2].Count, r3[2].Count)
	}

	// Append onto the replaced generation, out of sorted order: the new
	// generation's tail retires too.
	appendRows(sorted, 13, 1, 2)
	r4, j4 := compare("post-replace append")
	if r4[2].Count != r3[2].Count+13 {
		t.Fatalf("workers=%d post-replace append: count %d -> %d, want +13", parallelism, r3[2].Count, r4[2].Count)
	}

	// In-place rewrite: same tables, same row counts, new contents.
	spends, _ := sorted.Floats(1)
	for i := range spends {
		spends[i] /= 2
	}
	if invalidate {
		e.InvalidateTable("events")
	} else {
		sorted.Touch()
	}
	r5, j5 := compare("rewrite in place")
	if r5[0].Count <= r4[0].Count || j5[0].Count <= j4[0].Count {
		t.Fatalf("workers=%d halving spend must grow the spend <= 20 region: %d -> %d, join %d -> %d",
			parallelism, r4[0].Count, r5[0].Count, j4[0].Count, j5[0].Count)
	}
}

// TestNaNUnderFixedRange pins one answer for a NaN in a fixed-range
// column — outside the range, as SQL has it — whichever condition the
// region makes the drive: the range's own sorted index (whose slab never
// holds a NaN) or a select dimension's, behind which the range runs as a
// filter.
func TestNaNUnderFixedRange(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(3))
	tbl := data.NewTable("t", data.MustSchema(
		data.Column{Name: "x", Type: data.Float64},
		data.Column{Name: "y", Type: data.Float64},
	))
	for i := 0; i < n; i++ {
		x := float64(i % 100)
		if i%3 == 0 {
			x = math.NaN()
		}
		if err := tbl.AppendRow(data.FloatValue(x), data.FloatValue(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}
	cat := data.NewCatalog()
	if err := cat.Register(tbl); err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	q := &relq.Query{
		Tables:     []string{"t"},
		Dims:       []relq.Dimension{{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "t", Column: "y"}, Bound: 50, Width: 100}},
		Fixed:      []relq.FixedPred{{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "t", Column: "x"}, Lo: 10, Hi: 30}},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	b, err := e.bind(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		region relq.Region
		src    int // scanDrive.src: 0 the fixed range, 1 the select dimension
	}{
		{"range drives", relq.PrefixRegion([]float64{45}), 0},
		{"dimension drives", relq.Region{{Lo: 10, Hi: 14}}, 1},
	} {
		ac, err := e.accessPath(b, tc.region, 0, new(regionScratch))
		if err != nil {
			t.Fatal(err)
		}
		if !ac.indexed || ac.drive.src != tc.src {
			t.Fatalf("%s: access path %+v, want an index drive from predicate %d", tc.name, ac.drive, tc.src)
		}
		if p := checkAgainstOracle(t, e, tc.name, q, tc.region); p.Count == 0 {
			t.Fatalf("%s: no rows; the fixture is degenerate", tc.name)
		}
	}

	got, err := e.ViolationScan(q)
	if err != nil {
		t.Fatal(err)
	}
	want := violationScanReference(t, cat, q)
	if len(got) != len(want) {
		t.Fatalf("ViolationScan: %d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Row != want[i].Row {
			t.Fatalf("ViolationScan row %d is %d, reference %d", i, got[i].Row, want[i].Row)
		}
	}
}

// TestClusterTailDegradation is the SortedBy + append regression test:
// appends after clustering land in an explicit unsorted tail, and full
// scans over a block-or-bigger tail surface as DegradedScans instead of
// silently losing pruning — while the answers stay the oracle's.
func TestClusterTailDegradation(t *testing.T) {
	cat := clusteredCatalog(t, 6*blockRows)
	tbl, err := cat.Table("events")
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := data.SortedBy(tbl, "val")
	if err != nil {
		t.Fatal(err)
	}
	cat.Replace(sorted)
	e := New(cat)
	q := &relq.Query{
		Tables: []string{"events"},
		Dims: []relq.Dimension{
			{Kind: relq.SelectLE, Col: relq.ColumnRef{Table: "events", Column: "spend"}, Bound: 20, Width: 30},
		},
		// 60% of the sorted domain: past the index path's cut, so the
		// full scan runs behind the zone maps.
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedRange, Col: relq.ColumnRef{Table: "events", Column: "val"}, Lo: 0, Hi: 600},
		},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	region := relq.PrefixRegion([]float64{50})

	before := e.Snapshot()
	checkAgainstOracle(t, e, "clean layout", q, region)
	if d := e.Snapshot().Sub(before); d.DegradedScans != 0 || d.BlocksSkipped == 0 {
		t.Fatalf("clean clustered table: %+v, want block skips and no degraded scans", d)
	}

	for i := 0; i < blockRows+100; i++ {
		if err := sorted.AppendRow(data.FloatValue(300), data.FloatValue(5)); err != nil {
			t.Fatal(err)
		}
	}
	if sorted.ClusterTail() != blockRows+100 {
		t.Fatalf("ClusterTail = %d, want %d", sorted.ClusterTail(), blockRows+100)
	}
	before = e.Snapshot()
	checkAgainstOracle(t, e, "block-sized tail", q, region)
	if d := e.Snapshot().Sub(before); d.DegradedScans == 0 {
		t.Errorf("block-sized tail produced no degraded scans: %+v", d)
	}
}
