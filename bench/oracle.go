package main

import (
	"fmt"
	"hash/fnv"
	"math"
)

// digest condenses everything a refinement returned: the scores,
// aggregate, QScore and error of every refined query, plus Explored and
// Satisfied. Two refinements of one ACQ must have equal digests.
func digest(res *searchResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(res.Explored))
	if res.Satisfied {
		put(1)
	} else {
		put(0)
	}
	for i := range res.Queries {
		rq := &res.Queries[i]
		for _, s := range rq.Scores {
			put(math.Float64bits(s))
		}
		put(math.Float64bits(rq.Aggregate))
		put(math.Float64bits(rq.QScore))
		put(math.Float64bits(rq.Err))
	}
	return h.Sum64()
}

// oracleSample caps how many refined queries of one result the oracle
// re-evaluates: a result can hold hundreds, and each users re-evaluation
// is a nested loop over every row. The sample is the best query, the
// last, and evenly spaced ones between.
const oracleSample = 8

func sampleQueries(res *searchResult) []*refinedQuery {
	n := len(res.Queries)
	if n <= oracleSample {
		out := make([]*refinedQuery, n)
		for i := range out {
			out[i] = &res.Queries[i]
		}
		return out
	}
	out := make([]*refinedQuery, oracleSample)
	for i := range out {
		out[i] = &res.Queries[i*(n-1)/(oracleSample-1)]
	}
	return out
}

// sameAggregate compares a reported aggregate with the oracle's: COUNT
// and MAX bit for bit, SUM within 1e-9 relative because the two sides
// add in different orders.
func sameAggregate(q *query, got, want float64) bool {
	if sumConstraint(q) {
		return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
	}
	return got == want
}

// tpchOracle evaluates supplier ⋈ part ⋈ partsupp refined queries with
// a plain key lookup per partsupp row. Engine.NaiveAggregate is a full
// cross product, which at these sizes never ends.
type tpchOracle struct {
	cat     *catalog
	partRow map[float64]int // p_partkey -> row
	suppRow map[float64]int // s_suppkey -> row
	psPart  []float64
	psSupp  []float64
}

func newTPCHOracle(cat *catalog) (*tpchOracle, error) {
	o := &tpchOracle{cat: cat}
	keyRows := func(table, column string) (map[float64]int, error) {
		keys, err := numericColumn(cat, table, column)
		if err != nil {
			return nil, err
		}
		m := make(map[float64]int, len(keys))
		for row, k := range keys {
			if _, dup := m[k]; dup {
				return nil, fmt.Errorf("oracle: %s.%s is not a key (duplicate %v)", table, column, k)
			}
			m[k] = row
		}
		return m, nil
	}
	var err error
	if o.partRow, err = keyRows("part", "p_partkey"); err != nil {
		return nil, err
	}
	if o.suppRow, err = keyRows("supplier", "s_suppkey"); err != nil {
		return nil, err
	}
	if o.psPart, err = numericColumn(cat, "partsupp", "ps_partkey"); err != nil {
		return nil, err
	}
	if o.psSupp, err = numericColumn(cat, "partsupp", "ps_suppkey"); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *tpchOracle) aggregate(rq *refinedQuery) (float64, error) {
	dims, aggFn, aggTable, aggColumn, err := oracleView(rq.Base)
	if err != nil {
		return 0, err
	}
	// Row of each joined table for the current tuple, indexed as below.
	tables := map[string]int{"partsupp": 0, "part": 1, "supplier": 2}
	column := func(table, name string) (int, []float64, error) {
		ti, ok := tables[table]
		if !ok {
			return 0, nil, fmt.Errorf("oracle: unexpected table %q", table)
		}
		vec, err := numericColumn(o.cat, table, name)
		return ti, vec, err
	}
	type boundDim struct {
		table int
		vec   []float64
		viol  func(float64) float64
		max   float64
	}
	bound := make([]boundDim, len(dims))
	for i, d := range dims {
		ti, vec, err := column(d.table, d.column)
		if err != nil {
			return 0, err
		}
		bound[i] = boundDim{table: ti, vec: vec, viol: d.violation, max: rq.Scores[i]}
	}
	var aggVec []float64
	aggTI := 0
	if aggFn != "count" {
		if aggTI, aggVec, err = column(aggTable, aggColumn); err != nil {
			return 0, err
		}
	}

	count, sum, max := 0, 0.0, math.Inf(-1)
	var rowOf [3]int
tuples:
	for ps := range o.psPart {
		part, ok := o.partRow[o.psPart[ps]]
		if !ok {
			continue
		}
		supp, ok := o.suppRow[o.psSupp[ps]]
		if !ok {
			continue
		}
		rowOf = [3]int{ps, part, supp}
		for i := range bound {
			if bound[i].viol(bound[i].vec[rowOf[bound[i].table]]) > bound[i].max {
				continue tuples
			}
		}
		count++
		if aggVec != nil {
			v := aggVec[rowOf[aggTI]]
			sum += v
			max = math.Max(max, v)
		}
	}
	switch aggFn {
	case "count":
		return float64(count), nil
	case "sum":
		return sum, nil
	default:
		if count == 0 {
			return math.NaN(), nil
		}
		return max, nil
	}
}
