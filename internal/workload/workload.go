// Package workload constructs the calibrated test queries of §8.3:
// TPC-H queries "adapted to include only numeric range and join
// predicates", with the number of flexible predicates (dimensionality),
// the aggregate type, and the aggregate ratio A_actual/A_exp all as
// knobs. For each configuration, the original query's actual aggregate
// is measured once and the constraint target set to A_actual/ratio —
// exactly how the paper defines its ratio axis.
package workload

import (
	"fmt"
	"math"
	"sort"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/relq"
)

// Kind selects the query skeleton.
type Kind uint8

const (
	// Users is the single-table ad-campaign skeleton (Example 1 /
	// query Q1): COUNT over demographic range predicates. All four
	// methods — ACQUIRE and the three baselines — can run it, so it
	// carries the cross-method comparisons of Figures 8-10.
	Users Kind = iota + 1
	// TPCH is the three-table supply-chain skeleton (Example 2 /
	// query Q2): supplier ⋈ partsupp ⋈ part with NOREFINE equi-joins
	// and numeric range predicates; carries the SUM/MAX aggregate
	// experiments of Figure 11 and the join-refinement runs.
	TPCH
)

// Spec configures a workload query.
type Spec struct {
	Kind Kind
	// Dims is the number of flexible predicates (1-5).
	Dims int
	// Agg is the constraint aggregate (COUNT for Users; COUNT, SUM or
	// MAX for TPCH).
	Agg relq.AggFunc
	// Ratio is A_actual/A_exp: small ratios need large refinements.
	Ratio float64
	// RefinableJoin converts one NOREFINE equi-join of the TPCH
	// skeleton into a refinable join-band dimension (counted inside
	// Dims).
	RefinableJoin bool
	// AttrOffset rotates the predicate pool, varying "the combination
	// of attributes in these predicates" (§8.3) across runs.
	AttrOffset int
}

// usersPool lists the ad-campaign predicate columns. Bounds are chosen
// per configuration as empirical quantiles (see usersBoundMass) so the
// original query is selective — it undershoots its target and gains
// tuples superlinearly as it expands (§8.3's setup) — while still
// matching at least a few dozen rows at any dataset scale and
// dimensionality. (The paper's fixed 1M-row scale hides this concern;
// a scale-parameterised harness cannot.)
var usersPool = []string{"age", "income", "distance", "sessions", "spend"}

// usersBoundMass picks the per-dimension selectivity for a d-predicate
// query over `rows` tuples: the joint mass m^d must leave a usable base
// result (~200 rows), and m is clamped to [0.08, 0.5] so queries stay
// selective and refinable.
func usersBoundMass(rows, d int) float64 {
	m := math.Pow(200/float64(rows), 1/float64(d))
	if m < 0.08 {
		m = 0.08
	}
	if m > 0.5 {
		m = 0.5
	}
	return m
}

var tpchPool = []struct {
	table, col string
	bound      float64
}{
	{"part", "p_retailprice", 1300},
	{"supplier", "s_acctbal", 2500},
	{"partsupp", "ps_supplycost", 350},
	{"part", "p_size", 18},
}

// Build constructs the uncalibrated query for the spec.
func Build(e *exec.Engine, spec Spec) (*relq.Query, error) {
	if spec.Dims < 1 || spec.Dims > 5 {
		return nil, fmt.Errorf("workload: Dims must be 1-5, got %d", spec.Dims)
	}
	switch spec.Kind {
	case Users:
		if spec.Agg != relq.AggCount {
			return nil, fmt.Errorf("workload: Users skeleton supports COUNT, got %s", spec.Agg)
		}
		if spec.RefinableJoin {
			return nil, fmt.Errorf("workload: Users skeleton has no joins")
		}
		return buildUsers(e, spec)
	case TPCH:
		return buildTPCH(e, spec)
	default:
		return nil, fmt.Errorf("workload: unknown kind %d", spec.Kind)
	}
}

func buildUsers(e *exec.Engine, spec Spec) (*relq.Query, error) {
	q := &relq.Query{
		Tables:     []string{"users"},
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1},
	}
	users, err := e.Catalog().Table("users")
	if err != nil {
		return nil, err
	}
	mass := usersBoundMass(users.NumRows(), spec.Dims)
	for i := 0; i < spec.Dims; i++ {
		col := usersPool[(i+spec.AttrOffset)%len(usersPool)]
		bound, err := quantile(e, "users", col, mass)
		if err != nil {
			return nil, err
		}
		dim, err := leDim(e, "users", col, bound)
		if err != nil {
			return nil, err
		}
		q.Dims = append(q.Dims, dim)
	}
	return q, nil
}

// quantile returns the q-quantile of a numeric column.
func quantile(e *exec.Engine, table, col string, q float64) (float64, error) {
	t, err := e.Catalog().Table(table)
	if err != nil {
		return 0, err
	}
	ord := t.Schema().Ordinal(col)
	if ord < 0 {
		return 0, fmt.Errorf("workload: table %s has no column %q", table, col)
	}
	vec, err := t.NumericColumn(ord)
	if err != nil {
		return 0, err
	}
	sorted := append([]float64(nil), vec...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0, fmt.Errorf("workload: table %s is empty", table)
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i], nil
}

func buildTPCH(e *exec.Engine, spec Spec) (*relq.Query, error) {
	q := &relq.Query{
		Tables: []string{"supplier", "part", "partsupp"},
		Fixed: []relq.FixedPred{
			{Kind: relq.FixedEquiJoin,
				Left:  relq.ColumnRef{Table: "part", Column: "p_partkey"},
				Right: relq.ColumnRef{Table: "partsupp", Column: "ps_partkey"}},
		},
	}
	qtyRef := relq.ColumnRef{Table: "partsupp", Column: "ps_availqty"}
	switch spec.Agg {
	case relq.AggCount:
		q.Constraint = relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 1}
	case relq.AggSum:
		q.Constraint = relq.Constraint{Func: relq.AggSum, Attr: qtyRef, Op: relq.CmpGE, Target: 1}
	case relq.AggMax:
		q.Constraint = relq.Constraint{Func: relq.AggMax, Attr: qtyRef, Op: relq.CmpGE, Target: 1}
	case relq.AggAvg:
		q.Constraint = relq.Constraint{Func: relq.AggAvg, Attr: qtyRef, Op: relq.CmpEQ, Target: 1}
	default:
		return nil, fmt.Errorf("workload: TPCH skeleton does not support %s", spec.Agg)
	}

	nsel := spec.Dims
	// A MAX constraint is only meaningful when the original query caps
	// the aggregate attribute: expanding that cap is what raises the
	// attainable maximum. The first dimension of a MAX workload is
	// therefore ps_availqty bounded at its 5th percentile, leaving the
	// ratio axis room to demand up to ~20x growth.
	if spec.Agg == relq.AggMax {
		bound, err := quantile(e, "partsupp", "ps_availqty", 0.05)
		if err != nil {
			return nil, err
		}
		dim, err := leDim(e, "partsupp", "ps_availqty", bound)
		if err != nil {
			return nil, err
		}
		q.Dims = append(q.Dims, dim)
		nsel--
	}
	if spec.RefinableJoin {
		nsel--
		// The supplier-partsupp equi-join becomes a refinable band
		// (§2.4: join refinement expressed identically to selects).
		q.Dims = append(q.Dims, relq.Dimension{
			Kind:  relq.JoinBand,
			Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
			Right: relq.ColumnRef{Table: "partsupp", Column: "ps_suppkey"},
			Width: 100,
		})
	} else {
		q.Fixed = append(q.Fixed, relq.FixedPred{
			Kind:  relq.FixedEquiJoin,
			Left:  relq.ColumnRef{Table: "supplier", Column: "s_suppkey"},
			Right: relq.ColumnRef{Table: "partsupp", Column: "ps_suppkey"},
		})
	}
	if nsel > len(tpchPool) {
		return nil, fmt.Errorf("workload: TPCH skeleton has at most %d select dims", len(tpchPool))
	}
	for i := 0; i < nsel; i++ {
		p := tpchPool[(i+spec.AttrOffset)%len(tpchPool)]
		dim, err := leDim(e, p.table, p.col, p.bound)
		if err != nil {
			return nil, err
		}
		q.Dims = append(q.Dims, dim)
	}
	return q, nil
}

// leDim builds a one-sided upper-bound dimension. The workload scores
// refinement relative to the full attribute domain (Width = max − min)
// rather than the predicate interval: §2.3 explicitly permits custom
// monotonic predicate scoring, and domain-relative scores are
// comparable across attributes of very different selectivities, which
// keeps the refined-space layers of the ratio sweep shallow and
// uniform — the regime the paper's figures operate in.
func leDim(e *exec.Engine, table, col string, bound float64) (relq.Dimension, error) {
	t, err := e.Catalog().Table(table)
	if err != nil {
		return relq.Dimension{}, err
	}
	ord := t.Schema().Ordinal(col)
	if ord < 0 {
		return relq.Dimension{}, fmt.Errorf("workload: table %s has no column %q", table, col)
	}
	stats, err := t.Stats(ord)
	if err != nil {
		return relq.Dimension{}, err
	}
	width := stats.Max - stats.Min
	if width <= 0 {
		width = math.Max(bound, 1)
	}
	return relq.Dimension{
		Kind:  relq.SelectLE,
		Col:   relq.ColumnRef{Table: table, Column: col},
		Bound: bound,
		Width: width,
	}, nil
}

// Calibrate measures the original query's actual aggregate and sets the
// constraint target to A_actual/ratio, returning A_actual. A ratio of
// 0.3 therefore means the original query attains 30% of the target —
// the x-axis of Figures 8 and 11.
func Calibrate(e *exec.Engine, q *relq.Query, ratio float64) (float64, error) {
	if ratio <= 0 || ratio > 1 {
		return 0, fmt.Errorf("workload: ratio must be in (0, 1], got %v", ratio)
	}
	spec, err := agg.SpecFor(q.Constraint)
	if err != nil {
		return 0, err
	}
	p, err := e.Aggregate(q, relq.PrefixRegion(make([]float64, q.NumDims())))
	if err != nil {
		return 0, err
	}
	actual := spec.Final(p)
	if math.IsNaN(actual) || actual <= 0 {
		return 0, fmt.Errorf("workload: original query has aggregate %v; cannot calibrate a ratio", actual)
	}
	q.Constraint.Target = actual / ratio
	return actual, nil
}

// BuildCalibrated is Build followed by Calibrate.
func BuildCalibrated(e *exec.Engine, spec Spec) (*relq.Query, error) {
	q, err := Build(e, spec)
	if err != nil {
		return nil, err
	}
	if _, err := Calibrate(e, q, spec.Ratio); err != nil {
		return nil, err
	}
	return q, nil
}
