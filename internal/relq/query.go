// Package relq defines the relational query model shared by the SQL
// parser, the execution engine, the ACQUIRE core and the baselines.
//
// It encodes §2.2 of the paper: every predicate is a monotonic predicate
// function PF plus an interval PI of acceptable values. Range predicates
// are split into two one-sided predicates so each side refines
// independently; join predicates use a distance function Δ(PF1, PF2)
// with interval (0,0) and PScore denominator 100.
//
// A Query separates predicates into:
//
//   - Fixed predicates (NOREFINE, §2.1): hard filters never refined.
//   - Dimensions: refinable predicates; dimension i is axis i of the
//     refined space RS(Q) (§4). Each dimension defines a non-negative
//     violation function over result tuples — the tuple-level PScore of
//     Eq. 1 — where violation 0 means the tuple satisfies the original
//     predicate.
package relq

import (
	"fmt"
	"math"
	"strings"
)

// DimKind discriminates the refinable predicate shapes.
type DimKind uint8

const (
	// SelectLE is a one-sided upper-bound predicate: v <= Bound,
	// refined by raising the bound (e.g. p_retailprice < 1000).
	SelectLE DimKind = iota + 1
	// SelectGE is a one-sided lower-bound predicate: v >= Bound,
	// refined by lowering the bound (e.g. s_acctbal > 2000).
	SelectGE
	// SelectEQ is an equality predicate on a numeric attribute:
	// v = Bound, refined into |v - Bound| <= band. Per §2.3 the PScore
	// denominator for degenerate intervals is 100, so one unit of
	// refinement is one attribute unit of band.
	SelectEQ
	// JoinBand is a (possibly non-equi) join predicate:
	// |LCoef·L - RCoef·R| <= Base, refined by widening the band. An
	// equi-join has Base 0. PScore denominator is 100 (§2.3).
	JoinBand
)

// String names the kind.
func (k DimKind) String() string {
	switch k {
	case SelectLE:
		return "select<="
	case SelectGE:
		return "select>="
	case SelectEQ:
		return "select="
	case JoinBand:
		return "join"
	default:
		return "invalid"
	}
}

// ColumnRef names a column of a specific table.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "table.column".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// Dimension is one refinable predicate — one axis of the refined space.
//
// The violation of a tuple τ along the dimension (tuple-level PScore,
// Eq. 1) is, by kind:
//
//	SelectLE:  max(0, (v - Bound)) / Width · 100
//	SelectGE:  max(0, (Bound - v)) / Width · 100
//	SelectEQ:  |v - Bound| / Width · 100            (Width = 100)
//	JoinBand:  max(0, |L' - R'| - Base) / Width · 100 (Width = 100)
//
// where v is the tuple's value of Col, and L' = LCoef·L, R' = RCoef·R.
type Dimension struct {
	Kind DimKind

	// Col is the predicate attribute for the Select* kinds.
	Col ColumnRef
	// Bound is the original predicate bound for the Select* kinds.
	Bound float64

	// Left/Right identify the join attributes for JoinBand.
	Left, Right ColumnRef
	// LCoef and RCoef scale the join sides (non-equi joins like
	// 2·A.x = 3·B.x); both default to 1.
	LCoef, RCoef float64
	// Base is the original band width for JoinBand (0 for equi-joins).
	Base float64

	// Width is the PScore denominator: the original predicate interval
	// width for one-sided predicates, 100 for SelectEQ and JoinBand
	// (§2.3: "For equality join predicates, the denominator is set to
	// 100"; degenerate select intervals are treated identically).
	Width float64

	// Name is an optional human label used in rendered SQL and reports.
	Name string

	// MaxScore optionally caps the refinement of this dimension (§7.1
	// "users can also supply maximum refinement limits on predicates").
	// Zero means unlimited.
	MaxScore float64

	// Weight is the dimension's weight under weighted norms (§7.1).
	// Zero is interpreted as 1.
	Weight float64
}

// Validate checks internal consistency.
func (d *Dimension) Validate() error {
	switch d.Kind {
	case SelectLE, SelectGE, SelectEQ:
		if d.Col.Table == "" || d.Col.Column == "" {
			return fmt.Errorf("relq: %s dimension missing column", d.Kind)
		}
	case JoinBand:
		if d.Left.Table == "" || d.Right.Table == "" {
			return fmt.Errorf("relq: join dimension missing sides")
		}
		if d.Base < 0 {
			return fmt.Errorf("relq: join dimension has negative base band %v", d.Base)
		}
	default:
		return fmt.Errorf("relq: invalid dimension kind %d", d.Kind)
	}
	if d.Width <= 0 {
		return fmt.Errorf("relq: dimension %s has non-positive width %v", d.label(), d.Width)
	}
	if d.MaxScore < 0 {
		return fmt.Errorf("relq: dimension %s has negative MaxScore", d.label())
	}
	if d.Weight < 0 {
		return fmt.Errorf("relq: dimension %s has negative weight", d.label())
	}
	return nil
}

func (d *Dimension) label() string {
	if d.Name != "" {
		return d.Name
	}
	if d.Kind == JoinBand {
		return d.Left.String() + "~" + d.Right.String()
	}
	return d.Col.String()
}

// Label returns a human-readable identifier for the dimension.
func (d *Dimension) Label() string { return d.label() }

// Violation computes the tuple-level PScore for a scalar select value.
// Only valid for the Select* kinds.
func (d *Dimension) Violation(v float64) float64 {
	switch d.Kind {
	case SelectLE:
		if v <= d.Bound {
			return 0
		}
		return (v - d.Bound) * (100 / d.Width)
	case SelectGE:
		if v >= d.Bound {
			return 0
		}
		return (d.Bound - v) * (100 / d.Width)
	case SelectEQ:
		return math.Abs(v-d.Bound) * (100 / d.Width)
	default:
		panic("relq: Violation on join dimension; use JoinViolation")
	}
}

// JoinViolation computes the tuple-pair-level PScore for a join
// dimension given the two raw side values.
func (d *Dimension) JoinViolation(l, r float64) float64 {
	if d.Kind != JoinBand {
		panic("relq: JoinViolation on select dimension")
	}
	lc, rc := d.LCoef, d.RCoef
	if lc == 0 {
		lc = 1
	}
	if rc == 0 {
		rc = 1
	}
	delta := math.Abs(lc*l - rc*r)
	if delta <= d.Base {
		return 0
	}
	return (delta - d.Base) * (100 / d.Width)
}

// BoundAt returns the concrete predicate bound after refining the
// dimension by score (in PScore percent units). For SelectEQ and
// JoinBand it returns the half-band width.
func (d *Dimension) BoundAt(score float64) float64 {
	switch d.Kind {
	case SelectLE:
		return d.Bound + score*(d.Width/100)
	case SelectGE:
		return d.Bound - score*(d.Width/100)
	case SelectEQ:
		return score * (d.Width / 100) // band around Bound
	case JoinBand:
		return d.Base + score*(d.Width/100)
	default:
		panic("relq: invalid dimension kind")
	}
}

// FixedKind discriminates the non-refinable predicate shapes.
type FixedKind uint8

const (
	// FixedRange constrains Lo <= v <= Hi (either side may be ±Inf).
	FixedRange FixedKind = iota + 1
	// FixedEquiJoin constrains L == R (after coefficients).
	FixedEquiJoin
	// FixedStringIn constrains a TEXT column to a value set. The paper
	// scopes refinement to numeric predicates (§2.2); string predicates
	// appear only as NOREFINE filters (Example 1's gender/interests).
	FixedStringIn
)

// FixedPred is a NOREFINE predicate: a hard filter applied verbatim.
type FixedPred struct {
	Kind FixedKind

	Col    ColumnRef // FixedRange, FixedStringIn
	Lo, Hi float64   // FixedRange

	Left, Right  ColumnRef // FixedEquiJoin
	LCoef, RCoef float64   // FixedEquiJoin; 0 means 1

	Values []string // FixedStringIn
}

// Validate checks internal consistency.
func (p *FixedPred) Validate() error {
	switch p.Kind {
	case FixedRange:
		if p.Col.Table == "" || p.Col.Column == "" {
			return fmt.Errorf("relq: fixed range missing column")
		}
		if p.Lo > p.Hi {
			return fmt.Errorf("relq: fixed range on %s has Lo %v > Hi %v", p.Col, p.Lo, p.Hi)
		}
	case FixedEquiJoin:
		if p.Left.Table == "" || p.Right.Table == "" {
			return fmt.Errorf("relq: fixed join missing sides")
		}
	case FixedStringIn:
		if p.Col.Table == "" || len(p.Values) == 0 {
			return fmt.Errorf("relq: fixed string-in predicate malformed")
		}
	default:
		return fmt.Errorf("relq: invalid fixed predicate kind %d", p.Kind)
	}
	return nil
}

// AggFunc enumerates the aggregate functions. All satisfy the optimal
// substructure property (§2.6); AVG decomposes into SUM and COUNT.
type AggFunc uint8

const (
	// AggCount is COUNT(*) or COUNT(attr).
	AggCount AggFunc = iota + 1
	// AggSum is SUM(attr).
	AggSum
	// AggMin is MIN(attr).
	AggMin
	// AggMax is MAX(attr).
	AggMax
	// AggAvg is AVG(attr), decomposed into SUM/COUNT.
	AggAvg
	// AggUser is a registered user-defined OSP aggregate.
	AggUser
)

// String names the function as it appears in SQL.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	case AggUser:
		return "UDA"
	default:
		return "INVALID"
	}
}

// CmpOp is the comparison operator of the aggregate constraint. The
// paper restricts processing to =, >= and > (expansion); <= and < name
// the contraction problem handled by the §7.2 extension.
type CmpOp uint8

const (
	// CmpEQ is the = constraint.
	CmpEQ CmpOp = iota + 1
	// CmpGE is the >= constraint.
	CmpGE
	// CmpGT is the > constraint.
	CmpGT
	// CmpLE is the <= constraint (contraction, §7.2).
	CmpLE
	// CmpLT is the < constraint (contraction, §7.2).
	CmpLT
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpGE:
		return ">="
	case CmpGT:
		return ">"
	case CmpLE:
		return "<="
	case CmpLT:
		return "<"
	default:
		return "?"
	}
}

// Constraint is the CONSTRAINT clause: AGG(attr) Op Target.
type Constraint struct {
	Func AggFunc
	// Attr is the aggregate attribute; zero value for COUNT(*).
	Attr ColumnRef
	// UserName names the UDA when Func == AggUser.
	UserName string
	Op       CmpOp
	Target   float64
}

// Validate checks internal consistency.
func (c *Constraint) Validate() error {
	switch c.Func {
	case AggCount:
	case AggSum, AggMin, AggMax, AggAvg:
		if c.Attr.Table == "" || c.Attr.Column == "" {
			return fmt.Errorf("relq: %s constraint requires an attribute", c.Func)
		}
	case AggUser:
		if c.UserName == "" {
			return fmt.Errorf("relq: UDA constraint requires a name")
		}
		if c.Attr.Table == "" || c.Attr.Column == "" {
			return fmt.Errorf("relq: UDA constraint requires an attribute")
		}
	default:
		return fmt.Errorf("relq: invalid aggregate function")
	}
	switch c.Op {
	case CmpEQ, CmpGE, CmpGT, CmpLE, CmpLT:
	default:
		return fmt.Errorf("relq: invalid constraint operator")
	}
	if c.Target < 0 {
		return fmt.Errorf("relq: constraint target must be non-negative, got %v", c.Target)
	}
	return nil
}

// Query is an aggregation constrained query: conjunctive
// select-project-join over Tables with NOREFINE predicates Fixed,
// refinable Dimensions, and an aggregate Constraint.
type Query struct {
	Tables     []string
	Fixed      []FixedPred
	Dims       []Dimension
	Constraint Constraint
}

// Validate checks the whole query.
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("relq: query has no tables")
	}
	seen := make(map[string]struct{}, len(q.Tables))
	for _, t := range q.Tables {
		key := strings.ToLower(t)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("relq: duplicate table %q (self-joins are not supported)", t)
		}
		seen[key] = struct{}{}
	}
	for i := range q.Fixed {
		if err := q.Fixed[i].Validate(); err != nil {
			return fmt.Errorf("fixed predicate %d: %w", i, err)
		}
	}
	for i := range q.Dims {
		if err := q.Dims[i].Validate(); err != nil {
			return fmt.Errorf("dimension %d: %w", i, err)
		}
	}
	if err := q.Constraint.Validate(); err != nil {
		return err
	}
	return nil
}

// NumDims returns d, the dimensionality of the refined space.
func (q *Query) NumDims() int { return len(q.Dims) }

// Clone deep-copies the query.
func (q *Query) Clone() *Query {
	out := &Query{
		Tables:     append([]string(nil), q.Tables...),
		Constraint: q.Constraint,
	}
	out.Fixed = make([]FixedPred, len(q.Fixed))
	copy(out.Fixed, q.Fixed)
	for i := range out.Fixed {
		out.Fixed[i].Values = append([]string(nil), q.Fixed[i].Values...)
	}
	out.Dims = append([]Dimension(nil), q.Dims...)
	return out
}
