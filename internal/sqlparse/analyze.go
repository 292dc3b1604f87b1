package sqlparse

import (
	"fmt"
	"math"
	"strings"

	"acquire/internal/data"
	"acquire/internal/relq"
)

// Analyze resolves a parsed AST against the catalog into an executable
// relq.Query. Column references are qualified, types checked, and every
// refinable predicate's interval — hence its PScore denominator —
// derived from attribute domain statistics as §2.2 prescribes ("if the
// minimum value of B.y is 0, the predicate (B.y < 50) is decomposed
// into PF = B.y and PI = (0, 50)").
func Analyze(ast *AST, cat *data.Catalog) (*relq.Query, error) {
	q := &relq.Query{Tables: append([]string(nil), ast.Tables...)}
	for _, t := range ast.Tables {
		if _, err := cat.Table(t); err != nil {
			return nil, err
		}
	}

	resolve := func(c ColAST) (relq.ColumnRef, error) {
		tbl, col, err := cat.ResolveColumn(c.Ref(), ast.Tables)
		if err != nil {
			return relq.ColumnRef{}, err
		}
		return relq.ColumnRef{Table: tbl, Column: col}, nil
	}
	numericStats := func(ref relq.ColumnRef) (data.ColumnStats, error) {
		t, err := cat.Table(ref.Table)
		if err != nil {
			return data.ColumnStats{}, err
		}
		ord := t.Schema().Ordinal(ref.Column)
		col, _ := t.Schema().Column(ref.Column)
		if !col.Type.Numeric() {
			return data.ColumnStats{}, fmt.Errorf("sqlparse: column %s is not numeric", ref)
		}
		return t.Stats(ord)
	}
	isString := func(ref relq.ColumnRef) bool {
		t, err := cat.Table(ref.Table)
		if err != nil {
			return false
		}
		col, ok := t.Schema().Column(ref.Column)
		return ok && col.Type == data.String
	}

	c, err := analyzeAgg(ast.Agg, resolve)
	if err != nil {
		return nil, err
	}
	q.Constraint = c

	for i := range ast.Preds {
		if err := analyzePred(&ast.Preds[i], q, resolve, numericStats, isString); err != nil {
			return nil, fmt.Errorf("predicate %d: %w", i+1, err)
		}
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// ParseAndAnalyze is the one-call form: SQL text to executable query.
func ParseAndAnalyze(sql string, cat *data.Catalog) (*relq.Query, error) {
	ast, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Analyze(ast, cat)
}

func analyzeAgg(a AggClause, resolve func(ColAST) (relq.ColumnRef, error)) (relq.Constraint, error) {
	var c relq.Constraint
	switch a.FuncName {
	case "COUNT":
		c.Func = relq.AggCount
	case "SUM":
		c.Func = relq.AggSum
	case "MIN":
		c.Func = relq.AggMin
	case "MAX":
		c.Func = relq.AggMax
	case "AVG", "AVERAGE":
		c.Func = relq.AggAvg
	case "STDDEV", "VARIANCE":
		return c, fmt.Errorf("sqlparse: %s does not satisfy the optimal substructure property (§2.6) and is not supported", a.FuncName)
	default:
		c.Func = relq.AggUser
		c.UserName = a.FuncName
	}
	if a.Star {
		if c.Func != relq.AggCount {
			return c, fmt.Errorf("sqlparse: %s(*) is not valid; only COUNT(*)", a.FuncName)
		}
	} else {
		ref, err := resolve(a.Col)
		if err != nil {
			return c, err
		}
		c.Attr = ref
	}
	switch a.Op {
	case "=":
		c.Op = relq.CmpEQ
	case ">=":
		c.Op = relq.CmpGE
	case ">":
		c.Op = relq.CmpGT
	case "<=":
		c.Op = relq.CmpLE
	case "<":
		c.Op = relq.CmpLT
	default:
		return c, fmt.Errorf("sqlparse: unsupported constraint operator %q", a.Op)
	}
	c.Target = a.Target
	return c, nil
}

func analyzePred(
	p *PredAST,
	q *relq.Query,
	resolve func(ColAST) (relq.ColumnRef, error),
	numericStats func(relq.ColumnRef) (data.ColumnStats, error),
	isString func(relq.ColumnRef) bool,
) error {
	switch p.kind {
	case pkIn, pkStrEq:
		ref, err := resolve(p.Col)
		if err != nil {
			return err
		}
		if !isString(ref) {
			return fmt.Errorf("sqlparse: %s is not a TEXT column", ref)
		}
		// String predicates are always fixed filters; categorical
		// refinement requires an ontology adapter (§7.3) and is exposed
		// programmatically, not through SQL.
		q.Fixed = append(q.Fixed, relq.FixedPred{
			Kind: relq.FixedStringIn, Col: ref, Values: append([]string(nil), p.Strings...),
		})
		return nil

	case pkRange:
		ref, err := resolve(p.Col)
		if err != nil {
			return err
		}
		if _, err := numericStats(ref); err != nil {
			return err
		}
		if p.Lo > p.Hi {
			return fmt.Errorf("sqlparse: empty range [%v, %v] on %s", p.Lo, p.Hi, ref)
		}
		if p.NoRefine {
			q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: ref, Lo: p.Lo, Hi: p.Hi})
			return nil
		}
		// §2.2: a range predicate is rewritten as two one-sided
		// predicates so each side refines independently. Both sides
		// score departures against the original interval width.
		width := p.Hi - p.Lo
		if width <= 0 {
			width = 100 // degenerate interval, §2.3 convention
		}
		q.Dims = append(q.Dims,
			relq.Dimension{Kind: relq.SelectGE, Col: ref, Bound: p.Lo, Width: width},
			relq.Dimension{Kind: relq.SelectLE, Col: ref, Bound: p.Hi, Width: width},
		)
		return nil

	case pkCmp:
		switch {
		case p.LCol != nil && p.RCol != nil: // join predicate
			l, err := resolve(*p.LCol)
			if err != nil {
				return err
			}
			r, err := resolve(*p.RCol)
			if err != nil {
				return err
			}
			if _, err := numericStats(l); err != nil {
				return err
			}
			if _, err := numericStats(r); err != nil {
				return err
			}
			if p.Op != "=" {
				return fmt.Errorf("sqlparse: only equality join predicates are supported, got %q", p.Op)
			}
			if p.NoRefine {
				q.Fixed = append(q.Fixed, relq.FixedPred{
					Kind: relq.FixedEquiJoin, Left: l, Right: r,
					LCoef: p.LCol.Coef, RCoef: p.RCol.Coef,
				})
			} else {
				q.Dims = append(q.Dims, relq.Dimension{
					Kind: relq.JoinBand, Left: l, Right: r,
					LCoef: p.LCol.Coef, RCoef: p.RCol.Coef,
					Width: 100, // §2.3: equality joins score in absolute units
				})
			}
			return nil

		default: // column vs constant
			colAST, num, op := p.LCol, p.RNum, p.Op
			if colAST == nil {
				// Constant on the left: flip.
				colAST, num = p.RCol, p.LNum
				op = flipOp(op)
			}
			if colAST.Coef != 0 && colAST.Coef != 1 {
				return fmt.Errorf("sqlparse: coefficients are only valid in join predicates")
			}
			ref, err := resolve(*colAST)
			if err != nil {
				return err
			}
			stats, err := numericStats(ref)
			if err != nil {
				return err
			}
			switch op {
			case "<", "<=":
				if p.NoRefine {
					q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: ref, Lo: math.Inf(-1), Hi: num})
					return nil
				}
				// Interval anchored at the attribute minimum (§2.2), over
				// the finite values: an infinite extreme would make the
				// width infinite and every violation 0.
				width := num - stats.FiniteMin
				if width <= 0 {
					width = stats.FiniteMax - stats.FiniteMin
				}
				if width <= 0 {
					width = 100
				}
				q.Dims = append(q.Dims, relq.Dimension{Kind: relq.SelectLE, Col: ref, Bound: num, Width: width})
			case ">", ">=":
				if p.NoRefine {
					q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: ref, Lo: num, Hi: math.Inf(1)})
					return nil
				}
				width := stats.FiniteMax - num
				if width <= 0 {
					width = stats.FiniteMax - stats.FiniteMin
				}
				if width <= 0 {
					width = 100
				}
				q.Dims = append(q.Dims, relq.Dimension{Kind: relq.SelectGE, Col: ref, Bound: num, Width: width})
			case "=":
				if p.NoRefine {
					q.Fixed = append(q.Fixed, relq.FixedPred{Kind: relq.FixedRange, Col: ref, Lo: num, Hi: num})
					return nil
				}
				q.Dims = append(q.Dims, relq.Dimension{Kind: relq.SelectEQ, Col: ref, Bound: num, Width: 100})
			default:
				return fmt.Errorf("sqlparse: unsupported predicate operator %q", op)
			}
			return nil
		}

	default:
		return fmt.Errorf("sqlparse: internal: unknown predicate kind")
	}
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

// FuncNames lists the aggregate function spellings Analyze accepts,
// for diagnostics.
func FuncNames() string {
	return strings.Join([]string{"COUNT", "SUM", "MIN", "MAX", "AVG"}, ", ")
}
