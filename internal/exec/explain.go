package exec

import (
	"fmt"
	"strings"

	"acquire/internal/relq"
)

// PlanStep describes one access or join decision of a query execution.
type PlanStep struct {
	// Table is the table this step concerns.
	Table string
	// Access is "index range scan", "full scan", "grid-index skip", or
	// "no scan" when a select dimension's interval admits no value.
	Access string
	// DrivingColumn names the column whose sorted index drives the
	// scan (empty for full scans).
	DrivingColumn string
	// EstimatedRows is the access path's candidate estimate.
	EstimatedRows int
	// Join is how this table attaches to the previously joined set:
	// "", "hash equi-join", "band join", "cartesian".
	Join string
}

// Plan is the engine's EXPLAIN output: the per-table access decisions
// and join order it would use for the query at the region, computed
// without executing.
type Plan struct {
	Steps []PlanStep
}

// String renders the plan.
func (p *Plan) String() string {
	var b strings.Builder
	for i, s := range p.Steps {
		fmt.Fprintf(&b, "%d. %s: %s", i+1, s.Table, s.Access)
		if s.DrivingColumn != "" {
			fmt.Fprintf(&b, " on %s", s.DrivingColumn)
		}
		if s.EstimatedRows >= 0 {
			fmt.Fprintf(&b, " (~%d rows)", s.EstimatedRows)
		}
		if s.Join != "" {
			fmt.Fprintf(&b, ", attached by %s", s.Join)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Explain computes the access plan for the query at the region without
// executing it: for each table, the driving condition the scan would
// pick; then the join order and join methods.
func (e *Engine) Explain(q *relq.Query, region relq.Region) (*Plan, error) {
	b, err := e.bind(q)
	if err != nil {
		return nil, err
	}
	if len(region) != len(q.Dims) {
		return nil, fmt.Errorf("exec: region has %d dims, query has %d", len(region), len(q.Dims))
	}
	plan := &Plan{}

	// Per-table access decisions: the scan's own (accessPath).
	grids := e.bindGrids(b)
	sc := new(regionScratch)
	access := make([]PlanStep, len(b.tables))
	for ti, t := range b.tables {
		n := t.NumRows()
		step := PlanStep{Table: t.Name(), Access: "full scan", EstimatedRows: n}

		if grids != nil && cellProvablyEmpty(b, &grids[ti], sc, region, ti) {
			step.Access = "grid-index skip"
			step.EstimatedRows = 0
			access[ti] = step
			continue
		}

		ac, err := e.accessPath(b, region, ti, sc)
		if err != nil {
			return nil, err
		}
		switch {
		case ac.empty:
			step.Access = "no scan"
			step.EstimatedRows = 0
		case ac.indexed:
			step.Access = "index range scan"
			step.DrivingColumn = t.Schema().Columns[ac.drive.ord].Name
			step.EstimatedRows = ac.hi - ac.lo
		}
		access[ti] = step
	}

	// Join order and methods, from the attach plan execution uses.
	edges := e.attachPlan(b)
	plan.Steps = make([]PlanStep, len(b.tables))
	for ti, edge := range edges {
		s := access[ti]
		switch {
		case edge.equi != nil:
			s.Join = "hash equi-join"
		case edge.band != nil:
			s.Join = "band join"
		case edge.slot > 0:
			s.Join = "cartesian"
		}
		plan.Steps[edge.slot] = s
	}
	return plan, nil
}
