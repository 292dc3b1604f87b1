// Package agg implements the aggregate functions ACQUIRE supports and
// the optimal substructure property (OSP, §2.6 of the paper) they must
// satisfy: the aggregate of a query Q1 containing Q2 is computable from
// the aggregate of Q2 and the aggregate of Q1−Q2, without re-scanning.
//
// Every aggregate is represented as a Partial — a mergeable summary —
// plus a Spec describing how tuples feed it and how a final value is
// extracted. COUNT, SUM, MIN and MAX merge directly; AVG decomposes
// into a (SUM, COUNT) pair as §2.6 prescribes. User-defined aggregates
// register a commutative monoid over float64 summaries.
package agg

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"acquire/internal/relq"
)

// Partial is a mergeable aggregate summary: sum and count are carried
// together so AVG (and UDAs built on them) need no second pass.
type Partial struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
	// User is the UDA's own summary value when a UDA is in play.
	User float64
}

// Zero returns the identity Partial: merging it changes nothing.
func Zero() Partial {
	return Partial{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Step folds one tuple's aggregate-attribute value into the partial.
func (p *Partial) Step(v float64) {
	p.Count++
	p.Sum += v
	p.Min = FoldMin(p.Min, v)
	p.Max = FoldMax(p.Max, v)
}

// FoldMin folds v into the running minimum m. It orders −0 below +0, as
// math.Min does in Merge, so a minimum over signed zeros does not depend
// on the order the values arrive in; a NaN v leaves m unchanged. When v
// equals m — every COUNT(*) row steps 1.0 — it costs one comparison more
// than v < m alone.
func FoldMin(m, v float64) float64 {
	if v <= m && (v < m || math.Signbit(v)) {
		return v
	}
	return m
}

// FoldMax folds v into the running maximum m, ordering +0 above −0 as
// math.Max does; a NaN v leaves m unchanged.
func FoldMax(m, v float64) float64 {
	if v >= m && (v > m || !math.Signbit(v)) {
		return v
	}
	return m
}

// Merge combines two partials; this is the OSP merge of §2.6. It is
// commutative with Zero as identity. Count, Min and Max are associative
// too; Sum and User are not, in floating point, so regrouping the same
// partials can move the last bits of a sum (property-tested within a
// tolerance).
func Merge(a, b Partial) Partial {
	return Partial{
		Count: a.Count + b.Count,
		Sum:   a.Sum + b.Sum,
		Min:   math.Min(a.Min, b.Min),
		Max:   math.Max(a.Max, b.Max),
		User:  a.User + b.User,
	}
}

// ApproxEqual compares two partials field by field: Count, Min and Max
// must match exactly (merging picks values, it never rounds them),
// while Sum and User — whose float association differs between an
// incremental recurrence and a direct scan — are compared with the
// given relative tolerance.
func ApproxEqual(a, b Partial, tol float64) bool {
	if a.Count != b.Count {
		return false
	}
	// Min/Max of empty partials are ±Inf; compare via equality that
	// treats equal infinities as equal (== does).
	if a.Min != b.Min || a.Max != b.Max {
		return false
	}
	near := func(x, y float64) bool {
		return math.Abs(x-y) <= tol*(1+math.Abs(x)+math.Abs(y))
	}
	return near(a.Sum, b.Sum) && near(a.User, b.User)
}

// Spec describes which aggregate the constraint asks for.
type Spec struct {
	Func relq.AggFunc
	// UserName selects a registered UDA when Func == relq.AggUser.
	UserName string
}

// SpecFor builds a Spec from a parsed constraint, resolving UDA names
// against the registry.
func SpecFor(c relq.Constraint) (Spec, error) {
	s := Spec{Func: c.Func, UserName: c.UserName}
	if c.Func == relq.AggUser {
		if _, err := lookupUDA(c.UserName); err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

// Final extracts the aggregate value from a partial. An empty partial
// yields 0 for COUNT/SUM and NaN for MIN/MAX/AVG (no defined value over
// an empty result, matching SQL's NULL).
func (s Spec) Final(p Partial) float64 {
	switch s.Func {
	case relq.AggCount:
		return float64(p.Count)
	case relq.AggSum:
		return p.Sum
	case relq.AggMin:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Min
	case relq.AggMax:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Max
	case relq.AggAvg:
		if p.Count == 0 {
			return math.NaN()
		}
		return p.Sum / float64(p.Count)
	case relq.AggUser:
		u, err := lookupUDA(s.UserName)
		if err != nil {
			return math.NaN()
		}
		return u.Final(p)
	default:
		return math.NaN()
	}
}

// StepValue folds a tuple value under the spec (UDAs may transform the
// input before accumulation).
func (s Spec) StepValue(p *Partial, v float64) {
	p.Step(v)
	if s.Func == relq.AggUser {
		if u, err := lookupUDA(s.UserName); err == nil {
			p.User += u.Map(v)
		}
	}
}

// Monotone reports whether growing the result set can only grow the
// aggregate value. COUNT and MAX are monotone always; SUM is monotone
// over non-negative attributes (the constraint targets the paper uses —
// quantities, counts — are non-negative; see relq.Constraint.Validate).
// Monotone aggregates let the search stop expanding a direction that
// already overshoots.
func (s Spec) Monotone() bool {
	switch s.Func {
	case relq.AggCount, relq.AggMax, relq.AggSum:
		return true
	default:
		return false
	}
}

// UDA is a user-defined aggregate satisfying OSP: tuples are mapped to
// float64 contributions which are summed across disjoint parts, and a
// final function combines the built-in summaries with the user sum.
// This captures §2.6(b): aggregates decomposable into OSP parts.
type UDA struct {
	Name string
	// Map transforms a tuple's attribute value into its additive
	// contribution.
	Map func(v float64) float64
	// Final extracts the aggregate from the accumulated partial.
	Final func(p Partial) float64
}

var (
	udaMu  sync.RWMutex
	udaReg = make(map[string]UDA)
)

// RegisterUDA registers a user-defined aggregate by name.
func RegisterUDA(u UDA) error {
	if u.Name == "" || u.Map == nil || u.Final == nil {
		return fmt.Errorf("agg: UDA must have name, map and final")
	}
	udaMu.Lock()
	defer udaMu.Unlock()
	if _, dup := udaReg[u.Name]; dup {
		return fmt.Errorf("agg: UDA %q already registered", u.Name)
	}
	udaReg[u.Name] = u
	return nil
}

// UnregisterUDA removes a UDA (tests use this to stay hermetic).
func UnregisterUDA(name string) {
	udaMu.Lock()
	defer udaMu.Unlock()
	delete(udaReg, name)
}

// RegisteredUDAs lists registered UDA names, sorted.
func RegisteredUDAs() []string {
	udaMu.RLock()
	defer udaMu.RUnlock()
	names := make([]string, 0, len(udaReg))
	for n := range udaReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupUDA(name string) (UDA, error) {
	udaMu.RLock()
	defer udaMu.RUnlock()
	u, ok := udaReg[name]
	if !ok {
		return UDA{}, fmt.Errorf("agg: unknown UDA %q", name)
	}
	return u, nil
}

// HasOSP reports whether the aggregate function satisfies the optimal
// substructure property directly or via decomposition (§2.6). STDDEV is
// the paper's canonical counter-example; it is representable as a UDA
// only approximately and is rejected by SpecFor absent registration.
func HasOSP(f relq.AggFunc) bool {
	switch f {
	case relq.AggCount, relq.AggSum, relq.AggMin, relq.AggMax, relq.AggAvg, relq.AggUser:
		return true
	default:
		return false
	}
}
