package relq

import (
	"math"
	"testing"
)

func fpQuery() *Query {
	return &Query{
		Tables: []string{"users"},
		Fixed: []FixedPred{
			{Kind: FixedRange, Col: ColumnRef{Table: "users", Column: "clicks"}, Lo: 0, Hi: 100},
			{Kind: FixedStringIn, Col: ColumnRef{Table: "users", Column: "gender"}, Values: []string{"f", "m"}},
		},
		Dims: []Dimension{
			{Kind: SelectLE, Col: ColumnRef{Table: "users", Column: "age"}, Bound: 30, Width: 50},
			{Kind: SelectGE, Col: ColumnRef{Table: "users", Column: "income"}, Bound: 40000, Width: 80000},
		},
		Constraint: Constraint{Func: AggCount, Op: CmpEQ, Target: 1000},
	}
}

// Clones and case variants must collide; the fingerprint is the cache
// identity, so any instability would make every search cold.
func TestFingerprintStable(t *testing.T) {
	q := fpQuery()
	a := QueryFingerprint(q)
	b := QueryFingerprint(q.Clone())
	if a != b {
		t.Fatalf("clone fingerprint differs: %x != %x", a, b)
	}
	up := q.Clone()
	up.Tables[0] = "USERS"
	up.Dims[0].Col.Column = "AGE"
	if got := QueryFingerprint(up); got != a {
		t.Errorf("case variant fingerprint differs: %x != %x", got, a)
	}
}

// Search-policy fields must not affect the fingerprint: searches that
// differ only in target, operator, norm weights or labels share the
// same partials.
func TestFingerprintIgnoresPolicyFields(t *testing.T) {
	q := fpQuery()
	a := QueryFingerprint(q)
	v := q.Clone()
	v.Constraint.Op = CmpGE
	v.Constraint.Target = 999999
	v.Dims[0].Name = "age-cap"
	v.Dims[0].Weight = 7
	v.Dims[1].MaxScore = 42
	if got := QueryFingerprint(v); got != a {
		t.Errorf("policy-only variant fingerprint differs: %x != %x", got, a)
	}
}

// Equivalent conjunctions collide: fixed predicates reordered, IN-set
// values reordered, join coefficients spelled 0 vs 1.
func TestFingerprintCanonicalization(t *testing.T) {
	q := fpQuery()
	a := QueryFingerprint(q)
	v := q.Clone()
	v.Fixed[0], v.Fixed[1] = v.Fixed[1], v.Fixed[0]
	v.Fixed[0].Values = []string{"m", "f"}
	if got := QueryFingerprint(v); got != a {
		t.Errorf("reordered conjunction fingerprint differs: %x != %x", got, a)
	}

	j := &Query{
		Tables: []string{"a", "b"},
		Dims: []Dimension{{
			Kind: JoinBand,
			Left: ColumnRef{Table: "a", Column: "x"}, Right: ColumnRef{Table: "b", Column: "y"},
			Width: 100,
		}},
		Constraint: Constraint{Func: AggCount},
	}
	fj := QueryFingerprint(j)
	j2 := j.Clone()
	j2.Dims[0].LCoef, j2.Dims[0].RCoef = 1, 1
	if got := QueryFingerprint(j2); got != fj {
		t.Errorf("coef 0 vs 1 fingerprint differs: %x != %x", got, fj)
	}
}

// Every result-determining field must separate fingerprints.
func TestFingerprintSensitivity(t *testing.T) {
	base := QueryFingerprint(fpQuery())
	mutate := []struct {
		name string
		mut  func(*Query)
	}{
		{"table", func(q *Query) { q.Tables[0] = "people" }},
		{"dim-kind", func(q *Query) { q.Dims[0].Kind = SelectGE }},
		{"dim-col", func(q *Query) { q.Dims[0].Col.Column = "height" }},
		{"dim-bound", func(q *Query) { q.Dims[0].Bound = 31 }},
		{"dim-width", func(q *Query) { q.Dims[0].Width = 51 }},
		{"dim-order", func(q *Query) { q.Dims[0], q.Dims[1] = q.Dims[1], q.Dims[0] }},
		{"fixed-hi", func(q *Query) { q.Fixed[0].Hi = 101 }},
		{"fixed-values", func(q *Query) { q.Fixed[1].Values = []string{"f"} }},
		{"fixed-dropped", func(q *Query) { q.Fixed = q.Fixed[:1] }},
		{"agg-func", func(q *Query) {
			q.Constraint.Func = AggSum
			q.Constraint.Attr = ColumnRef{Table: "users", Column: "age"}
		}},
		{"uda-name", func(q *Query) { q.Constraint.UserName = "revenue" }},
	}
	for _, m := range mutate {
		q := fpQuery()
		m.mut(q)
		if got := QueryFingerprint(q); got == base {
			t.Errorf("%s: mutated query fingerprint collides with base", m.name)
		}
	}
}

// Region extension separates distinct regions however close or large
// their bounds, folds only the float values comparisons cannot tell
// apart (−0 and +0, NaN payloads), and distinguishes the -1
// closed-at-zero sentinel from a zero lower bound.
func TestFingerprintWithRegion(t *testing.T) {
	fp := QueryFingerprint(fpQuery())
	r1 := PrefixRegion([]float64{5, 10})
	r2 := PrefixRegion([]float64{5, 10.5})
	a, b := fp.WithRegion(r1), fp.WithRegion(r2)
	if a == b {
		t.Fatal("distinct regions collide")
	}
	// (−1, 5+1e-12] admits rows (−1, 5] does not.
	jitter := PrefixRegion([]float64{5 + 1e-12, 10})
	if got := fp.WithRegion(jitter); got == a {
		t.Errorf("regions 1e-12 apart collide: %x", got)
	}
	if fp.WithRegion(Region{{Lo: -1, Hi: 1.2e10}}) == fp.WithRegion(Region{{Lo: -1, Hi: 1.8e10}}) {
		t.Error("bounds beyond 9.2e9 collide")
	}
	if fp.WithRegion(Region{{Lo: math.Copysign(0, -1), Hi: 5}}) != fp.WithRegion(Region{{Lo: 0, Hi: 5}}) {
		t.Error("-0 and +0 separate")
	}
	if fp.WithRegion(Region{{Lo: -1, Hi: math.NaN()}}) != fp.WithRegion(Region{{Lo: -1, Hi: math.Float64frombits(0x7ff8000000000bad)}}) {
		t.Error("NaN payloads separate")
	}
	sentinel := Region{{Lo: -1, Hi: 0}, {Lo: -1, Hi: 0}}
	zero := Region{{Lo: 0, Hi: 0}, {Lo: 0, Hi: 0}}
	if fp.WithRegion(sentinel) == fp.WithRegion(zero) {
		t.Error("closed-at-zero sentinel collides with open-at-zero interval")
	}
	if fp.WithRegion(Region{{Lo: -1, Hi: math.Inf(1)}}) == fp.WithRegion(Region{{Lo: -1, Hi: math.MaxFloat64}}) {
		t.Error("+Inf bound collides with MaxFloat64")
	}
}

// Mix folds generation words: different row counts must yield different
// keys (append-invalidation depends on it), same count the same key.
func TestFingerprintMix(t *testing.T) {
	fp := QueryFingerprint(fpQuery())
	if fp.Mix(1000) == fp.Mix(1001) {
		t.Error("row-count generations collide")
	}
	if fp.Mix(1000) != fp.Mix(1000) {
		t.Error("Mix is not deterministic")
	}
	if fp.Mix(1000) == fp {
		t.Error("Mix is a no-op")
	}
}
