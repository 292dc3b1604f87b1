package relq

import (
	"math"
	"sort"
	"strings"
)

// Fingerprint is a 128-bit canonical hash of the result-determining
// shape of a query (tables, dimensions, fixed predicates, aggregate
// spec) optionally extended with a violation region. It keys the
// cross-search partial-aggregate cache: two (query, region) pairs with
// equal fingerprints produce byte-identical agg.Partial results, so a
// cached partial can stand in for a cold execution.
//
// Only fields that affect which tuples qualify and how they accumulate
// are hashed. Constraint.Op and Constraint.Target steer the search, not
// the partial; Dimension.Name, .Weight and .MaxScore steer rendering
// and frontier order. All of those are deliberately excluded, so
// searches that differ only in target or norm share cache entries.
//
// The two words are independent FNV-1a-64 streams over the same
// canonical byte sequence (the second stream whitens each byte), giving
// a 128-bit key; accidental collision of both words is negligible at
// cache scale.
type Fingerprint struct {
	Hi, Lo uint64
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
	// fnvOffsetAlt decorrelates the second stream's initial state
	// (golden-ratio constant).
	fnvOffsetAlt uint64 = fnvOffset64 ^ 0x9e3779b97f4a7c15
)

func (f *Fingerprint) byte(b byte) {
	f.Hi = (f.Hi ^ uint64(b)) * fnvPrime64
	f.Lo = (f.Lo ^ uint64(b^0xa5)) * fnvPrime64
}

func (f *Fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

// str hashes a length-prefixed string so adjacent fields cannot run
// into each other ("ab"+"c" vs "a"+"bc").
func (f *Fingerprint) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

// f64 hashes a float quantized to 1e-9 units — the same epsilon the
// search uses for score comparisons (ScoresAlmostEqual) — so bounds
// that differ only by accumulated grid arithmetic jitter collapse to
// one entry, while any materially different bound separates.
func (f *Fingerprint) f64(v float64) {
	f.u64(quantize(v))
}

// quantize maps a float to a stable integer code: round(v·1e9) with
// saturation, plus distinct codes for the non-finite values.
func quantize(v float64) uint64 {
	switch {
	case math.IsNaN(v):
		return math.MaxUint64
	case math.IsInf(v, 1):
		return math.MaxUint64 - 1
	case math.IsInf(v, -1):
		return math.MaxUint64 - 2
	}
	r := math.Round(v * 1e9)
	switch {
	case r >= math.MaxInt64:
		return uint64(math.MaxInt64)
	case r <= math.MinInt64:
		return uint64(1) << 63 // MinInt64 bit pattern
	}
	return uint64(int64(r))
}

// coefOr1 normalizes join coefficients: 0 means 1 everywhere a
// coefficient is consumed (JoinViolation, the engine's bindings), so
// the two spellings must fingerprint identically.
func coefOr1(c float64) float64 {
	if c == 0 {
		return 1
	}
	return c
}

func (f *Fingerprint) colRef(c ColumnRef) {
	f.str(strings.ToLower(c.Table))
	f.str(strings.ToLower(c.Column))
}

// QueryFingerprint hashes the canonical shape of q. Table and dimension
// order are significant (dimension i is axis i of every region; table
// order fixes the join fold), but fixed predicates are an unordered
// conjunction and IN-sets are unordered, so both are canonicalized —
// reordering NOREFINE clauses or IN values hits the same entry.
func QueryFingerprint(q *Query) Fingerprint {
	f := Fingerprint{Hi: fnvOffset64, Lo: fnvOffsetAlt}
	f.str("acq-fp-v1")

	f.u64(uint64(len(q.Tables)))
	for _, t := range q.Tables {
		f.str(strings.ToLower(t))
	}

	f.u64(uint64(len(q.Dims)))
	for i := range q.Dims {
		d := &q.Dims[i]
		f.byte(byte(d.Kind))
		switch d.Kind {
		case JoinBand:
			f.colRef(d.Left)
			f.colRef(d.Right)
			f.f64(coefOr1(d.LCoef))
			f.f64(coefOr1(d.RCoef))
			f.f64(d.Base)
		default:
			f.colRef(d.Col)
			f.f64(d.Bound)
		}
		f.f64(d.Width)
	}

	// Fixed predicates: hash each into its own sub-fingerprint, then
	// fold the sub-hashes in sorted order — conjunctive filters are
	// order-insensitive, so equivalent orderings must collide.
	subs := make([]Fingerprint, len(q.Fixed))
	for i := range q.Fixed {
		subs[i] = fixedFingerprint(&q.Fixed[i])
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Hi != subs[j].Hi {
			return subs[i].Hi < subs[j].Hi
		}
		return subs[i].Lo < subs[j].Lo
	})
	f.u64(uint64(len(subs)))
	for _, s := range subs {
		f.u64(s.Hi)
		f.u64(s.Lo)
	}

	c := &q.Constraint
	f.byte(byte(c.Func))
	f.colRef(c.Attr)
	f.str(c.UserName)
	return f
}

func fixedFingerprint(p *FixedPred) Fingerprint {
	f := Fingerprint{Hi: fnvOffset64, Lo: fnvOffsetAlt}
	f.byte(byte(p.Kind))
	switch p.Kind {
	case FixedRange:
		f.colRef(p.Col)
		f.f64(p.Lo)
		f.f64(p.Hi)
	case FixedEquiJoin:
		f.colRef(p.Left)
		f.colRef(p.Right)
		f.f64(coefOr1(p.LCoef))
		f.f64(coefOr1(p.RCoef))
	case FixedStringIn:
		f.colRef(p.Col)
		vals := append([]string(nil), p.Values...)
		sort.Strings(vals)
		f.u64(uint64(len(vals)))
		for _, v := range vals {
			f.str(v)
		}
	}
	return f
}

// Mix folds extra words into the fingerprint — the engine mixes each
// bound table's generation (data.Table.Gen), so an append, a catalog
// Replace or a Touch retires every entry of the table's queries without
// an explicit invalidation.
func (f Fingerprint) Mix(vals ...uint64) Fingerprint {
	for _, v := range vals {
		f.u64(v)
	}
	return f
}

// WithRegion extends the query fingerprint with the quantized interval
// bounds of a violation region, yielding the full cache key of one
// (query shape, aggregate spec, region) execution.
func (f Fingerprint) WithRegion(r Region) Fingerprint {
	f.u64(uint64(len(r)))
	for _, iv := range r {
		f.f64(iv.Lo)
		f.f64(iv.Hi)
	}
	return f
}
