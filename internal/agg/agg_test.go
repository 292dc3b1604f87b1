package agg

import (
	"math"
	"testing"
	"testing/quick"

	"acquire/internal/relq"
)

// clampDomain maps arbitrary generated floats onto the finite, modest
// magnitudes attribute domains actually take; summation order tolerance
// in these tests assumes no catastrophic cancellation at 1e308.
func clampDomain(vals []float64) {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			vals[i] = 1
			continue
		}
		vals[i] = math.Mod(v, 1e6)
	}
}

func partialOf(vals ...float64) Partial {
	p := Zero()
	for _, v := range vals {
		p.Step(v)
	}
	return p
}

func TestZeroIsIdentity(t *testing.T) {
	p := partialOf(3, -1, 7)
	if got := Merge(p, Zero()); got != p {
		t.Errorf("Merge(p, Zero()) = %+v, want %+v", got, p)
	}
	if got := Merge(Zero(), p); got != p {
		t.Errorf("Merge(Zero(), p) = %+v, want %+v", got, p)
	}
}

// Property (§2.6 OSP): folding a slice in one pass equals merging the
// partials of any split of the slice.
func TestMergeEqualsSplitFold(t *testing.T) {
	f := func(vals []float64, splitAt uint) bool {
		clampDomain(vals)
		if len(vals) == 0 {
			return true
		}
		k := int(splitAt % uint(len(vals)))
		whole := partialOf(vals...)
		merged := Merge(partialOf(vals[:k]...), partialOf(vals[k:]...))
		return whole.Count == merged.Count &&
			math.Abs(whole.Sum-merged.Sum) <= 1e-9*(1+math.Abs(whole.Sum)) &&
			whole.Min == merged.Min && whole.Max == merged.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The §2.6 merge corners the random property above clamps away: every
// split of a hand-written input — an empty side, all rows on one side,
// ±Inf and NaN values — must merge to the one-pass fold. COUNT, MIN and
// MAX are picked, never rounded, so they must match exactly (MIN/MAX
// ignore NaN in both); SUM may re-associate, or be NaN on both sides.
// AVG must recompose from the merged SUM and COUNT.
func TestMergeEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sameBits := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	cases := []struct {
		name string
		vals []float64
	}{
		{"empty", nil},
		{"one-row", []float64{2.5}},
		{"finite", []float64{3, 1, 4, 1, 5, 9, 2, 6}},
		{"inf", []float64{1, inf, 2, -inf, 3, 4}},
		{"only-inf", []float64{inf, inf}},
		{"nan", []float64{1, nan, 2, 3, nan, 4}},
		{"only-nan", []float64{nan, nan, nan}},
		{"nan-and-inf", []float64{nan, -inf, 7, nan, inf}},
	}
	avg := Spec{Func: relq.AggAvg}
	for _, c := range cases {
		whole := partialOf(c.vals...)
		for k := 0; k <= len(c.vals); k++ {
			merged := Merge(partialOf(c.vals[:k]...), partialOf(c.vals[k:]...))
			if merged.Count != whole.Count || !sameBits(merged.Min, whole.Min) || !sameBits(merged.Max, whole.Max) {
				t.Errorf("%s split %d: merged %+v, one pass %+v", c.name, k, merged, whole)
			}
			if !(math.IsNaN(merged.Sum) && math.IsNaN(whole.Sum)) &&
				!(merged.Sum == whole.Sum || math.Abs(merged.Sum-whole.Sum) <= 1e-9*(1+math.Abs(whole.Sum))) {
				t.Errorf("%s split %d: sum %v, one pass %v", c.name, k, merged.Sum, whole.Sum)
			}
			got, want := avg.Final(merged), avg.Final(whole)
			if whole.Count > 0 && !sameBits(got, merged.Sum/float64(merged.Count)) {
				t.Errorf("%s split %d: AVG %v does not recompose from SUM/COUNT", c.name, k, got)
			}
			if !sameBits(got, want) && math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s split %d: AVG %v, one pass %v", c.name, k, got, want)
			}
		}
	}
}

// Property: Merge is commutative.
func TestMergeCommutative(t *testing.T) {
	f := func(a, b []float64) bool {
		clampDomain(a)
		clampDomain(b)
		pa, pb := partialOf(a...), partialOf(b...)
		x, y := Merge(pa, pb), Merge(pb, pa)
		return x.Count == y.Count && x.Min == y.Min && x.Max == y.Max &&
			math.Abs(x.Sum-y.Sum) <= 1e-9*(1+math.Abs(x.Sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpecFinal(t *testing.T) {
	p := partialOf(2, 8, 5)
	cases := []struct {
		f    relq.AggFunc
		want float64
	}{
		{relq.AggCount, 3},
		{relq.AggSum, 15},
		{relq.AggMin, 2},
		{relq.AggMax, 8},
		{relq.AggAvg, 5},
	}
	for _, c := range cases {
		if got := (Spec{Func: c.f}).Final(p); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestSpecFinalEmpty(t *testing.T) {
	p := Zero()
	if got := (Spec{Func: relq.AggCount}).Final(p); got != 0 {
		t.Errorf("COUNT(empty) = %v", got)
	}
	if got := (Spec{Func: relq.AggSum}).Final(p); got != 0 {
		t.Errorf("SUM(empty) = %v", got)
	}
	for _, f := range []relq.AggFunc{relq.AggMin, relq.AggMax, relq.AggAvg} {
		if got := (Spec{Func: f}).Final(p); !math.IsNaN(got) {
			t.Errorf("%s(empty) = %v, want NaN", f, got)
		}
	}
}

func TestUDARegistry(t *testing.T) {
	sumsq := UDA{
		Name:  "sumsq",
		Map:   func(v float64) float64 { return v * v },
		Final: func(p Partial) float64 { return p.User },
	}
	if err := RegisterUDA(sumsq); err != nil {
		t.Fatalf("RegisterUDA: %v", err)
	}
	defer UnregisterUDA("sumsq")
	if err := RegisterUDA(sumsq); err == nil {
		t.Error("duplicate RegisterUDA: expected error")
	}
	if err := RegisterUDA(UDA{Name: "bad"}); err == nil {
		t.Error("incomplete UDA: expected error")
	}

	spec, err := SpecFor(relq.Constraint{
		Func: relq.AggUser, UserName: "sumsq",
		Attr: relq.ColumnRef{Table: "t", Column: "x"}, Op: relq.CmpEQ, Target: 1,
	})
	if err != nil {
		t.Fatalf("SpecFor: %v", err)
	}
	p := Zero()
	for _, v := range []float64{1, 2, 3} {
		spec.StepValue(&p, v)
	}
	if got := spec.Final(p); got != 14 {
		t.Errorf("sumsq = %v, want 14", got)
	}

	// UDA merging satisfies OSP too.
	p1, p2 := Zero(), Zero()
	spec.StepValue(&p1, 1)
	spec.StepValue(&p2, 2)
	spec.StepValue(&p2, 3)
	if got := spec.Final(Merge(p1, p2)); got != 14 {
		t.Errorf("merged sumsq = %v, want 14", got)
	}

	found := false
	for _, n := range RegisteredUDAs() {
		if n == "sumsq" {
			found = true
		}
	}
	if !found {
		t.Error("RegisteredUDAs missing sumsq")
	}

	if _, err := SpecFor(relq.Constraint{
		Func: relq.AggUser, UserName: "nope",
		Attr: relq.ColumnRef{Table: "t", Column: "x"}, Op: relq.CmpEQ, Target: 1,
	}); err == nil {
		t.Error("SpecFor unknown UDA: expected error")
	}
}

func TestHasOSP(t *testing.T) {
	for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum, relq.AggMin, relq.AggMax, relq.AggAvg, relq.AggUser} {
		if !HasOSP(f) {
			t.Errorf("HasOSP(%s) = false", f)
		}
	}
	if HasOSP(relq.AggFunc(99)) {
		t.Error("HasOSP(invalid) = true")
	}
}

func TestMonotone(t *testing.T) {
	if !(Spec{Func: relq.AggCount}).Monotone() || !(Spec{Func: relq.AggSum}).Monotone() || !(Spec{Func: relq.AggMax}).Monotone() {
		t.Error("COUNT/SUM/MAX should be monotone")
	}
	if (Spec{Func: relq.AggMin}).Monotone() || (Spec{Func: relq.AggAvg}).Monotone() {
		t.Error("MIN/AVG should not be monotone")
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(100, 95); got != 0.05 {
		t.Errorf("RelativeError(100,95) = %v", got)
	}
	if got := RelativeError(100, 105); got != 0.05 {
		t.Errorf("RelativeError(100,105) = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(0, 5); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(0,5) = %v", got)
	}
	if got := RelativeError(10, math.NaN()); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(·, NaN) = %v", got)
	}
}

func TestHingeError(t *testing.T) {
	if got := HingeError(100, 120); got != 0 {
		t.Errorf("overshoot hinge = %v, want 0", got)
	}
	if got := HingeError(100, 80); got != 0.2 {
		t.Errorf("undershoot hinge = %v, want 0.2", got)
	}
	if got := HingeError(0, 0); got != 0 {
		t.Errorf("HingeError(0,0) = %v", got)
	}
	if got := HingeError(10, math.NaN()); !math.IsInf(got, 1) {
		t.Errorf("HingeError(·, NaN) = %v", got)
	}
}

func TestDefaultError(t *testing.T) {
	relCases := []relq.Constraint{
		{Func: relq.AggCount, Op: relq.CmpEQ, Target: 10},
		{Func: relq.AggAvg, Attr: relq.ColumnRef{Table: "t", Column: "x"}, Op: relq.CmpEQ, Target: 10},
	}
	for _, c := range relCases {
		fn := DefaultError(c)
		if fn(100, 120) == 0 {
			t.Errorf("%s =-constraint should penalise overshoot", c.Func)
		}
	}
	hingeCases := []relq.Constraint{
		{Func: relq.AggSum, Attr: relq.ColumnRef{Table: "t", Column: "x"}, Op: relq.CmpEQ, Target: 10},
		{Func: relq.AggCount, Op: relq.CmpGE, Target: 10},
	}
	for _, c := range hingeCases {
		fn := DefaultError(c)
		if fn(100, 120) != 0 {
			t.Errorf("%s %s-constraint should not penalise overshoot", c.Func, c.Op)
		}
	}
}

func TestSatisfiedAndOvershoots(t *testing.T) {
	if !Satisfied(RelativeError, 100, 96, 0.05) {
		t.Error("96 within 5% of 100")
	}
	if Satisfied(RelativeError, 100, 90, 0.05) {
		t.Error("90 not within 5% of 100")
	}
	c := relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 100}
	if !Overshoots(c, 120, 0.05) {
		t.Error("120 overshoots 100 at δ=0.05")
	}
	if Overshoots(c, 104, 0.05) {
		t.Error("104 does not overshoot 100 at δ=0.05")
	}
	cGE := relq.Constraint{Func: relq.AggCount, Op: relq.CmpGE, Target: 100}
	if Overshoots(cGE, 1e9, 0.05) {
		t.Error(">= constraints never overshoot")
	}
	if Overshoots(c, math.NaN(), 0.05) {
		t.Error("NaN never overshoots")
	}
}
