package exec

import (
	"math"
	"math/rand"
	"testing"
)

func TestF64GroupsMatchesMapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vec := make([]float64, 800)
	for i := range vec {
		switch r := rng.Intn(20); {
		case r == 0:
			vec[i] = math.NaN()
		case r == 1:
			vec[i] = math.Copysign(0, -1)
		default:
			vec[i] = math.Floor(rng.Float64() * 40)
		}
	}
	rows := make([]int32, len(vec))
	for i := range rows {
		rows[i] = int32(i)
	}
	const coef = 2.5

	g := buildF64Groups(rows, vec, coef)

	// Oracle: a Go map build. NaN-keyed entries exist in the map
	// but are unreachable by lookup; f64Groups drops them at build.
	ht := make(map[float64][]int32, len(rows))
	for _, r := range rows {
		ht[coef*vec[r]] = append(ht[coef*vec[r]], r)
	}
	probes := []float64{math.NaN(), math.Inf(1), 0, math.Copysign(0, -1)}
	for k := 0.0; k <= 100; k += 0.5 {
		probes = append(probes, k)
	}
	for _, k := range probes {
		want := ht[k] // map lookup with NaN misses — same as g.lookup
		got := g.lookup(k)
		if len(got) != len(want) {
			t.Fatalf("lookup(%v): %d rows, map has %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("lookup(%v)[%d] = %d, map order has %d (per-key input order must be preserved)",
					k, i, got[i], want[i])
			}
		}
	}
}

func TestF64GroupsDenseMatchesMapBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vec := make([]float64, 600)
	for i := range vec {
		switch r := rng.Intn(25); {
		case r == 0:
			vec[i] = math.NaN()
		case r == 1:
			vec[i] = math.Copysign(0, -1)
		default:
			vec[i] = math.Floor(rng.Float64() * 900) // integral keys
		}
	}
	rows := make([]int32, len(vec))
	for i := range rows {
		rows[i] = int32(i)
	}

	g := buildF64Groups(rows, vec, 1)
	if !g.dense {
		t.Fatal("integral small-span keys must take the dense group build")
	}
	ht := make(map[float64][]int32, len(rows))
	for _, r := range rows {
		ht[vec[r]] = append(ht[vec[r]], r)
	}
	probes := []float64{math.NaN(), math.Inf(1), -3, 0.25, 1e9, 0, math.Copysign(0, -1)}
	for k := 0.0; k <= 910; k++ {
		probes = append(probes, k)
	}
	for _, k := range probes {
		want := ht[k]
		got := g.lookup(k)
		if len(got) != len(want) {
			t.Fatalf("dense lookup(%v): %d rows, map has %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dense lookup(%v)[%d] = %d, map order has %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestF64GroupsDenseIneligible pins which builds may take the
// bitmap-indexed mode.
func TestF64GroupsDenseIneligible(t *testing.T) {
	rows := []int32{0, 1}
	for name, vec := range map[string][]float64{
		"fractional keys":  {1.5, 2},
		"a huge key span":  {0, 1e9},
		"an infinite key":  {1, math.Inf(1)},
		"only NaN keys":    {math.NaN(), math.NaN()},
		"a -infinite key":  {math.Inf(-1), 3},
		"fractional coefs": {1, 3},
	} {
		coef := 1.0
		if name == "fractional coefs" {
			coef = 0.5
		}
		if buildF64Groups(rows, vec, coef).dense {
			t.Errorf("%s must not take the dense path", name)
		}
	}
}

func TestHashF64NormalizesZero(t *testing.T) {
	if hashF64(normKey(0)) != hashF64(normKey(math.Copysign(0, -1))) {
		t.Error("+0 and -0 must hash identically after normKey")
	}
}
