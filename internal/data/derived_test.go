package data

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestDerivedOncePerGeneration: sixteen goroutines' first lookup builds one
// value, which every later lookup of the generation shares; an append and
// a Touch each move the generation, and the next lookup builds afresh
// from the current contents — the float view and Stats included.
func TestDerivedOncePerGeneration(t *testing.T) {
	tbl := NewTable("x", MustSchema(Column{Name: "i", Type: Int64}))
	for _, v := range []int64{4, 1, 3} {
		if err := tbl.AppendRow(IntValue(v)); err != nil {
			t.Fatal(err)
		}
	}
	var builds atomic.Int32
	sum := func(vec []float64) (*float64, error) {
		builds.Add(1)
		s := 0.0
		for _, v := range vec {
			s += v
		}
		return &s, nil
	}
	lookup := func() *float64 {
		t.Helper()
		got := make([]*float64, 16)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p, err := Derived(tbl, 0, SortedIndex, sum)
				if err != nil {
					t.Error(err)
				}
				got[g] = p
			}(g)
		}
		wg.Wait()
		for _, p := range got[1:] {
			if p != got[0] {
				t.Fatal("one generation's lookups returned different values")
			}
		}
		return got[0]
	}
	check := func(step string, wantSum float64, wantBuilds int32) {
		t.Helper()
		if p := lookup(); *p != wantSum || builds.Load() != wantBuilds {
			t.Fatalf("%s: sum %v after %d builds, want %v after %d", step, *p, builds.Load(), wantSum, wantBuilds)
		}
		v1, _ := tbl.NumericColumn(0)
		v2, _ := tbl.NumericColumn(0)
		if &v1[0] != &v2[0] {
			t.Fatalf("%s: the float view was copied again", step)
		}
	}
	check("first use", 8, 1)
	check("warm", 8, 1)

	gen := tbl.Gen()
	if err := tbl.AppendRow(IntValue(10)); err != nil {
		t.Fatal(err)
	}
	if tbl.Gen() == gen {
		t.Fatal("AppendRow kept the generation")
	}
	check("after append", 18, 2)
	if s, _ := tbl.Stats(0); s.Max != 10 {
		t.Fatalf("Stats after append: %+v", s)
	}

	ints, _ := tbl.Ints(0)
	ints[0] = 20 // in place: invisible until Touch
	check("rewrite without Touch", 18, 2)
	gen = tbl.Gen()
	tbl.Touch()
	if tbl.Gen() == gen {
		t.Fatal("Touch kept the generation")
	}
	check("after Touch", 34, 3)
	if s, _ := tbl.Stats(0); s.Max != 20 {
		t.Fatalf("Stats after Touch: %+v", s)
	}
	if other := NewTable("x", tbl.Schema()); other.Gen() == tbl.Gen() {
		t.Fatal("two tables share a generation")
	}
}
