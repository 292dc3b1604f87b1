package data

import (
	"math"
	"math/rand"
	"testing"
)

// clusterTestTable builds an n-row numeric table with a float64 key
// column (including NaN and ±Inf sprinkles), an int64 payload and a
// string tag, so permutation bugs show up in every column kind.
func clusterTestTable(t *testing.T, n int, seed int64) *Table {
	t.Helper()
	tbl := NewTable("events", MustSchema(
		Column{Name: "key", Type: Float64},
		Column{Name: "payload", Type: Int64},
		Column{Name: "tag", Type: String},
	))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k := rng.Float64() * 1000
		switch rng.Intn(40) {
		case 0:
			k = math.NaN()
		case 1:
			k = math.Inf(1)
		case 2:
			k = math.Inf(-1)
		}
		if err := tbl.AppendRow(FloatValue(k), IntValue(int64(i)), StringValue(string(rune('a'+i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// appendClusterRows appends k more rows in the same style.
func appendClusterRows(t *testing.T, tbl *Table, k int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := tbl.NumRows()
	for i := 0; i < k; i++ {
		v := rng.Float64() * 1000
		if rng.Intn(20) == 0 {
			v = math.NaN()
		}
		if err := tbl.AppendRow(FloatValue(v), IntValue(int64(base+i)), StringValue("t")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSortedByClusterInfo(t *testing.T) {
	tbl := clusterTestTable(t, 500, 1)
	if col, sorted := tbl.ClusterInfo(); col != "" || sorted != 0 {
		t.Fatalf("fresh table ClusterInfo = (%q, %d), want empty", col, sorted)
	}
	sorted, err := SortedBy(tbl, "KEY") // case-insensitive lookup
	if err != nil {
		t.Fatal(err)
	}
	if col, n := sorted.ClusterInfo(); col != "key" || n != 500 {
		t.Fatalf("ClusterInfo = (%q, %d), want (key, 500)", col, n)
	}
	if sorted.ClusterTail() != 0 {
		t.Fatalf("ClusterTail = %d, want 0", sorted.ClusterTail())
	}

	// Ascending with NaNs last, and every original row still present.
	key, err := sorted.NumericColumn(0)
	if err != nil {
		t.Fatal(err)
	}
	seenNaN := false
	for i := 1; i < len(key); i++ {
		if math.IsNaN(key[i-1]) {
			seenNaN = true
		}
		if seenNaN && !math.IsNaN(key[i]) {
			t.Fatalf("row %d: non-NaN %v after NaN", i, key[i])
		}
		if !math.IsNaN(key[i-1]) && !math.IsNaN(key[i]) && key[i-1] > key[i] {
			t.Fatalf("row %d: keys out of order: %v > %v", i, key[i-1], key[i])
		}
	}
	seen := make(map[int64]bool, 500)
	pay, _ := sorted.Ints(1)
	for _, p := range pay {
		if seen[p] {
			t.Fatalf("payload %d duplicated by permutation", p)
		}
		seen[p] = true
	}
	if len(seen) != 500 {
		t.Fatalf("permutation lost rows: %d distinct payloads", len(seen))
	}

	// Appends grow an explicit unsorted tail.
	appendClusterRows(t, sorted, 37, 2)
	if col, n := sorted.ClusterInfo(); col != "key" || n != 500 {
		t.Fatalf("post-append ClusterInfo = (%q, %d), want (key, 500)", col, n)
	}
	if sorted.ClusterTail() != 37 {
		t.Fatalf("post-append ClusterTail = %d, want 37", sorted.ClusterTail())
	}

	if _, err := SortedBy(tbl, "tag"); err == nil {
		t.Fatal("SortedBy on a string column: expected error")
	}
	if _, err := SortedBy(tbl, "nope"); err == nil {
		t.Fatal("SortedBy on a missing column: expected error")
	}
}
