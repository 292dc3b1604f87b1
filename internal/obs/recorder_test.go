package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// mkTrace builds a closed single-span trace with the id and duration.
func mkTrace(id string, d time.Duration) *Trace {
	clk := NewFakeClock(time.Unix(0, 0))
	tr := NewTrace(id, clk)
	sp := tr.NewSpan(0, "search")
	clk.Advance(d)
	sp.End()
	return tr
}

// TestRecorderEvictionOrder: the byte cap evicts oldest-first, and Get
// resolves only traces still resident.
func TestRecorderEvictionOrder(t *testing.T) {
	one := mkTrace("t1", time.Millisecond)
	perTrace := one.Bytes()
	rec := NewFlightRecorder(RecorderConfig{MaxBytes: 3 * perTrace})
	rec.Add(one)
	rec.Add(mkTrace("t2", time.Millisecond))
	rec.Add(mkTrace("t3", time.Millisecond))
	if rec.Len() != 3 {
		t.Fatalf("Len = %d", rec.Len())
	}
	rec.Add(mkTrace("t4", time.Millisecond)) // evicts t1
	if rec.Len() != 3 {
		t.Fatalf("Len after overflow = %d", rec.Len())
	}
	if rec.Get("t1") != nil {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range []string{"t2", "t3", "t4"} {
		if rec.Get(id) == nil {
			t.Errorf("trace %s missing", id)
		}
	}
	// Traces returns newest first.
	traces := rec.Traces()
	if len(traces) != 3 || traces[0].ID() != "t4" || traces[2].ID() != "t2" {
		ids := make([]string, len(traces))
		for i, tr := range traces {
			ids[i] = tr.ID()
		}
		t.Errorf("Traces order = %v", ids)
	}
	st := rec.Stats()
	if st.Added != 4 || st.Kept != 4 || st.Evicted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRecorderTailBasedKeep: slow traces always survive the sampler;
// fast ones pass 1-in-N deterministically.
func TestRecorderTailBasedKeep(t *testing.T) {
	rec := NewFlightRecorder(RecorderConfig{
		SlowThreshold: 100 * time.Millisecond,
		SampleN:       10,
	})
	for i := 0; i < 30; i++ {
		rec.Add(mkTrace(fmt.Sprintf("fast-%d", i), time.Millisecond))
	}
	for i := 0; i < 5; i++ {
		rec.Add(mkTrace(fmt.Sprintf("slow-%d", i), 200*time.Millisecond))
	}
	// 30 fast → 3 kept (1-in-10); 5 slow → all kept.
	var fast, slow int
	for _, tr := range rec.Traces() {
		if tr.Duration() >= 100*time.Millisecond {
			slow++
		} else {
			fast++
		}
	}
	if slow != 5 {
		t.Errorf("slow kept = %d, want 5 (tail-based keep)", slow)
	}
	if fast != 3 {
		t.Errorf("fast kept = %d, want 3 (1-in-10 of 30)", fast)
	}
	st := rec.Stats()
	if st.Sampled != 27 {
		t.Errorf("Sampled = %d, want 27", st.Sampled)
	}
}

// TestRecorderByteCapSoak floods the recorder with 1000 traces of
// varying sizes and asserts the cap is never exceeded at any point —
// the acceptance bound for the flight recorder.
func TestRecorderByteCapSoak(t *testing.T) {
	const cap = 64 << 10
	rec := NewFlightRecorder(RecorderConfig{MaxBytes: cap})
	for i := 0; i < 1000; i++ {
		clk := NewFakeClock(time.Unix(0, 0))
		tr := NewTrace(fmt.Sprintf("soak-%d", i), clk)
		root := tr.NewSpan(0, "search")
		for j := 0; j < i%40; j++ { // sizes vary 1..40 spans
			sp := root.StartChild("layer")
			sp.SetAttrs(Int("layer", int64(j)), Float("qscore", 0.5))
			sp.End()
		}
		clk.Advance(time.Millisecond)
		root.End()
		rec.Add(tr)
		if b := rec.Bytes(); b > cap {
			t.Fatalf("after %d adds: %d bytes > cap %d", i+1, b, cap)
		}
	}
	if rec.Len() == 0 {
		t.Error("soak evicted everything")
	}
	st := rec.Stats()
	if st.Added != 1000 {
		t.Errorf("Added = %d", st.Added)
	}
	if st.Bytes > cap {
		t.Errorf("resident %d > cap %d", st.Bytes, cap)
	}
}

// TestRecorderOverCapTrace: a single trace larger than the whole cap
// is rejected rather than busting the budget.
func TestRecorderOverCapTrace(t *testing.T) {
	small := mkTrace("small", time.Millisecond)
	rec := NewFlightRecorder(RecorderConfig{MaxBytes: small.Bytes() + 8})
	rec.Add(small)
	big := NewTrace("big", NewFakeClock(time.Unix(0, 0)))
	root := big.NewSpan(0, "search")
	for i := 0; i < 100; i++ {
		root.StartChild("evaluate").End()
	}
	root.End()
	rec.Add(big)
	if rec.Get("big") != nil {
		t.Error("over-cap trace was kept")
	}
	if rec.Get("small") == nil {
		t.Error("resident trace evicted for a rejected one")
	}
	if st := rec.Stats(); st.Sampled != 0 || st.Rejected != 1 {
		t.Errorf("stats sampled=%d rejected=%d, want 0 and 1", st.Sampled, st.Rejected)
	}
}

// TestRecorderNilSafe: every method on a nil recorder no-ops.
func TestRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.Add(mkTrace("x", time.Millisecond))
	if rec.Len() != 0 || rec.Bytes() != 0 || rec.Get("x") != nil || rec.Traces() != nil {
		t.Error("nil recorder retained state")
	}
	if n, err := rec.WriteDir(t.TempDir()); n != 0 || err != nil {
		t.Errorf("nil WriteDir = %d, %v", n, err)
	}
	_ = rec.Stats()
	_ = rec.Config()
}

// TestRecorderWriteDir: every kept trace lands as a parseable
// <id>.trace.json Chrome file.
func TestRecorderWriteDir(t *testing.T) {
	rec := NewFlightRecorder(RecorderConfig{})
	rec.Add(mkTrace("a", time.Millisecond))
	rec.Add(mkTrace("b", time.Millisecond))
	dir := filepath.Join(t.TempDir(), "traces")
	n, err := rec.WriteDir(dir)
	if err != nil || n != 2 {
		t.Fatalf("WriteDir = %d, %v", n, err)
	}
	for _, id := range []string{"a", "b"} {
		raw, err := os.ReadFile(filepath.Join(dir, id+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Errorf("trace %s: invalid JSON: %v", id, err)
		}
	}
}
