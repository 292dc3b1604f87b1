package regioncache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"acquire/internal/agg"
)

// kn builds keys that all land on one shard, so LRU-order assertions
// see a single list.
func kn(n int) Key { return Key{Hi: uint64(n) << 4, Lo: uint64(n) << 4} }

func fill(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p := agg.Partial{Count: int64(i)}
		got, hit, _, err := c.Do(kn(i), func() (agg.Partial, error) { return p, nil })
		if err != nil || hit {
			t.Fatalf("fill %d: hit=%v err=%v", i, hit, err)
		}
		if got.Count != int64(i) {
			t.Fatalf("fill %d: got count %d", i, got.Count)
		}
	}
}

// Filling past the byte cap evicts in LRU order; touching an entry
// rescues it from the next eviction round.
func TestEvictionLRUOrder(t *testing.T) {
	c := New(numShards * 4 * EntryBytes) // 4 entries per shard
	fill(t, c, 4)
	if st := c.Stats(); st.Entries != 4 || st.Bytes != 4*EntryBytes {
		t.Fatalf("pre-eviction stats = %+v", st)
	}

	// Touch key 0: it becomes MRU, so key 1 is now the LRU victim.
	if _, ok := c.Get(kn(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	_, _, evicted, _ := c.Do(kn(4), func() (agg.Partial, error) { return agg.Partial{Count: 4}, nil })
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if c.Contains(kn(1)) {
		t.Error("LRU victim 1 still resident")
	}
	for _, want := range []int{0, 2, 3, 4} {
		if !c.Contains(kn(want)) {
			t.Errorf("key %d evicted out of LRU order", want)
		}
	}

	// Two more inserts evict 2 then 3 — strict LRU order.
	c.Do(kn(5), func() (agg.Partial, error) { return agg.Partial{}, nil })
	c.Do(kn(6), func() (agg.Partial, error) { return agg.Partial{}, nil })
	if c.Contains(kn(2)) || c.Contains(kn(3)) {
		t.Error("keys 2/3 not evicted in LRU order")
	}
	if !c.Contains(kn(0)) {
		t.Error("touched key 0 evicted before older entries")
	}
	if st := c.Stats(); st.Evictions != 3 || st.Entries != 4 {
		t.Errorf("post-eviction stats = %+v, want 3 evictions / 4 entries", st)
	}
}

// A cap below one entry still admits one entry per shard.
func TestTinyCap(t *testing.T) {
	c := New(1)
	c.Do(kn(1), func() (agg.Partial, error) { return agg.Partial{Count: 1}, nil })
	if got, ok := c.Get(kn(1)); !ok || got.Count != 1 {
		t.Fatalf("single entry not resident: ok=%v got=%+v", ok, got)
	}
	c.Do(kn(2), func() (agg.Partial, error) { return agg.Partial{Count: 2}, nil })
	if c.Contains(kn(1)) {
		t.Error("previous entry survived a one-entry shard")
	}
}

// Invalidate drops everything; subsequent Do re-executes.
func TestInvalidate(t *testing.T) {
	c := New(1 << 20)
	fill(t, c, 10)
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	ran := false
	_, hit, _, _ := c.Do(kn(3), func() (agg.Partial, error) { ran = true; return agg.Partial{}, nil })
	if hit || !ran {
		t.Errorf("post-invalidate Do: hit=%v ran=%v, want miss + execution", hit, ran)
	}
}

// A fill whose loader straddles an Invalidate must not resurrect the
// stale value.
func TestInvalidateDuringFlight(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(kn(1), func() (agg.Partial, error) {
			close(started)
			<-release
			return agg.Partial{Count: 99}, nil
		})
	}()
	<-started
	c.Invalidate()
	close(release)
	<-done
	if c.Contains(kn(1)) {
		t.Error("stale in-flight fill stored after Invalidate")
	}
}

// Concurrent identical misses collapse to one loader execution; all
// callers receive the same value.
func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	var execs atomic.Int64
	gate := make(chan struct{})
	const callers = 32
	var wg sync.WaitGroup
	vals := make([]agg.Partial, callers)
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			v, hit, _, err := c.Do(kn(7), func() (agg.Partial, error) {
				execs.Add(1)
				return agg.Partial{Count: 7, Sum: 7.5}, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("loader executed %d times, want 1", n)
	}
	misses := 0
	for i := range vals {
		if vals[i] != (agg.Partial{Count: 7, Sum: 7.5}) {
			t.Fatalf("caller %d got %+v", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly the owner", misses)
	}
}

// A failing loader is not cached and does not poison waiters: each
// retries with its own loader and succeeds.
func TestErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	_, _, _, err := c.Do(kn(9), func() (agg.Partial, error) { return agg.Partial{}, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Contains(kn(9)) {
		t.Fatal("error result was cached")
	}
	v, hit, _, err := c.Do(kn(9), func() (agg.Partial, error) { return agg.Partial{Count: 1}, nil })
	if err != nil || hit || v.Count != 1 {
		t.Fatalf("retry after error: v=%+v hit=%v err=%v", v, hit, err)
	}
}

// Race hammer: many goroutines mixing Do, Get, Stats and Invalidate
// over a small hot key set. Run under -race; also asserts every
// returned value matches its key (no cross-key leakage).
func TestConcurrentHammer(t *testing.T) {
	c := New(numShards * 8 * EntryBytes)
	const goroutines = 16
	const rounds = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := (g*rounds + r*13) % 64
				want := int64(n * 3)
				v, _, _, err := c.Do(kn(n), func() (agg.Partial, error) {
					return agg.Partial{Count: want}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if v.Count != want {
					t.Errorf("key %d returned count %d, want %d", n, v.Count, want)
					return
				}
				if r%97 == 0 {
					c.Stats()
				}
				if g == 0 && r%211 == 0 {
					c.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses < goroutines*rounds {
		t.Errorf("stats undercount: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	// Keys spread across shards: sanity-check the shard router touches
	// more than one shard so the lock-splitting is real.
	c := New(1 << 20)
	shards := map[*shard]bool{}
	for i := 0; i < 64; i++ {
		k := Key{Hi: uint64(i) * 0x9e3779b97f4a7c15, Lo: uint64(i)}
		shards[c.shard(k)] = true
		c.Do(k, func() (agg.Partial, error) { return agg.Partial{}, nil })
	}
	if len(shards) < 4 {
		t.Errorf("64 spread keys landed on %d shards", len(shards))
	}
	if got := fmt.Sprintf("%d", c.Len()); got != "64" {
		t.Errorf("Len = %s, want 64", got)
	}
}

// TryClaim never blocks and has three outcomes: a claim (which counts
// the miss and must be filled), busy while that claim is open, and a
// hit once it is filled. A Do that arrives while the claim is open
// waits for the fill and shares its value.
func TestTryClaimFill(t *testing.T) {
	c := New(1 << 20)
	k := kn(1)
	_, hit, fl := c.TryClaim(k)
	if hit || fl == nil {
		t.Fatalf("first TryClaim: hit=%v flight=%v, want a claim", hit, fl)
	}
	if _, hit, again := c.TryClaim(k); hit || again != nil {
		t.Fatalf("TryClaim on a claimed key: hit=%v flight=%v, want busy", hit, again)
	}

	waiter := make(chan agg.Partial)
	go func() {
		v, hit, _, err := c.Do(k, func() (agg.Partial, error) {
			t.Error("Do ran its loader while the key was claimed")
			return agg.Partial{}, nil
		})
		if !hit || err != nil {
			t.Errorf("waiting Do: hit=%v err=%v", hit, err)
		}
		waiter <- v
	}()
	// The waiter either blocks on the flight or, if it is slow to
	// start, hits the filled entry; both deliver the filled value.
	if ev := fl.Fill(agg.Partial{Count: 7}, nil); ev != 0 {
		t.Errorf("fill evicted %d entries", ev)
	}
	if v := <-waiter; v.Count != 7 {
		t.Errorf("waiter got %+v", v)
	}
	if v, hit, fl := c.TryClaim(k); !hit || fl != nil || v.Count != 7 {
		t.Fatalf("TryClaim after fill: %+v hit=%v flight=%v", v, hit, fl)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 2 hits, 1 entry", st)
	}
}

// A claim filled with an error stores nothing and frees the key; a
// claim that Invalidate overtook delivers to its waiters but is not
// stored.
func TestTryClaimFailedAndInvalidated(t *testing.T) {
	c := New(1 << 20)
	k := kn(2)
	_, _, fl := c.TryClaim(k)
	fl.Fill(agg.Partial{}, errors.New("boom"))
	if c.Contains(k) {
		t.Fatal("failed fill was stored")
	}
	_, hit, fl := c.TryClaim(k)
	if hit || fl == nil {
		t.Fatalf("TryClaim after a failed fill: hit=%v flight=%v, want a fresh claim", hit, fl)
	}
	c.Invalidate()
	fl.Fill(agg.Partial{Count: 3}, nil)
	if c.Contains(k) {
		t.Fatal("fill from before Invalidate was stored")
	}
}
