package regioncache

import (
	"fmt"
	"sync"
	"testing"

	"acquire/internal/agg"
)

// kn builds keys that all land on one shard, so LRU-order assertions
// see a single list.
func kn(n int) Key { return Key{Hi: uint64(n) << 4, Lo: uint64(n) << 4} }

// put stores v under k at the current generation.
func put(c *Cache, k Key, v agg.Partial) int64 { return c.Put(k, v, c.Gen()) }

func fill(t *testing.T, c *Cache, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, hit := c.Get(kn(i)); hit {
			t.Fatalf("fill %d: hit before the store", i)
		}
		put(c, kn(i), agg.Partial{Count: int64(i)})
		if got, hit := c.Get(kn(i)); !hit || got.Count != int64(i) {
			t.Fatalf("fill %d: hit=%v count %d", i, hit, got.Count)
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
	if evicted := put(c, kn(4), agg.Partial{Count: 4}); evicted != 1 {
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
	put(c, kn(5), agg.Partial{})
	put(c, kn(6), agg.Partial{})
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
	put(c, kn(1), agg.Partial{Count: 1})
	if got, ok := c.Get(kn(1)); !ok || got.Count != 1 {
		t.Fatalf("single entry not resident: ok=%v got=%+v", ok, got)
	}
	put(c, kn(2), agg.Partial{Count: 2})
	if c.Contains(kn(1)) {
		t.Error("previous entry survived a one-entry shard")
	}
}

// Invalidate drops everything; a later lookup misses.
func TestInvalidate(t *testing.T) {
	c := New(1 << 20)
	fill(t, c, 10)
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-invalidate stats = %+v", st)
	}
	if _, hit := c.Get(kn(3)); hit {
		t.Error("post-invalidate Get hit")
	}
}

// A Put whose value was computed across an Invalidate — it carries the
// generation read before — must not resurrect the stale value; a Put
// at the new generation lands.
func TestInvalidateDuringFlight(t *testing.T) {
	c := New(1 << 20)
	gen := c.Gen()
	c.Invalidate()
	if ev := c.Put(kn(1), agg.Partial{Count: 99}, gen); ev != 0 || c.Contains(kn(1)) {
		t.Fatalf("stale Put stored after Invalidate (evicted %d)", ev)
	}
	c.Put(kn(1), agg.Partial{Count: 1}, c.Gen())
	if got, hit := c.Get(kn(1)); !hit || got.Count != 1 {
		t.Errorf("Put at the current generation: hit=%v %+v", hit, got)
	}
}

// Race hammer: many goroutines mixing Get, Put, Stats and Invalidate
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
				gen := c.Gen()
				v, hit := c.Get(kn(n))
				if !hit {
					v = agg.Partial{Count: want}
					c.Put(kn(n), v, gen)
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
	if st.Hits+st.Misses != goroutines*rounds {
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
		put(c, k, agg.Partial{})
	}
	if len(shards) < 4 {
		t.Errorf("64 spread keys landed on %d shards", len(shards))
	}
	if got := fmt.Sprintf("%d", c.Len()); got != "64" {
		t.Errorf("Len = %s, want 64", got)
	}
}
