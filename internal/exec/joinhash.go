package exec

import (
	"math"
	"math/bits"
)

// This file holds the join's hash structure: an order-preserving
// grouped hash table, the pre-sized equi-join build side the batch plan
// memoizes (joinplan.go).
//
// It has Go's map semantics for float64 keys: +0 and -0 are the same
// key, and a NaN key is unreachable — a build row with a NaN key can
// never match any probe (NaN != NaN), so dropping such rows at insert
// preserves the emitted tuple stream exactly.

// hashF64 mixes the normalized bit pattern of a key (splitmix64-style
// finalizer — cheap and well distributed for the clustered integer-ish
// keys join columns carry).
func hashF64(k float64) uint64 {
	b := math.Float64bits(k)
	b ^= b >> 33
	b *= 0xff51afd7ed558ccd
	b ^= b >> 33
	b *= 0xc4ceb9fe1a85ec53
	b ^= b >> 33
	return b
}

// normKey folds -0 onto +0 so both hash and compare as one key.
func normKey(k float64) float64 {
	if k == 0 {
		return 0
	}
	return k
}

// Join keys are very often small dense integers (generated surrogate
// keys, TPC-H style foreign keys), where a direct-indexed bitmap beats
// any hash probe. The table therefore carries a dense fast path, taken
// when every key is integral and the key span is modest relative to
// the key count.

// denseSpanCap bounds the direct-indexed domain (~1M slots) so a
// pathological key range can never balloon memory.
const denseSpanCap = 1 << 20

// denseLimit is the widest integer key span worth direct-indexing for
// n keys: generously sparse (64x) so realistic selective scans over
// surrogate-key domains still qualify, but never above denseSpanCap.
func denseLimit(n int) float64 {
	limit := 64*n + 1024
	if limit > denseSpanCap {
		limit = denseSpanCap
	}
	return float64(limit)
}

// f64Groups is a grouped hash table: every distinct key maps to the
// list of build rows carrying it, in build-input order — the per-key
// append order of a map[float64][]int32 build. Built in passes
// (count, prefix-sum, fill) into one exact-capacity rows array, so
// nothing grows incrementally. Group g occupies rows[off[g]:off[g+1]].
type f64Groups struct {
	// Hash mode: keys is open-addressed (NaN = empty slot) and a key's
	// group index is its slot.
	keys []float64
	mask uint64
	// Dense mode (keys is nil): key k has id int(k - dmin); present is a
	// bitmap over ids and rank[w] counts the ids set below word w, so a
	// present id's group index is its rank among the set bits. The id
	// domain costs one bit per id, not an offset slot per id — a build
	// side holds far fewer rows than its key span.
	dense   bool
	dmin    float64
	present []uint64
	rank    []int32

	off  []int32
	rows []int32 // all build rows, grouped by key, input order within a group
}

// denseGroup returns the group index of id s, or -1 when no build row
// carries it.
func (g *f64Groups) denseGroup(s uint) int {
	w, b := g.present[s>>6], uint64(1)<<(s&63)
	if w&b == 0 {
		return -1
	}
	return int(g.rank[s>>6]) + bits.OnesCount64(w&(b-1))
}

// fillGroups lays buildRows out by group: gids[j] is the group index
// of buildRows[j], or -1 for a dropped (NaN-keyed) row. off must hold
// ngroups+2 zeroed slots, which the count pass uses shifted by two so
// that the fill pass's running cursors leave off[g] at the start of
// group g.
func (g *f64Groups) fillGroups(buildRows, gids []int32) {
	for _, gi := range gids {
		if gi >= 0 {
			g.off[gi+2]++
		}
	}
	for i := 2; i < len(g.off); i++ {
		g.off[i] += g.off[i-1]
	}
	g.rows = make([]int32, g.off[len(g.off)-1])
	for j, gi := range gids {
		if gi >= 0 {
			g.rows[g.off[gi+1]] = buildRows[j]
			g.off[gi+1]++
		}
	}
	g.off = g.off[:len(g.off)-1]
}

// buildDenseGroups is the direct-indexed build, taken when every key
// is integral over a modest span. Returns nil when ineligible. Only the
// first pass reads the key column (a random access per build row); it
// leaves each key in ids as an integer offset, which the later passes
// turn in place into the key's id and then its group index.
func buildDenseGroups(buildRows []int32, vec []float64, coef float64) *f64Groups {
	const noKey = math.MinInt32 // a NaN key: the row is dropped, as in the hash build
	ids := make([]int32, len(buildRows))
	kmin, kmax := math.Inf(1), math.Inf(-1)
	k0, n := 0.0, 0
	for j, r := range buildRows {
		k := coef * vec[r]
		if float64(int64(k)) != k { // NaN, fractional, or beyond int64 (±Inf included)
			if k != k {
				ids[j] = noKey
				continue
			}
			return nil
		}
		if n == 0 {
			k0 = k
		}
		// Offsets from the first key: beyond the span cap (±Inf keys
		// included) no span check below could pass either.
		d := k - k0
		if !(d >= -denseSpanCap && d <= denseSpanCap) {
			return nil
		}
		ids[j] = int32(d)
		if k < kmin {
			kmin = k
		}
		if k > kmax {
			kmax = k
		}
		n++
	}
	if n == 0 {
		return nil
	}
	span := kmax - kmin
	if !(span >= 0) || span+1 > denseLimit(n) {
		return nil
	}
	nw := (int(span) + 64) >> 6
	g := &f64Groups{dense: true, dmin: kmin, present: make([]uint64, nw), rank: make([]int32, nw)}
	shift := int32(kmin - k0)
	for j, d := range ids {
		if d == noKey {
			ids[j] = -1
			continue
		}
		s := uint(d - shift)
		ids[j] = int32(s)
		g.present[s>>6] |= 1 << (s & 63)
	}
	ngroups := 0
	for i, w := range g.present {
		g.rank[i] = int32(ngroups)
		ngroups += bits.OnesCount64(w)
	}
	g.off = make([]int32, ngroups+2)
	for j, s := range ids {
		if s >= 0 {
			ids[j] = int32(g.denseGroup(uint(s)))
		}
	}
	g.fillGroups(buildRows, ids)
	return g
}

// buildF64Groups groups buildRows by their scaled key. Rows with NaN
// keys are dropped (unreachable in a Go map, see above).
func buildF64Groups(buildRows []int32, vec []float64, coef float64) *f64Groups {
	if g := buildDenseGroups(buildRows, vec, coef); g != nil {
		return g
	}
	cap := 8
	for cap < 2*len(buildRows) {
		cap *= 2
	}
	g := &f64Groups{
		keys: make([]float64, cap),
		mask: uint64(cap - 1),
		off:  make([]int32, cap+2),
	}
	for i := range g.keys {
		g.keys[i] = math.NaN()
	}
	gids := make([]int32, len(buildRows))
	for j, r := range buildRows {
		k := coef * vec[r]
		if k != k {
			gids[j] = -1
			continue
		}
		k = normKey(k)
		i := hashF64(k) & g.mask
		for {
			cur := g.keys[i]
			if cur != cur {
				g.keys[i] = k
				break
			}
			if cur == k {
				break
			}
			i = (i + 1) & g.mask
		}
		gids[j] = int32(i)
	}
	g.fillGroups(buildRows, gids)
	return g
}

// lookup returns the build rows matching a probe key (nil for misses
// and NaN probes — a Go map lookup with a NaN key always misses).
func (g *f64Groups) lookup(k float64) []int32 {
	if k != k {
		return nil
	}
	k = normKey(k)
	if g.dense {
		i := k - g.dmin
		if !(i >= 0) || i >= float64(len(g.present)*64) || i != math.Trunc(i) {
			return nil
		}
		gi := g.denseGroup(uint(i))
		if gi < 0 {
			return nil
		}
		return g.rows[g.off[gi]:g.off[gi+1]]
	}
	i := hashF64(k) & g.mask
	for {
		cur := g.keys[i]
		if cur != cur {
			return nil
		}
		if cur == k {
			return g.rows[g.off[i]:g.off[i+1]]
		}
		i = (i + 1) & g.mask
	}
}
