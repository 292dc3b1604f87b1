// Package core implements ACQUIRE (§3-§6 of the paper): the Expand
// phase generating refined queries over the Refined Space grid in
// non-decreasing refinement order, the Explore phase computing their
// aggregates incrementally via the cell/pillar/wall/block sub-query
// decomposition, and the driver of Algorithm 4 with overshoot
// repartitioning, plus the §7 extensions (refinement preferences,
// contraction, naive-mode ablation).
package core

import (
	"fmt"
	"math"
	"slices"

	"acquire/internal/relq"
)

// point is a grid point in the refined space: coordinate i counts steps
// of size γ/d along dimension i (§4). Points live in the search's
// lattice arena; a point value is a view into it or a scratch buffer.
type point []int32

// space holds the refined-space geometry: dimensionality, grid step
// (γ/d, Theorem 1) and per-dimension coordinate caps.
type space struct {
	dims int
	step float64
	// maxCoord[i] bounds dimension i: beyond it, further refinement
	// admits no new tuples (the predicate already spans the attribute
	// domain) or violates the user's per-predicate limit (§7.1).
	maxCoord []int
}

func newSpace(q *relq.Query, gamma float64, domainScore []float64) (*space, error) {
	d := q.NumDims()
	if d == 0 {
		return nil, fmt.Errorf("core: query has no refinable predicates; nothing to refine")
	}
	s := &space{dims: d, step: gamma / float64(d), maxCoord: make([]int, d)}
	for i := range q.Dims {
		limit := domainScore[i]
		if m := q.Dims[i].MaxScore; m > 0 && m < limit {
			limit = m
		}
		// A degenerate axis (limit ≤ 0 or NaN: the predicate already spans
		// the domain) keeps the one coordinate 0; lattice coordinates are
		// int32.
		if limit > 0 {
			s.maxCoord[i] = int(math.Min(math.Ceil(limit/s.step), math.MaxInt32))
		}
	}
	return s, nil
}

// frontier generates the ids of grid points, interned into the
// search's lattice, in non-decreasing QScore order (Theorem 2); ok=false
// when the space is exhausted.
type frontier interface {
	next() (id int32, ok bool)
}

// bfsFrontier is Algorithm 1. FIFO breadth-first search from the origin,
// incrementing dimensions 0..d−1, visits the L1 layers Σu = L in order
// and each layer in lexicographically decreasing order (DESIGN.md
// §5.22), so the layers are enumerated directly in that order, with no
// queue and no seen-set. u ↦ u − e_i keeps that order, so the
// predecessors of layer L are found by one forward cursor per dimension
// over layer L−1.
type bfsFrontier struct {
	lat *lattice
	sum int   // the layer being enumerated
	u   point // the next point to emit
	// prev and cur hold layer sum−1 and the emitted part of layer sum.
	prev, cur []int32
	cursor    []int
	sufCap    []int // sufCap[i] = Σ_{j≥i} maxCoord[j]
}

func newBFSFrontier(lat *lattice) *bfsFrontier {
	d := lat.sp.dims
	f := &bfsFrontier{lat: lat, u: make(point, d), cursor: make([]int, d), sufCap: make([]int, d+1)}
	for i := d - 1; i >= 0; i-- {
		f.sufCap[i] = f.sufCap[i+1] + lat.sp.maxCoord[i]
	}
	return f
}

func (f *bfsFrontier) next() (int32, bool) {
	if f.sum > f.sufCap[0] {
		return 0, false
	}
	id := f.lat.add(f.u)
	u := f.lat.point(id)
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		c := f.cursor[i]
		for lexAfterPred(f.lat.point(f.prev[c]), u, i) {
			c++
		}
		f.cursor[i] = c
		f.lat.pred.at(id)[i] = f.prev[c] + 1
	}
	f.cur = append(f.cur, id)
	if !f.advance() {
		f.sum++
		f.prev, f.cur = f.cur, f.prev[:0]
		clear(f.cursor)
		f.fill(0, f.sum)
	}
	return id, true
}

// fill sets u[from:] to the lexicographically largest suffix summing to
// r under the caps.
func (f *bfsFrontier) fill(from, r int) {
	for j := from; j < len(f.u); j++ {
		f.u[j] = int32(min(r, f.lat.sp.maxCoord[j]))
		r -= int(f.u[j])
	}
}

// advance steps u to the next point of its layer in lexicographically
// decreasing order: decrement the rightmost coordinate whose suffix can
// absorb one more unit, then refill that suffix as large as possible.
func (f *bfsFrontier) advance() bool {
	s := 0
	for i := len(f.u) - 2; i >= 0; i-- {
		s += int(f.u[i+1])
		if f.u[i] > 0 && s < f.sufCap[i+1] {
			f.u[i]--
			f.fill(i+1, s+1)
			return true
		}
	}
	return false
}

// lexAfterPred reports whether a > u − e_i lexicographically.
func lexAfterPred(a, u point, i int) bool {
	for j, aj := range a {
		t := u[j]
		if j == i {
			t--
		}
		if aj != t {
			return aj > t
		}
	}
	return false
}

// linfFrontier is Algorithm 2: explicit enumeration of the L-shaped
// query-layers of the L∞ norm. Layer k holds every grid point whose
// maximum coordinate is k, emitted in lexicographically increasing
// order by an odometer over the box [0, min(k, maxCoord_i)].
type linfFrontier struct {
	lat     *lattice
	layer   int
	u       point
	started bool
}

func newLInfFrontier(lat *lattice) *linfFrontier {
	return &linfFrontier{lat: lat, u: make(point, lat.sp.dims)}
}

func (f *linfFrontier) next() (int32, bool) {
	for {
		if !f.started {
			f.started = true
		} else if !f.step() {
			if f.layer++; f.layer > slices.Max(f.lat.sp.maxCoord) {
				return 0, false
			}
			clear(f.u)
		}
		for _, c := range f.u {
			if int(c) == f.layer {
				return f.lat.intern(f.u), true
			}
		}
	}
}

// step advances the odometer, last dimension fastest.
func (f *linfFrontier) step() bool {
	for j := len(f.u) - 1; j >= 0; j-- {
		if int(f.u[j]) < min(f.layer, f.lat.sp.maxCoord[j]) {
			f.u[j]++
			return true
		}
		f.u[j] = 0
	}
	return false
}

// priorityFrontier orders points by an arbitrary monotone QScore —
// required for weighted norms (§7.1), where BFS layer order no longer
// coincides with score order. Monotonicity of the norm guarantees a
// point is popped after every point it contains (Theorem 3(2) carries
// over), which the Explore phase's recurrence depends on; expanding a
// point records it as its successors' predecessor.
type priorityFrontier struct {
	lat   *lattice
	score func(int32) float64
	heap  pointHeap
	u     point
}

func newPriorityFrontier(lat *lattice, score func(int32) float64) *priorityFrontier {
	f := &priorityFrontier{lat: lat, score: score, u: make(point, lat.sp.dims)}
	origin := lat.intern(f.u)
	*lat.st(origin) |= stQueued
	f.heap.push(heapItem{id: origin, score: score(origin)})
	return f
}

func (f *priorityFrontier) next() (int32, bool) {
	if len(f.heap.items) == 0 {
		return 0, false
	}
	cur := f.heap.pop().id
	p := f.lat.point(cur)
	for i := range p {
		if int(p[i]) >= f.lat.sp.maxCoord[i] {
			continue
		}
		copy(f.u, p)
		f.u[i]++
		id := f.lat.intern(f.u)
		f.lat.pred.at(id)[i] = cur + 1
		if st := f.lat.st(id); *st&stQueued == 0 {
			*st |= stQueued
			f.heap.push(heapItem{id: id, score: f.score(id)})
		}
	}
	return cur, true
}

// heapItem and pointHeap are a minimal binary min-heap (container/heap
// would force interface boxing on a hot path).
type heapItem struct {
	id    int32
	score float64
}

type pointHeap struct{ items []heapItem }

func (h *pointHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].score <= h.items[i].score {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *pointHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].score < h.items[small].score {
			small = l
		}
		if r < len(h.items) && h.items[r].score < h.items[small].score {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
