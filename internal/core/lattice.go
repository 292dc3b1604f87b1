package core

import (
	"math/bits"
	"slices"

	"acquire/internal/agg"
)

// lattice is a search's refined space, dense by point id (DESIGN.md
// §5.22): a grid point's coordinates, the ids of its predecessors
// u − e_i, a state byte and the explorer's partials live in slabs
// indexed by the int32 id it gets when first emitted, so the Eq. 17 fold
// follows ids and looks nothing up. The key table serves the frontiers
// that deduplicate (priority) or cannot name a predecessor by position
// (L∞) and the fallback for points reachable only through ties.
type lattice struct {
	sp     *space
	n      int32
	coords slab[int32]
	pred   slab[int32] // id+1 of u − e_i per dimension; 0 = not yet known
	state  slab[uint8]
	parts  slab[agg.Partial] // the explorer's (explore.go); width 0 without one

	// The key table, open addressing over slots, holds the ids below
	// indexed: it is filled on the first lookup, so the BFS frontier never
	// builds it. Keys pack the coordinates exactly into 64 bits (widths);
	// a space too wide to pack (widths nil) hashes them instead and
	// confirms a match against the arena.
	widths  []uint
	slots   []latSlot
	indexed int32
	scratch point
}

type latSlot struct {
	key uint64
	id  int32 // the point id + 1; 0 = empty
}

const ( // point state bits
	stQueued uint8 = 1 << iota // pushed onto the priority frontier's heap
	stCached                   // the last parts slot holds the prefetched batch result
	stStored                   // parts holds the folded O2..Od+1
)

func newLattice(sp *space, partsPerPoint int) *lattice {
	l := &lattice{sp: sp, scratch: make(point, sp.dims)}
	l.coords.w, l.pred.w, l.state.w, l.parts.w = sp.dims, sp.dims, 1, partsPerPoint
	widths, total := make([]uint, sp.dims), uint(0)
	for i, m := range sp.maxCoord {
		widths[i] = uint(bits.Len(uint(m)))
		total += widths[i]
	}
	if total <= 64 {
		l.widths = widths
	}
	return l
}

// point returns the coordinates of id: a view into the arena that stays
// valid as the lattice grows (slab chunks never move).
func (l *lattice) point(id int32) point { return l.coords.at(id) }

func (l *lattice) st(id int32) *uint8 { return &l.state.at(id)[0] }

// appendScores appends the PScore vector of id (percent units) to dst.
func (l *lattice) appendScores(dst []float64, id int32) []float64 {
	for _, c := range l.point(id) {
		dst = append(dst, float64(c)*l.sp.step)
	}
	return dst
}

// add interns p, which the caller knows is new (a BFS layer is
// enumerated once), and returns its id.
func (l *lattice) add(p point) int32 {
	id := l.n
	l.n++
	for _, s := range []interface{ ensure(int) }{&l.coords, &l.pred, &l.state, &l.parts} {
		s.ensure(int(l.n))
	}
	copy(l.coords.at(id), p)
	return id
}

// intern returns the id of p, adding it when it is new.
func (l *lattice) intern(p point) int32 {
	if id, ok := l.lookup(p); ok {
		return id
	}
	return l.add(p)
}

// lookup returns the id of p, if interned.
func (l *lattice) lookup(p point) (int32, bool) {
	for ; l.indexed < l.n; l.indexed++ {
		l.insert(latSlot{key: l.key(l.point(l.indexed)), id: l.indexed + 1})
	}
	if len(l.slots) == 0 {
		return 0, false
	}
	k := l.key(p)
	mask := len(l.slots) - 1
	for i := slotOf(k, mask); ; i = (i + 1) & mask {
		s := l.slots[i]
		if s.id == 0 {
			return 0, false
		}
		if s.key == k && (l.widths != nil || slices.Equal(l.point(s.id-1), p)) {
			return s.id - 1, true
		}
	}
}

// insert puts s into the key table, doubling it past half full (s.id
// is also the number of points indexed with s).
func (l *lattice) insert(s latSlot) {
	if 2*int(s.id) > len(l.slots) {
		old := l.slots
		l.slots = make([]latSlot, max(256, 2*len(old)))
		for _, o := range old {
			if o.id != 0 {
				l.insert(o)
			}
		}
	}
	mask := len(l.slots) - 1
	i := slotOf(s.key, mask)
	for l.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	l.slots[i] = s
}

// key packs p into one uint64 — field i is bits.Len(maxCoord[i]) wide,
// so the key is exact — or, for a space too wide to pack, hashes it.
func (l *lattice) key(p point) uint64 {
	var k uint64
	if l.widths != nil {
		for i, c := range p {
			k = k<<l.widths[i] | uint64(c)
		}
		return k
	}
	for _, c := range p {
		k = (k ^ uint64(uint32(c))) * 0x100000001b3
	}
	return k
}

func slotOf(k uint64, mask int) int {
	return int((k*0x9e3779b97f4a7c15)>>32) & mask
}

// predOf returns the id of u − e_i (u_i > 0), finding or interning it by
// key when no frontier recorded it.
func (l *lattice) predOf(id int32, i int) int32 {
	pp := &l.pred.at(id)[i]
	if *pp == 0 {
		q := append(l.scratch[:0], l.point(id)...)
		q[i]--
		*pp = l.intern(q) + 1
	}
	return *pp - 1
}

// corner returns the id of the cell's lower corner u − Σ_{u_i>0} e_i,
// walking predecessor ids.
func (l *lattice) corner(id int32) int32 {
	c := id
	for i, ui := range l.point(id) {
		if ui > 0 {
			c = l.predOf(c, i)
		}
	}
	return c
}

// release drops every slab and the key table.
func (l *lattice) release() { *l = lattice{sp: l.sp} }

// slab is a per-point array of w values per id, held in chunks of 64,
// 64, 128, 256, … ids — each as large as all before it — so it grows
// without copying and never holds more than twice what it stores.
type slab[T any] struct {
	w      int
	n      int
	chunks [][]T
}

const slabBase = 6 // the first chunk holds 1<<slabBase ids

func (s *slab[T]) at(id int32) []T {
	c := bits.Len32(uint32(id) >> slabBase)
	off := int(id)
	if c > 0 {
		off -= 1 << (c - 1 + slabBase)
	}
	o := off * s.w
	return s.chunks[c][o : o+s.w : o+s.w]
}

// ensure makes ids below n addressable.
func (s *slab[T]) ensure(n int) {
	if s.w == 0 {
		return
	}
	for s.n < n {
		size := max(s.n, 1<<slabBase)
		s.chunks = append(s.chunks, make([]T, size*s.w))
		s.n += size
	}
}
