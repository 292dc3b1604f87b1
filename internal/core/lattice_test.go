package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/norms"
	"acquire/internal/relq"
)

// refPoint and the three ref*Frontier functions are the Expand phase as
// it stood before the lattice — a FIFO queue with a string-keyed
// seen-set (Algorithm 1), the recursive L∞ shell walk (Algorithm 2) and
// a heap with a seen-set — kept here as the order the lattice frontiers
// must reproduce point for point.
type refPoint []int

func (p refPoint) key() string {
	b := make([]byte, 0, len(p)*4)
	for _, c := range p {
		b = append(b, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return string(b)
}

func (p refPoint) succ(i int) refPoint {
	q := append(refPoint(nil), p...)
	q[i]++
	return q
}

func refBFS(caps []int) []refPoint {
	origin := make(refPoint, len(caps))
	queue, seen, out := []refPoint{origin}, map[string]bool{origin.key(): true}, []refPoint(nil)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := range caps {
			if cur[i] < caps[i] {
				if nxt := cur.succ(i); !seen[nxt.key()] {
					seen[nxt.key()] = true
					queue = append(queue, nxt)
				}
			}
		}
		out = append(out, cur)
	}
	return out
}

func refLInf(caps []int) []refPoint {
	out := []refPoint{make(refPoint, len(caps))}
	maxLayer := 0
	for _, m := range caps {
		maxLayer = max(maxLayer, m)
	}
	cur := make(refPoint, len(caps))
	var rec func(k, dim int, hasK bool)
	rec = func(k, dim int, hasK bool) {
		if dim == len(caps) {
			if hasK {
				out = append(out, append(refPoint(nil), cur...))
			}
			return
		}
		for v := 0; v <= min(k, caps[dim]); v++ {
			cur[dim] = v
			rec(k, dim+1, hasK || v == k)
		}
	}
	for k := 1; k <= maxLayer; k++ {
		rec(k, 0, false)
	}
	return out
}

func refPriority(caps []int, score func(refPoint) float64) []refPoint {
	type item struct {
		p refPoint
		s float64
	}
	var h []item
	push := func(it item) {
		h = append(h, it)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if h[parent].s <= h[i].s {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
	}
	pop := func() item {
		top, last := h[0], len(h)-1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, small := 2*i+1, 2*i+2, i
			if l < len(h) && h[l].s < h[small].s {
				small = l
			}
			if r < len(h) && h[r].s < h[small].s {
				small = r
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
		return top
	}
	origin := make(refPoint, len(caps))
	seen, out := map[string]bool{origin.key(): true}, []refPoint(nil)
	push(item{origin, score(origin)})
	for len(h) > 0 {
		cur := pop().p
		for i := range caps {
			if cur[i] < caps[i] {
				if nxt := cur.succ(i); !seen[nxt.key()] {
					seen[nxt.key()] = true
					push(item{nxt, score(nxt)})
				}
			}
		}
		out = append(out, cur)
	}
	return out
}

// TestFrontierOrderMatchesReference: every lattice frontier emits
// exactly the reference frontier's sequence — Algorithm 1's layers
// enumerated lexicographically decreasing equal the FIFO BFS — over
// random caps including 0, d = 1..5, under L1, L∞, L2 and a weighted
// L1; and the predecessor ids the BFS and priority frontiers record are
// the points u − e_i.
func TestFrontierOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	l2, err := norms.NewLp(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 300; trial++ {
		d := 1 + trial%5
		caps := make([]int, d)
		for i := range caps {
			caps[i] = rng.Intn(7 - d)
		}
		sp := &space{dims: d, step: 10 / float64(d), maxCoord: caps}
		w := make([]float64, d)
		for i := range w {
			w[i] = float64(1 + rng.Intn(4))
		}
		lw, err := norms.NewLp(1, w)
		if err != nil {
			t.Fatal(err)
		}
		refScore := func(n norms.Norm) func(refPoint) float64 {
			return func(p refPoint) float64 {
				s := make([]float64, len(p))
				for i, c := range p {
					s[i] = float64(c) * sp.step
				}
				return n.Score(s)
			}
		}
		cases := []struct {
			name string
			want []refPoint
			fr   func(*lattice) frontier
		}{
			{"bfs", refBFS(caps), func(l *lattice) frontier { return newBFSFrontier(l) }},
			{"linf", refLInf(caps), func(l *lattice) frontier { return newLInfFrontier(l) }},
			{"priority-l1", refPriority(caps, refScore(norms.L1{})), func(l *lattice) frontier { return newPriorityFrontier(l, qscorer(l, norms.L1{})) }},
			{"priority-l2", refPriority(caps, refScore(l2)), func(l *lattice) frontier { return newPriorityFrontier(l, qscorer(l, l2)) }},
			{"priority-weighted", refPriority(caps, refScore(lw)), func(l *lattice) frontier { return newPriorityFrontier(l, qscorer(l, lw)) }},
		}
		for _, tc := range cases {
			lat := newLattice(sp, 0)
			fr := tc.fr(lat)
			for k, want := range tc.want {
				id, ok := fr.next()
				if !ok {
					t.Fatalf("caps %v %s: exhausted after %d of %d points", caps, tc.name, k, len(tc.want))
				}
				if got := lat.point(id); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("caps %v %s: point %d is %v, want %v", caps, tc.name, k, got, want)
				}
			}
			if id, ok := fr.next(); ok {
				t.Fatalf("caps %v %s: extra point %v", caps, tc.name, lat.point(id))
			}
			if tc.name == "linf" {
				continue // L∞ leaves predecessors to the key table
			}
			for id := int32(0); id < lat.n; id++ {
				u := lat.point(id)
				for i := range u {
					if u[i] == 0 {
						continue
					}
					p := lat.pred.at(id)[i]
					want := append(point(nil), u...)
					want[i]--
					if p == 0 || !slices.Equal(lat.point(p-1), want) {
						t.Fatalf("caps %v %s: pred(%v, %d) recorded as %d", caps, tc.name, u, i, p-1)
					}
				}
			}
		}
	}
}

// checkPackedKeys enumerates the whole grid under caps and asserts every
// point packs to a distinct key and interns to its own id.
func checkPackedKeys(t *testing.T, caps []int) {
	t.Helper()
	lat := newLattice(&space{dims: 3, step: 1, maxCoord: caps}, 0)
	if lat.widths == nil {
		t.Fatalf("caps %v should pack", caps)
	}
	seen := make(map[uint64]point)
	n := 0
	for a := 0; a <= caps[0]; a++ {
		for b := 0; b <= caps[1]; b++ {
			for c := 0; c <= caps[2]; c++ {
				p := point{int32(a), int32(b), int32(c)}
				k := lat.key(p)
				if prev, dup := seen[k]; dup {
					t.Fatalf("caps %v: pack collision: %v and %v -> %d", caps, p, prev, k)
				}
				seen[k] = p
				if id := lat.intern(p); int(id) != n {
					t.Fatalf("caps %v: %v interned as %d, want new id %d", caps, p, id, n)
				}
				n++
			}
		}
	}
}

// The packed key is exact: every point of a grid whose widths sum to
// <= 64 bits packs to its own key and interns to its own id.
func TestPointKeyerPackUniqueness(t *testing.T) {
	checkPackedKeys(t, []int{5, 9, 17})
}

// A zero-width axis (maxCoord 0) takes no bits of the packed key and
// must not make neighbouring fields collide.
func TestPointKeyerDegenerateDimension(t *testing.T) {
	lat := newLattice(&space{dims: 3, step: 1, maxCoord: []int{7, 0, 7}}, 0)
	if lat.widths == nil || lat.widths[1] != 0 {
		t.Fatalf("widths = %v, want a packed key with a zero-width middle field", lat.widths)
	}
	checkPackedKeys(t, []int{7, 0, 7})
}

// Both key paths — packed and hashed — intern, look up and release the
// same way.
func TestLatticeBothKeyPaths(t *testing.T) {
	for _, caps := range [][]int{{100, 100, 100}, {1 << 30, 1 << 30, 1 << 30}} {
		lat := newLattice(&space{dims: 3, step: 1, maxCoord: caps}, 1)
		if packed := caps[0] == 100; packed != (lat.widths != nil) {
			t.Fatalf("caps %v: packed = %v", caps, lat.widths != nil)
		}
		a, b := point{3, 4, 2}, point{4, 3, 2}
		if _, ok := lat.lookup(a); ok {
			t.Fatal("empty lattice reports a hit")
		}
		ia, ib := lat.intern(a), lat.intern(b)
		if ia == ib || lat.intern(a) != ia || int(lat.n) != 2 {
			t.Fatalf("caps %v: ids %d, %d, len %d", caps, ia, ib, int(lat.n))
		}
		for i := 0; i < 1000; i++ { // past several table doublings
			lat.intern(point{int32(i % 100), int32(i / 100), 9})
		}
		if got, ok := lat.lookup(b); !ok || got != ib {
			t.Fatalf("caps %v: lookup(b) = %d, %v", caps, got, ok)
		}
		lat.release()
		if int(lat.n) != 0 || lat.slots != nil {
			t.Fatalf("caps %v: release kept %d points", caps, int(lat.n))
		}
		if _, ok := lat.lookup(a); ok {
			t.Fatal("released lattice reports a hit")
		}
	}
}

// The explorer must release its lattice when a search finishes.
func TestExplorerRelease(t *testing.T) {
	sp := &space{dims: 2, step: 1, maxCoord: []int{4, 4}}
	x := newExplorer(nil, nil, sp, agg.Spec{}, true)
	id := x.lat.intern(point{1, 1})
	x.lat.parts.at(id)[1] = agg.Partial{Count: 3}
	*x.lat.st(id) |= stStored
	x.stored++
	if x.stored != 1 {
		t.Fatalf("storedPoints = %d", x.stored)
	}
	x.release()
	if x.stored != 0 || x.lat.n != 0 || x.lat.parts.chunks != nil {
		t.Fatal("release did not drop the lattice")
	}
}

// TestSearchAllocsPerPoint guards the lattice's point of being: a warm
// 3-dimension COUNT search — every cell a region-cache hit — allocates
// per Expand layer and per batch, not per explored point. The
// map-and-string search it replaced made ≈ 20 allocations per point.
func TestSearchAllocsPerPoint(t *testing.T) {
	e := exec.New(mixedTable(t, 3, 20000))
	e.EnableRegionCache(16 << 20)
	q := &relq.Query{Tables: []string{"t"}, Dims: mixedDims(3),
		Constraint: relq.Constraint{Func: relq.AggCount, Op: relq.CmpEQ, Target: 4000}}
	opts := Options{Gamma: 10, Delta: 0.001}
	res, err := Run(e, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored < 500 {
		t.Fatalf("explored %d points; the guard needs a search of hundreds", res.Explored)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(e, q, opts); err != nil {
			t.Fatal(err)
		}
	})
	perPoint := allocs / float64(res.Explored)
	t.Logf("%d explored, %.0f allocs per search, %.2f per point", res.Explored, allocs, perPoint)
	if perPoint > 3 {
		t.Errorf("%.2f allocations per explored point, want <= 3", perPoint)
	}
}
