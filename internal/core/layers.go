package core

// layerEps is the QScore tolerance that delimits a layer; it matches
// the driver's layer-boundary epsilon so the batched search groups
// points exactly where the serial search saw a boundary.
const layerEps = 1e-9

// layerFrontier adapts a point-at-a-time frontier into a
// layer-at-a-time one: nextLayer returns every pending point whose
// QScore ties the head of the frontier (within layerEps). Frontiers
// emit points in non-decreasing score order (Theorem 2), so a layer is
// a contiguous run and one lookahead point suffices. The frontier's
// order is kept within a layer: under L∞ (and tie-heavy custom norms) a
// layer's points can contain one another, and the Explore recurrence
// needs the containment-consistent order the frontier guarantees.
type layerFrontier struct {
	fr    frontier
	score func(int32) float64
	// ids and qs hold the current layer (the first n) and, past it, the
	// first point of the next layer, popped while detecting the end.
	ids []int32
	qs  []float64
	n   int
}

func newLayerFrontier(fr frontier, score func(int32) float64) *layerFrontier {
	return &layerFrontier{fr: fr, score: score}
}

// nextLayer returns the next full layer of grid points and their
// QScores, valid until the next call; ok=false when the space is
// exhausted.
func (lf *layerFrontier) nextLayer() (ids []int32, qs []float64, ok bool) {
	lf.ids, lf.qs = append(lf.ids[:0], lf.ids[lf.n:]...), append(lf.qs[:0], lf.qs[lf.n:]...)
	lf.n = len(lf.ids)
	for lf.n == len(lf.ids) {
		id, ok := lf.fr.next()
		if !ok {
			break
		}
		s := lf.score(id)
		lf.ids, lf.qs = append(lf.ids, id), append(lf.qs, s)
		if !(s > lf.qs[0]+layerEps) {
			lf.n++
		}
	}
	return lf.ids[:lf.n], lf.qs[:lf.n], lf.n > 0
}
