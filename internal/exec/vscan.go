package exec

import (
	"log/slog"
	"math"
	"strings"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// This file is the scan path: block at a time. Blocks are visited in
// ascending row order, each block's selection vector is compacted one
// predicate at a time, zone maps skip blocks that provably cannot
// contain a candidate, and the finalize fold steps the aggregate in
// tuple order. A region's scan and fold run on the one worker that owns
// it — the batch pool (batch.go) is the engine's only fan-out — so every
// partial, SUM bits included, is the same for every worker count.
// Engine.NaiveAggregate, which shares no scan, index or join
// code with it, is the oracle the tests compare it against.
//
// On a zone-pruned full scan the candidate list leaves out blocks whose
// every row provably fails the region's *lower* bound; finalize would
// have rejected those rows per tuple, so the surviving tuples and their
// order are the same either way.

// localDim is one select dimension local to the scanned table: rows
// with Violation(v) > hi (the region's upper bound on the dimension)
// cannot qualify anywhere in the region and are dropped at scan time.
// lo carries the region's lower bound for zone-map pruning only — the
// per-row filters never use it (finalize enforces it per tuple).
type localDim struct {
	dim *relq.Dimension
	vec []float64
	ord int
	hi  float64
	lo  float64
}

// localDims collects table ti's local select dimensions into locals.
// last names a select dimension (an index into b.selDims, negative for
// none) to put at the end of the list — see vscanTable.
func localDims(b *binding, region relq.Region, ti, last int, locals []localDim) []localDim {
	for j := range b.selDims {
		if sd := &b.selDims[j]; sd.tbl == ti && j != last {
			locals = append(locals, sd.local(region))
		}
	}
	if last >= 0 {
		locals = append(locals, b.selDims[last].local(region))
	}
	return locals
}

func (sd *selBind) local(region relq.Region) localDim {
	return localDim{dim: sd.dim, vec: sd.vec, ord: sd.ord, hi: region[sd.di].Hi, lo: region[sd.di].Lo}
}

// scanDrive is one candidate driving interval: a fixed range or a
// single-interval select-dimension region mapped onto column values.
type scanDrive struct {
	ord    int
	lo, hi float64
	// src names the predicate the interval came from: i for the table's
	// fixed range i, len(ranges)+j for the select dimension selDims[j].
	src int
}

// scanDrives collects table ti's driving intervals into drives.
// empty=true means some select dimension admits no values at all — the
// scan returns no candidates without touching the table.
func scanDrives(b *binding, region relq.Region, ti int, drives []scanDrive) (_ []scanDrive, empty bool) {
	ranges := b.ranges[ti]
	for i := range ranges {
		if !math.IsInf(ranges[i].lo, -1) || !math.IsInf(ranges[i].hi, 1) {
			drives = append(drives, scanDrive{ord: ranges[i].ord, lo: ranges[i].lo, hi: ranges[i].hi, src: i})
		}
	}
	for j := range b.selDims {
		sd := &b.selDims[j]
		if sd.tbl != ti {
			continue
		}
		ivs, n := valueIntervals(sd.dim, region[sd.di])
		if n == 0 {
			return drives, true // dimension admits nothing
		}
		if n == 1 {
			drives = append(drives, scanDrive{ord: sd.ord, lo: ivs[0].Lo, hi: ivs[0].Hi, src: len(ranges) + j})
		}
	}
	return drives, false
}

// access is the access path of one table under one region — the one
// decision that the scan, the unit grouping of a drive-shared batch
// (sharedrive.go) and Explain all read.
type access struct {
	// empty: some select dimension admits no value at all, so the table
	// has no candidates and is not touched.
	empty bool
	// indexed: the candidates are the slab ix.rows[lo:hi] of the sorted
	// index over drive's column, in value order. Otherwise the table is
	// scanned block by block behind its zone maps.
	indexed bool
	drive   scanDrive
	ix      *sortedIdx
	lo, hi  int
}

// accessPath chooses table ti's access path under the region, the way a
// DBMS with secondary indexes would: the most selective driving
// interval (a fixed range, or a select dimension's value interval under
// the region) generates the candidates through its sorted index when it
// narrows the table to at most half its rows; the remaining predicates
// are verified per candidate. It leaves the table's driving intervals
// in sc.drives.
//
// One layout-aware refinement: when the table is clustered over the
// best drive's column with at most a sub-block append tail, a
// moderately selective drive (more than n/8 rows) stays on the
// zone-pruned full-scan path instead of the index. The clustered
// layout makes zone maps drop roughly the same rows the index would,
// through dense block kernels instead of per-row gathers. Clearly
// narrow drives (<= n/8) still take the index.
func (e *Engine) accessPath(b *binding, region relq.Region, ti int, sc *regionScratch) (access, error) {
	var ac access
	sc.drives, ac.empty = scanDrives(b, region, ti, sc.drives[:0])
	if ac.empty {
		return ac, nil
	}
	t := b.tables[ti]
	n := t.NumRows()
	bestSize := n + 1
	for _, d := range sc.drives {
		ix, err := sortedIndex(t, d.ord)
		if err != nil {
			return ac, err
		}
		lo, hi := ix.slab(d.lo, d.hi)
		if hi-lo < bestSize {
			bestSize = hi - lo
			ac.drive, ac.ix, ac.lo, ac.hi = d, ix, lo, hi
		}
	}
	ac.indexed = ac.ix != nil && bestSize <= n/2 && !e.preferClusteredScan(t, ac.drive, bestSize, n)
	return ac, nil
}

// preferClusteredScan reports whether a moderately-selective best drive
// should stay on the full-scan path because the table's clustered
// layout covers its column (see accessPath).
func (e *Engine) preferClusteredScan(t *data.Table, d scanDrive, size, n int) bool {
	if size*8 <= n {
		return false // clearly narrow: the index wins outright
	}
	if t.ClusterTail() >= blockRows {
		return false // degraded layout: tail blocks are never skippable
	}
	col, _ := t.ClusterInfo()
	return col != "" && strings.EqualFold(col, t.Schema().Columns[d.ord].Name)
}

// blockFilter is the compiled predicate chain applied to each block's
// selection vector: ranges, strings, locals. The chain is a
// conjunction, so the kept set is order-independent, and each filter
// preserves row order.
type blockFilter struct {
	ranges []rangeBind
	strs   []stringBind
	locals []localDim
	// driven is the index in ranges of the fixed range an index scan's
	// candidates were driven from, -1 when there is none. The slab holds
	// exactly the rows with lo <= v <= hi, so the chain leaves it out.
	driven int
}

func (f *blockFilter) apply(sel []int32) []int32 {
	return f.applySkip(sel, 0, 0)
}

// applySkip runs the chain with the first skipR range filters and
// skipL local filters omitted (already applied by a dense kernel). The
// chain is a conjunction of order-preserving filters, so the kept set
// and its ascending order are independent of which predicate ran first.
func (f *blockFilter) applySkip(sel []int32, skipR, skipL int) []int32 {
	for i := skipR; i < len(f.ranges); i++ {
		if len(sel) == 0 {
			return sel
		}
		if i == f.driven {
			continue
		}
		sel = filterRange(sel, f.ranges[i].vec, f.ranges[i].lo, f.ranges[i].hi)
	}
	for i := range f.strs {
		if len(sel) == 0 {
			return sel
		}
		sel = filterStringIn(sel, f.strs[i].vec, f.strs[i].set)
	}
	for i := skipL; i < len(f.locals); i++ {
		if len(sel) == 0 {
			return sel
		}
		sel = filterViolation(sel, f.locals[i].dim, f.locals[i].vec, f.locals[i].hi)
	}
	return sel
}

// applyDense filters the contiguous rows [lo, hi) of the table: the
// first numeric predicate runs as a dense kernel straight over its
// column stride (emitting row ids directly — no identity-fill +
// gather round trip) and the rest compact the resulting selection
// vector as usual. buf must have blockRows capacity.
func (f *blockFilter) applyDense(buf []int32, lo, hi int) []int32 {
	switch {
	case len(f.ranges) > 0:
		sel := filterRangeDense(buf, f.ranges[0].vec, lo, hi, f.ranges[0].lo, f.ranges[0].hi)
		return f.applySkip(sel, 1, 0)
	case len(f.locals) > 0:
		sel := filterViolationDense(buf, f.locals[0].dim, f.locals[0].vec, lo, hi, f.locals[0].hi)
		return f.applySkip(sel, 0, 1)
	default:
		sel := buf[:0]
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		return f.applySkip(sel, 0, 0)
	}
}

// observeDensity records one block's post-filter selection density into
// the attached observer's histogram (no-op when detached).
func observeDensity(eo *engineObs, kept, blockLen int) {
	if eo == nil || blockLen == 0 {
		return
	}
	eo.selDensity.Observe(float64(kept) / float64(blockLen))
}

// zonePreds compiles the block-skip tests for a full scan: one per
// fixed range with a finite bound, one per local select dimension's
// conservative value hull. String-set predicates never prune —
// zone maps only summarize numeric order.
func (e *Engine) zonePreds(t *data.Table, f *blockFilter) []zonePred {
	var zps []zonePred
	for i := range f.ranges {
		rb := &f.ranges[i]
		if math.IsInf(rb.lo, -1) && math.IsInf(rb.hi, 1) {
			continue
		}
		zps = append(zps, zonePred{zm: zoneMapFor(t, rb.ord), lo: rb.lo, hi: rb.hi, ord: rb.ord})
	}
	for i := range f.locals {
		ld := &f.locals[i]
		lo, hi := pruneInterval(ld.dim, relq.ViolInterval{Lo: ld.lo, Hi: ld.hi})
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			continue
		}
		zps = append(zps, zonePred{zm: zoneMapFor(t, ld.ord), lo: lo, hi: hi, ord: ld.ord})
	}
	return zps
}

// vscanTable scans table ti along its access path (accessPath), block
// at a time: the rows that pass the fixed filters and every local
// select dimension's upper bound under the region, in the path's
// candidate order. Candidates are appended to out (the caller's scratch
// buffer, possibly nil) and the extended slice is returned. On the
// full-scan path blocks failing a zone test are skipped without
// touching rows — RowsScanned counts only rows in visited blocks
// (skipped blocks are reported via BlocksSkipped), keeping the
// rows-touched statistics honest about physical work.
//
// On the index path the predicate the slab was driven from does not
// head the filter chain, where it would gather the whole candidate list
// to reject next to nothing. A driving fixed range is dropped (the slab
// is exact). A driving select dimension's value interval is only a
// conservative image of its violation bound, so its filter stays, but
// runs last, over the survivors of the others. It counts into st.
func (e *Engine) vscanTable(b *binding, region relq.Region, ti int, sc *regionScratch, st *statsCells, out []int32) ([]int32, error) {
	ac, err := e.accessPath(b, region, ti, sc)
	if err != nil || ac.empty {
		return out, err
	}
	eo := e.obsState.Load()
	f := &sc.filter
	*f = blockFilter{ranges: b.ranges[ti], strs: b.strFlts[ti], driven: -1}

	lastSel := -1
	if ac.indexed {
		if lastSel = ac.drive.src - len(f.ranges); lastSel < 0 {
			f.driven = ac.drive.src
		}
	}
	sc.locals = localDims(b, region, ti, lastSel, sc.locals[:0])
	f.locals = sc.locals

	if ac.indexed {
		candidates := ac.ix.rows[ac.lo:ac.hi]
		st[cRowsScanned].Add(int64(len(candidates)))
		if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
			eo.o.Debug("engine.scan", "table", b.q.Tables[ti],
				"rows", int64(len(candidates)), "full_scan", false)
		}
		return blockFilterRows(candidates, f, eo, out), nil
	}
	return e.fullScan(b, ti, f, eo, st, out), nil
}

// fullScan runs f over every block of table ti in ascending row order,
// skipping the blocks a zone map proves candidate-free, appends the
// survivors to out and counts the scan into st.
func (e *Engine) fullScan(b *binding, ti int, f *blockFilter, eo *engineObs, st *statsCells, out []int32) []int32 {
	t := b.tables[ti]
	zps := e.zonePreds(t, f)
	out, rowsScanned, blocksScanned, axisSkips := blockScan(t.NumRows(), zps, f, eo, out)
	var blocksSkipped int64
	for _, s := range axisSkips {
		blocksSkipped += s
	}
	st[cRowsScanned].Add(rowsScanned)
	st[cBlocksScanned].Add(blocksScanned)
	st[cBlocksSkipped].Add(blocksSkipped)
	if blocksSkipped > 0 {
		e.countZoneAxisSkips(t, zps, axisSkips)
	}
	// A clustered table whose unsorted append tail has outgrown one
	// block runs in a degraded regime: the sorted prefix still prunes
	// but every tail block spans the whole domain. Surface it in stats
	// instead of letting it look like silently-stale zone maps.
	if t.ClusterTail() >= blockRows {
		st[cDegradedScans].Add(1)
	}
	if eo != nil && eo.o.LogEnabled(slog.LevelDebug) {
		eo.o.Debug("engine.scan", "table", b.q.Tables[ti],
			"rows", rowsScanned, "full_scan", true,
			"blocks_scanned", blocksScanned, "blocks_skipped", blocksSkipped)
	}
	return out
}

// tableKey is the canonical (lower-cased) catalog key of a table.
func tableKey(t *data.Table) string { return strings.ToLower(t.Name()) }

// blockScan runs the zone-pruned block scan over the n rows of a table
// in ascending row order, appending survivors to out. axisSkips is
// aligned with zps: skipped blocks are attributed to the first
// predicate that fired (skipAxis).
func blockScan(n int, zps []zonePred, f *blockFilter, eo *engineObs, out []int32) (_ []int32, rows, scanned int64, axisSkips []int64) {
	var buf [blockRows]int32
	axisSkips = make([]int64, len(zps))
	for bi := range numBlocks(n) {
		lo := bi * blockRows
		hi := min(lo+blockRows, n)
		if ax := skipAxis(zps, bi); ax >= 0 {
			axisSkips[ax]++
			continue
		}
		scanned++
		rows += int64(hi - lo)
		sel := f.applyDense(buf[:0], lo, hi)
		observeDensity(eo, len(sel), hi-lo)
		out = append(out, sel...)
	}
	return out, rows, scanned, axisSkips
}

// blockFilterRows applies the filter chain to an explicit candidate
// list (the index path) in blockRows-sized gather chunks, appending
// survivors to out in candidate order.
func blockFilterRows(cands []int32, f *blockFilter, eo *engineObs, out []int32) []int32 {
	var buf [blockRows]int32
	for blo := 0; blo < len(cands); blo += blockRows {
		bhi := min(blo+blockRows, len(cands))
		sel := buf[:bhi-blo]
		copy(sel, cands[blo:bhi])
		sel = f.apply(sel)
		observeDensity(eo, len(sel), bhi-blo)
		out = append(out, sel...)
	}
	return out
}

// finalizeVec filters the joined tuples by the region and folds the
// qualifying ones, in blockRows-sized sub-blocks whose selection vector
// is compacted one condition at a time. Every query dimension is a
// select or a join dimension (bind rejects anything else), so the
// per-dimension tests cover the whole region. Qualifying tuples step
// the aggregate in ascending tuple order. pos maps a table index to its
// slot in a tuple of the given stride.
func finalizeVec(b *binding, region relq.Region, tuples []int32, stride int, pos []int, st *statsCells) agg.Partial {
	ntup := len(tuples) / stride
	st[cTuplesExamined].Add(int64(ntup))
	p := agg.Zero()
	var buf [blockRows]int
	for blo := 0; blo < ntup; blo += blockRows {
		bhi := min(blo+blockRows, ntup)
		sel := buf[:0]
		for t := blo; t < bhi; t++ {
			sel = append(sel, t)
		}
		for i := range b.equiJoins {
			ej := &b.equiJoins[i]
			ls, rs := pos[ej.ltbl], pos[ej.rtbl]
			k := 0
			for _, t := range sel {
				row := tuples[t*stride:]
				sel[k] = t
				if ej.lc*ej.lvec[row[ls]] == ej.rc*ej.rvec[row[rs]] {
					k++
				}
			}
			sel = sel[:k]
			if len(sel) == 0 {
				break
			}
		}
		for i := range b.selDims {
			if len(sel) == 0 {
				break
			}
			sd := &b.selDims[i]
			iv := region[sd.di]
			slot := pos[sd.tbl]
			k := 0
			for _, t := range sel {
				v := sd.violation(sd.vec[tuples[t*stride+slot]])
				sel[k] = t
				if v > iv.Lo && v <= iv.Hi {
					k++
				}
			}
			sel = sel[:k]
		}
		for i := range b.joinDims {
			if len(sel) == 0 {
				break
			}
			jd := &b.joinDims[i]
			iv := region[jd.di]
			ls, rs := pos[jd.ltbl], pos[jd.rtbl]
			k := 0
			for _, t := range sel {
				row := tuples[t*stride:]
				v := jd.dim.JoinViolation(jd.lvec[row[ls]], jd.rvec[row[rs]])
				sel[k] = t
				if v > iv.Lo && v <= iv.Hi {
					k++
				}
			}
			sel = sel[:k]
		}
		if b.aggTbl >= 0 {
			slot := pos[b.aggTbl]
			for _, t := range sel {
				b.spec.StepValue(&p, b.aggVec[tuples[t*stride+slot]])
			}
		} else {
			for range sel {
				b.spec.StepValue(&p, 1.0)
			}
		}
	}
	return p
}
