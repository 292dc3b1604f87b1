package main

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// config sizes one run of one workload.
type config struct {
	usersRows, tpchRows int
	// seed drives the row order of the generated tables.
	seed int64
	// untraced and traced are the lengths of the two timed runs; each
	// also completes at least minPasses passes.
	untraced, traced time.Duration
	minPasses        int
	// withTrace adds the traced run, for the per-layer metrics.
	withTrace bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// traceOut, when set, receives the spans of the traced run as JSON.
	traceOut string
}

// dataSeed fixes the generated rows. Targets are calibrated from a base
// result of ~200 rows, so a different generator seed moves every target
// by several percent, flips the layer at which searches end, and with it
// the work of a pass by 10-25 %. The benchmark's -seed therefore picks
// the row order (permuteRows) and leaves the multiset of rows alone.
const dataSeed = 1

const mb = 1 << 20

// op is one entry of the replayed ACQ list.
type op struct {
	id string
	// sql, when set, is parsed and analyzed on every operation.
	sql string
	q   *query
}

// opOutcome is what one refinement must reproduce on every repeat.
type opOutcome struct {
	digest                         uint64
	explored, results, cellQueries int
	satisfied                      bool
}

// passOutcome holds the deterministic counters of one pass.
type passOutcome struct {
	ops   []opOutcome
	stats engineStats
}

func (a passOutcome) equal(b passOutcome) bool {
	return a.stats == b.stats && slices.Equal(a.ops, b.ops)
}

// instance is one set-up workload: data, engine, ACQ list and the
// reference pass every later pass is compared with.
type instance struct {
	def  *workloadDef
	cat  *catalog
	eng  *engine
	ops  []op
	rows int

	generateS, calibrateS, indexBuildS, setupS float64
	dataHeapMB, indexHeapMB                    float64

	ref        passOutcome
	refResults []*searchResult
	refErrs    []error
}

func heapAfterGC() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

// setUp generates the data, calibrates the ACQ list, builds the engine
// with the workload's index or cache, and warms up until two passes in
// a row do exactly the same work. All of it counts as set-up time.
func setUp(ctx context.Context, def *workloadDef, cfg config) (*instance, error) {
	start := time.Now()
	in := &instance{def: def}
	heap0 := heapAfterGC()

	t := time.Now()
	var err error
	table := "users"
	if def.tpch {
		table = "partsupp"
		in.cat, err = generateTPCH(cfg.tpchRows, dataSeed)
	} else {
		in.cat, err = generateUsers(cfg.usersRows, dataSeed)
	}
	if err != nil {
		return nil, err
	}
	if err := permuteRows(in.cat, cfg.seed); err != nil {
		return nil, err
	}
	in.generateS = time.Since(t).Seconds()
	in.dataHeapMB = heapAfterGC() - heap0
	if in.rows, err = tableRows(in.cat, table); err != nil {
		return nil, err
	}

	in.eng = newEngine(in.cat)
	t = time.Now()
	for _, a := range def.acqs {
		q, err := buildCalibrated(in.eng, a.spec)
		if err != nil {
			return nil, fmt.Errorf("calibrate %s: %w", a.id, err)
		}
		o := op{id: a.id, q: q}
		if def.sql {
			o.sql = q.ToSQL()
		}
		in.ops = append(in.ops, o)
	}
	in.calibrateS = time.Since(t).Seconds()

	if len(def.gridColumns) > 0 {
		before := heapAfterGC()
		t = time.Now()
		if err := buildGridAgg(in.eng, table, def.gridColumns); err != nil {
			return nil, err
		}
		in.indexBuildS = time.Since(t).Seconds()
		in.indexHeapMB = heapAfterGC() - before
	}
	if def.cacheBytes > 0 {
		enableRegionCache(in.eng, def.cacheBytes)
	}

	const maxWarmUp = 6
	for i := 0; ; i++ {
		if i == maxWarmUp {
			return nil, fmt.Errorf("%s: work counters still changing after %d warm-up passes", def.name, maxWarmUp)
		}
		p, err := in.pass(ctx, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		settled := i > 0 && p.outcome.equal(in.ref)
		in.ref, in.refResults, in.refErrs = p.outcome, p.results, p.errs
		if settled {
			break
		}
	}
	in.setupS = time.Since(start).Seconds()
	return in, in.checkEngaged()
}

// checkEngaged fails the run when an optional layer silently fell back,
// or answered where it was not configured.
func (in *instance) checkEngaged() error {
	s := in.ref.stats
	if grid := len(in.def.gridColumns) > 0; grid != (s.CellsMerged > 0) {
		return fmt.Errorf("%s: aggregate grid configured=%v but cells merged per pass = %d", in.def.name, grid, s.CellsMerged)
	}
	if in.def.cacheBytes > 0 {
		if s.CacheHits == 0 || s.CacheMisses != 0 {
			return fmt.Errorf("%s: warm region cache has %d hits and %d misses per pass, want all hits", in.def.name, s.CacheHits, s.CacheMisses)
		}
	} else if s.CacheHits != 0 || s.CacheMisses != 0 {
		return fmt.Errorf("%s: no region cache configured but %d hits and %d misses per pass", in.def.name, s.CacheHits, s.CacheMisses)
	}
	return nil
}

// refine is the benchmark's one operation: SQL text or harness-built
// query in, core.Result out. With a nil tracer it records nothing and
// the search calls the engine directly.
func (in *instance) refine(ctx context.Context, o *op, tr *tracer, refineID int) (*searchResult, error) {
	root := tr.begin(spanRefine, -1, refineID)
	defer tr.end(root)
	q := o.q
	if o.sql != "" {
		id := tr.begin(spanParse, root, refineID)
		ast, err := parseSQL(o.sql)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin(spanAnalyze, root, refineID)
		q, err = analyzeSQL(ast, in.cat)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	id := tr.begin(spanSearch, root, refineID)
	defer tr.end(id)
	var ev evaluator = in.eng
	if tr != nil {
		ev = &tracedEvaluator{inner: in.eng, tr: tr, parent: id, refine: refineID}
	}
	return runSearch(ctx, ev, q)
}

// passResult is one replay of the ACQ list.
type passResult struct {
	wall       time.Duration
	latency    []time.Duration // per op
	allocBytes uint64
	outcome    passOutcome
	results    []*searchResult
	// errs holds the error of each op that returned one.
	errs []error
}

// pass replays the list once. Only the refinements are inside the timed
// window; counters, allocation readings and digests are taken around it.
func (in *instance) pass(ctx context.Context, tr *tracer, firstRefine int) (*passResult, error) {
	n := len(in.ops)
	p := &passResult{latency: make([]time.Duration, n), results: make([]*searchResult, n), errs: make([]error, n)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := snapshot(in.eng)

	start := time.Now()
	for i := range in.ops {
		t := time.Now()
		p.results[i], p.errs[i] = in.refine(ctx, &in.ops[i], tr, firstRefine+i)
		p.latency[i] = time.Since(t)
	}
	p.wall = time.Since(start)

	p.outcome.stats = snapshot(in.eng).Sub(s0)
	runtime.ReadMemStats(&m1)
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.outcome.ops = make([]opOutcome, n)
	for i, res := range p.results {
		if p.errs[i] != nil {
			continue
		}
		p.outcome.ops[i] = opOutcome{
			digest:      digest(res),
			explored:    res.Explored,
			results:     len(res.Queries),
			cellQueries: res.CellQueries,
			satisfied:   res.Satisfied,
		}
	}
	return p, nil
}

// checkReference runs the correctness gate on the reference pass,
// outside every timed window. It returns, per op, why that ACQ's result
// is wrong ("" when it is right): errored, unsatisfied, or a returned
// refined query whose aggregate an independent oracle does not confirm.
// Every repeat of a wrong ACQ counts as a failed operation.
func (in *instance) checkReference() ([]string, error) {
	var oracle func(*refinedQuery) (float64, error)
	if in.def.tpch {
		o, err := newTPCHOracle(in.cat)
		if err != nil {
			return nil, err
		}
		oracle = o.aggregate
	} else {
		oracle = func(rq *refinedQuery) (float64, error) { return naiveAggregate(in.eng, rq) }
	}
	bad := make([]string, len(in.ops))
	for i, res := range in.refResults {
		switch {
		case in.refErrs[i] != nil:
			bad[i] = in.refErrs[i].Error()
			continue
		case !res.Satisfied:
			bad[i] = "not satisfied"
			continue
		}
		for _, rq := range sampleQueries(res) {
			want, err := oracle(rq)
			if err != nil {
				return nil, fmt.Errorf("oracle on %s: %w", in.ops[i].id, err)
			}
			if !sameAggregate(rq.Base, rq.Aggregate, want) {
				bad[i] = fmt.Sprintf("refined query at scores %v reports aggregate %v, oracle %v", rq.Scores, rq.Aggregate, want)
				break
			}
		}
	}
	return bad, nil
}

// checkAgainstPlain replays the list once on a plain engine over the
// same catalog: an index or a cache may change how regions are answered,
// never what a refinement returns.
func (in *instance) checkAgainstPlain(ctx context.Context) error {
	plain := *in
	plain.eng = newEngine(in.cat)
	p, err := plain.pass(ctx, nil, 0)
	if err != nil {
		return err
	}
	for i := range in.ops {
		if p.errs[i] != nil {
			return fmt.Errorf("plain engine on %s: %w", in.ops[i].id, p.errs[i])
		}
		if got, want := in.ref.ops[i].digest, p.outcome.ops[i].digest; got != want {
			return fmt.Errorf("%s: result digest %016x differs from the plain engine's %016x", in.ops[i].id, got, want)
		}
	}
	return nil
}

// phase is one timed run.
type phase struct {
	passWall          []time.Duration
	latency           [][]time.Duration // per op, one sample per pass
	allocBytes        []uint64
	attempted, failed int
	// drift describes the first pass whose work counters differ from
	// the reference pass; "" when none does.
	drift string
	tr    *tracer
}

func (in *instance) measure(ctx context.Context, length time.Duration, minPasses int, tr *tracer, bad []string) (*phase, error) {
	ph := &phase{latency: make([][]time.Duration, len(in.ops)), tr: tr}
	runtime.GC()
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < length; n++ {
		p, err := in.pass(ctx, tr, n*len(in.ops))
		if err != nil {
			return nil, err
		}
		ph.passWall = append(ph.passWall, p.wall)
		ph.allocBytes = append(ph.allocBytes, p.allocBytes)
		for i := range in.ops {
			ph.latency[i] = append(ph.latency[i], p.latency[i])
			ph.attempted++
			if bad[i] != "" || p.errs[i] != nil || p.outcome.ops[i] != in.ref.ops[i] {
				ph.failed++
			}
		}
		if ph.drift == "" && p.outcome.stats != in.ref.stats {
			ph.drift = fmt.Sprintf("pass %d work counters %+v differ from the reference pass %+v", n, p.outcome.stats, in.ref.stats)
		}
	}
	return ph, nil
}

// runResult is everything one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// passes and refinements are the sample counts behind the medians
	// and percentiles; notes says why Correct is false.
	passes, refinements int
	notes               []string
	// digests holds the reference pass's result digest per ACQ.
	digests []uint64
}

// runWorkload is one run: set-ups, the correctness gate, the untraced
// timed run and, with cfg.withTrace, the traced one.
func runWorkload(ctx context.Context, def *workloadDef, cfg config) (*runResult, error) {
	var in *instance
	setupS := make([]float64, 0, cfg.setups)
	for len(setupS) < cfg.setups {
		in = nil // drop the previous set-up before the next allocates
		var err error
		if in, err = setUp(ctx, def, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, in.setupS)
	}
	heapMB := heapAfterGC()

	bad, err := in.checkReference()
	if err != nil {
		return nil, err
	}
	if len(def.gridColumns) > 0 || def.cacheBytes > 0 {
		if err := in.checkAgainstPlain(ctx); err != nil {
			return nil, err
		}
	}

	res := &runResult{Workload: def.name, Seed: cfg.seed}
	for i, why := range bad {
		if why != "" {
			res.notes = append(res.notes, in.ops[i].id+": "+why)
		}
	}

	untraced, err := in.measure(ctx, cfg.untraced, cfg.minPasses, nil, bad)
	if err != nil {
		return nil, err
	}
	phases := []*phase{untraced}
	values := map[string]float64{}
	if cfg.withTrace {
		traced, err := in.measure(ctx, cfg.traced, cfg.minPasses, newTracer(), bad)
		if err != nil {
			return nil, err
		}
		phases = append(phases, traced)
		in.layerValues(values, untraced, traced)
		if cfg.traceOut != "" {
			if err := traced.tr.writeJSON(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		if ph.drift != "" {
			res.notes = append(res.notes, ph.drift)
		}
	}
	res.Correct = len(res.notes) == 0 && res.Failed == 0
	res.passes, res.refinements = len(untraced.passWall), untraced.attempted

	all := flatten(untraced.latency)
	values["pass_p50_ms"] = ms(percentile(untraced.passWall, 0.5))
	values["refine_p50_ms"] = ms(percentile(all, 0.5))
	values["refine_p90_ms"] = ms(percentile(all, 0.9))
	values["refines_per_s"] = float64(untraced.attempted) / sum(untraced.passWall).Seconds()
	for _, o := range in.ref.ops {
		values["executions_per_pass"] += float64(o.cellQueries)
		res.digests = append(res.digests, o.digest)
	}
	values["alloc_mb_per_pass"] = float64(percentile(untraced.allocBytes, 0.5)) / mb
	values["setup_s"] = percentile(setupS, 0.5)
	values["heap_after_setup_mb"] = heapMB

	defs := endToEnd
	if cfg.withTrace {
		defs = append(append([]metricDef{}, endToEnd...), perLayer...)
	}
	if res.Metrics, err = metricSet(defs, values); err != nil {
		return nil, err
	}
	return res, nil
}

// layerValues fills the per-layer metrics from the traced run.
func (in *instance) layerValues(values map[string]float64, untraced, traced *phase) {
	n := len(in.ops)
	passes := len(traced.passWall)
	// Per-pass sums of span time, by span name, and of search self time.
	byName := map[string][]time.Duration{}
	for _, name := range []string{spanParse, spanAnalyze, spanSearch, spanCellBatch, spanProbe, "core.self"} {
		byName[name] = make([]time.Duration, passes)
	}
	self := traced.tr.selfTimes()
	var cellBatches, cellRegions, probes, spans int
	for i, s := range traced.tr.spans {
		pass := s.Refine / n
		if s.Name != spanRefine {
			byName[s.Name][pass] += time.Duration(s.End - s.Start)
		}
		if s.Name == spanSearch {
			byName["core.self"][pass] += time.Duration(self[i])
		}
		if pass > 0 {
			continue // counts repeat exactly; take them from the first pass
		}
		spans++
		switch s.Name {
		case spanCellBatch:
			cellBatches++
			cellRegions += s.Regions
		case spanProbe:
			probes++
		}
	}
	median := func(name string) float64 { return ms(percentile(byName[name], 0.5)) }
	search, selfMS, cell, probe := median(spanSearch), median("core.self"), median(spanCellBatch), median(spanProbe)

	values["sqlparse.parse_us"] = median(spanParse) * 1e3
	values["sqlparse.analyze_us"] = median(spanAnalyze) * 1e3

	values["core.search_ms"] = search
	values["core.self_ms"] = selfMS
	values["core.self_share"] = ratio(selfMS, search)
	values["core.cell_batches"] = float64(cellBatches)
	values["core.batch_width"] = ratio(float64(cellRegions), float64(cellBatches))
	values["core.probes"] = float64(probes)
	for i, o := range in.ref.ops {
		values["core.explored"] += float64(o.explored)
		values["core.results"] += float64(o.results)
		values["acq."+in.ops[i].id+".executions"] = float64(o.cellQueries)
		values["acq."+in.ops[i].id+".refine_ms"] = ms(percentile(traced.latency[i], 0.5))
	}

	s := in.ref.stats
	values["exec.cell_ms"] = cell
	values["exec.probe_ms"] = probe
	values["exec.cell_share"] = ratio(cell, search)
	values["exec.probe_share"] = ratio(probe, search)
	values["exec.cell_us_per_region"] = ratio(cell*1e3, float64(cellRegions))
	values["exec.probe_ms_per_call"] = ratio(probe, float64(probes))
	values["exec.executions"] = float64(s.Queries)
	values["exec.rows_scanned"] = float64(s.RowsScanned)
	values["exec.rows_per_execution"] = ratio(float64(s.RowsScanned), float64(s.Queries))
	values["exec.ns_per_row"] = ratio((cell+probe)*1e6, float64(s.RowsScanned))
	values["exec.tuples_examined"] = float64(s.TuplesExamined)
	values["exec.blocks_scanned"] = float64(s.BlocksScanned)
	values["exec.blocks_skipped"] = float64(s.BlocksSkipped)
	values["exec.cells_skipped"] = float64(s.CellsSkipped)

	values["index.build_s"] = in.indexBuildS
	values["index.heap_mb"] = in.indexHeapMB
	values["index.cells_merged"] = float64(s.CellsMerged)
	values["index.boundary_rows"] = float64(s.BoundaryRows)

	values["regioncache.hits"] = float64(s.CacheHits)
	values["regioncache.misses"] = float64(s.CacheMisses)
	values["regioncache.hit_ratio"] = ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses))
	values["regioncache.evictions"] = float64(s.CacheEvictions)

	values["tpch.generate_s"] = in.generateS
	values["workload.calibrate_s"] = in.calibrateS
	values["data.rows"] = float64(in.rows)
	values["data.heap_mb"] = in.dataHeapMB

	values["trace.overhead_pct"] = 100 * (ratio(ms(percentile(traced.passWall, 0.5)), ms(percentile(untraced.passWall, 0.5))) - 1)
	values["trace.spans"] = float64(spans)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func flatten(dss [][]time.Duration) []time.Duration {
	var out []time.Duration
	for _, ds := range dss {
		out = append(out, ds...)
	}
	return out
}

// percentile is the nearest-rank percentile of v, which it sorts.
func percentile[T cmp.Ordered](v []T, p float64) T {
	slices.Sort(v)
	i := int(p*float64(len(v))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}
