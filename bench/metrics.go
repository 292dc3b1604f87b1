package main

import "fmt"

// metricDef names one metric. BENCHMARK.json at the root of the
// repository lists the same names, units, directions and bounds;
// `go test` in this directory fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees, with the share of the
// parent's median by which each may get worse before a change counts as
// a regression. The timings carry the widest bound the driver allows:
// on the 2-vCPU sandbox this was sized on, ten runs of identical work
// spread by 6-15 % (README.md, "Noise"). failed_share is printed too,
// but lives in the result line's attempted/failed fields: a metric that
// is 0 on every good run cannot carry a relative bound.
var endToEnd = []metricDef{
	{"pass_p50_ms", "ms", lower, 0.25},
	{"refine_p50_ms", "ms", lower, 0.25},
	{"refine_p90_ms", "ms", lower, 0.25},
	{"refines_per_s", "1/s", higher, 0.25},
	{"executions_per_pass", "count", lower, 0.001},
	{"alloc_mb_per_pass", "MB", lower, 0.02},
	{"setup_s", "s", lower, 0.25},
	{"heap_after_setup_mb", "MB", lower, 0.05},
}

// exactMetrics must not differ at all between two sets of runs.
var exactMetrics = map[string]bool{"executions_per_pass": true}

// acqIDs names every ACQ class of every workload: d<dims>_r<ratio> for
// the users lists of figs. 8 and 9, <agg>_r<ratio> for fig. 11.
var acqIDs = []string{
	"d3_r01", "d3_r03", "d3_r05", "d3_r07", "d3_r09",
	"d1_r03", "d2_r03", "d4_r03", "d5_r03",
	"count_r03", "count_r07", "sum_r03", "sum_r07", "max_r03",
}

// perLayer lists the metrics of single layers, from the traced run.
// Values are per pass unless the unit says otherwise. Every workload
// prints every one; a layer a workload does not use reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "sqlparse.parse_us", Unit: "us", Better: lower},
		{Name: "sqlparse.analyze_us", Unit: "us", Better: lower},

		{Name: "core.search_ms", Unit: "ms", Better: lower},
		{Name: "core.self_ms", Unit: "ms", Better: lower},
		{Name: "core.self_share", Unit: "ratio", Better: lower},
		{Name: "core.explored", Unit: "count", Better: lower},
		{Name: "core.results", Unit: "count", Better: higher},
		{Name: "core.cell_batches", Unit: "count", Better: lower},
		{Name: "core.batch_width", Unit: "regions", Better: higher},
		{Name: "core.probes", Unit: "count", Better: lower},

		{Name: "exec.cell_ms", Unit: "ms", Better: lower},
		{Name: "exec.probe_ms", Unit: "ms", Better: lower},
		{Name: "exec.cell_share", Unit: "ratio", Better: lower},
		{Name: "exec.probe_share", Unit: "ratio", Better: lower},
		{Name: "exec.cell_us_per_region", Unit: "us", Better: lower},
		{Name: "exec.probe_ms_per_call", Unit: "ms", Better: lower},
		{Name: "exec.executions", Unit: "count", Better: lower},
		{Name: "exec.rows_scanned", Unit: "count", Better: lower},
		{Name: "exec.rows_per_execution", Unit: "count", Better: lower},
		{Name: "exec.ns_per_row", Unit: "ns", Better: lower},
		{Name: "exec.tuples_examined", Unit: "count", Better: lower},
		{Name: "exec.blocks_scanned", Unit: "count", Better: lower},
		{Name: "exec.blocks_skipped", Unit: "count", Better: higher},
		{Name: "exec.cells_skipped", Unit: "count", Better: higher},

		{Name: "index.build_s", Unit: "s", Better: lower},
		{Name: "index.heap_mb", Unit: "MB", Better: lower},
		{Name: "index.cells_merged", Unit: "count", Better: higher},
		{Name: "index.boundary_rows", Unit: "count", Better: lower},

		{Name: "regioncache.hits", Unit: "count", Better: higher},
		{Name: "regioncache.misses", Unit: "count", Better: lower},
		{Name: "regioncache.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "regioncache.evictions", Unit: "count", Better: lower},

		{Name: "tpch.generate_s", Unit: "s", Better: lower},
		{Name: "workload.calibrate_s", Unit: "s", Better: lower},
		{Name: "data.rows", Unit: "count", Better: lower},
		{Name: "data.heap_mb", Unit: "MB", Better: lower},

		{Name: "trace.overhead_pct", Unit: "%", Better: lower},
		{Name: "trace.spans", Unit: "count", Better: lower},
	}
	for _, id := range acqIDs {
		defs = append(defs,
			metricDef{Name: "acq." + id + ".refine_ms", Unit: "ms", Better: lower},
			metricDef{Name: "acq." + id + ".executions", Unit: "count", Better: lower})
	}
	return defs
}()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps every name in defs to its measured value, 0 when the
// workload did not produce one. A value under a name defs does not list
// is a typo in the program, and an error.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is measured but not defined in metrics.go", name)
		}
	}
	return out, nil
}

// pick keeps the metrics that defs lists.
func pick(defs []metricDef, ms map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = ms[d.Name]
	}
	return out
}
