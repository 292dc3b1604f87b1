package main

// acq is one entry of a workload's fixed ACQ list.
type acq struct {
	id   string
	spec acqSpec
}

// workloadDef is one row of the workload matrix. Every list holds an odd
// number of ACQs, so the per-refinement median is one class's latency
// and not the midpoint of two.
type workloadDef struct {
	name string
	// why is copied into BENCHMARK.json.
	why  string
	tpch bool
	acqs []acq
	// sql feeds every operation as SQL text through sqlparse.Parse and
	// Analyze, the cmd/acquire path, whose PScore width is the predicate
	// interval (Eq. 1). Without it the harness-built query is searched
	// as is, with its domain-relative width.
	sql bool
	// gridColumns, when set, builds the aggregate grid over them.
	gridColumns []string
	// cacheBytes, when positive, attaches a region cache of that size.
	cacheBytes int64
}

var fig8 = []acq{
	{"d3_r01", usersSpec(3, 0.1)},
	{"d3_r03", usersSpec(3, 0.3)},
	{"d3_r05", usersSpec(3, 0.5)},
	{"d3_r07", usersSpec(3, 0.7)},
	{"d3_r09", usersSpec(3, 0.9)},
}

var fig9 = []acq{
	{"d1_r03", usersSpec(1, 0.3)},
	{"d2_r03", usersSpec(2, 0.3)},
	{"d4_r03", usersSpec(4, 0.3)},
	{"d5_r03", usersSpec(5, 0.3)},
}

var fig11 = []acq{
	{"count_r03", tpchSpec("count", 0.3)},
	{"count_r07", tpchSpec("count", 0.7)},
	{"sum_r03", tpchSpec("sum", 0.3)},
	{"sum_r07", tpchSpec("sum", 0.7)},
	{"max_r03", tpchSpec("max", 0.3)},
}

// The columns of the three fig. 8 dimensions.
var fig8Columns = []string{"age", "income", "distance"}

var workloads = []workloadDef{
	{
		name: "users_fig",
		why:  "harness-built fig. 8/9 ACQs, domain-relative PScore: few large regions, so scan throughput and prefix probes (repartitioning) show",
		acqs: append(append([]acq{}, fig8...), fig9...),
	},
	{
		name: "users_sql",
		why:  "the fig. 8 ACQs as SQL text through parse and analyze on every operation: thousands of small cell regions, so per-region overhead and batch dispatch show",
		acqs: fig8, sql: true,
	},
	{
		name: "users_sql_gridagg",
		why:  "users_sql answered from the aggregate grid's stored partials and posting lists: bypasses the scan kernels, so index and core time show",
		acqs: fig8, sql: true, gridColumns: fig8Columns,
	},
	{
		name: "users_sql_cached",
		why:  "users_sql with a warm region cache that holds the whole working set: every region is a hit, so core, fingerprints and the cache do the work; users_sql is its all-miss counterpart",
		acqs: fig8, sql: true, cacheBytes: 64 << 20,
	},
	{
		name: "tpch_sql_join",
		why:  "fig. 11 COUNT/SUM/MAX over supplier-part-partsupp as SQL text: the join path (attach, semi-join pushdown, hash builds), which a single-table scan change leaves unchanged",
		tpch: true, acqs: fig11, sql: true,
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
