GO ?= go

.PHONY: build test race bench bench-compare bench-figures bench-obs vet profile-fig profile-scan profile-core profile-join loc

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The three sizes every ROADMAP re-anchor quotes: non-test Go lines under
# internal/exec, non-test Go lines outside bench/, and _test.go lines.
loc:
	@printf 'internal/exec source lines:  %s\n' "$$(find internal/exec -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'source lines outside bench/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)"
	@printf 'test lines (_test.go):       %s\n' "$$(find . -name '*_test.go' | xargs cat | wc -l)"

# The repository's benchmark (bench/README.md, BENCHMARK.json): one ACQ
# refinement end to end and per layer over the workload matrix, through
# the driver's own command. BENCH_ARGS narrows it, e.g.
#   make bench BENCH_ARGS="-workload tpch_sql_join -seconds 10 -trace 0 -out change.jsonl"
BENCH_ARGS ?= -seed 1
bench:
	sh bench/run.sh $(BENCH_ARGS)

# Judge two sets of runs appended with -out against the benchmark's
# bounds: make bench-compare A=parent.jsonl B=change.jsonl
bench-compare:
	sh bench/run.sh -compare $(A) $(B)

# Figure-regeneration benchmarks (bench-friendly scale; full scale via
# cmd/acqbench -rows 1000000). The parallel-exploration sweep is
# BenchmarkParallelExplore.
bench-figures:
	$(GO) test -run xxx -bench=. -benchmem .

# Metrics-overhead guard: the exploration sweep bare vs with a live
# registry/observer attached. The two ns/op columns should be within
# noise of each other.
bench-obs:
	$(GO) test -run xxx -bench='BenchmarkParallelExplore(Observed)?$$' -benchmem .

# CPU profiles of the benchmark's workloads under `go test`: each target
# runs one sub-benchmark of BenchmarkWorkloadSearch, the op list of the
# bench/ workload it is named after, and writes NAME.pprof plus the test
# binary next to it. Inspect with `go tool pprof -top -ignore setUp
# NAME.pprof`, which drops data generation, calibration and warm-up; add
# `-focus BenchmarkWorkloadSearch` to keep only the calling goroutine
# (region-cache hits, units and table builds run on the engine's worker
# goroutines, outside that focus).
#
# users_fig: the fig. 8 and 9 ACQs, harness-built — few large regions,
# scan throughput and the §6 prefix probes.
profile-fig:
	$(GO) test -run xxx -bench 'WorkloadSearch/users_fig$$' -benchtime 100x -benchmem -cpuprofile fig.pprof -o fig.test .

# users_sql: the fig. 8 ACQs as SQL text on a plain engine, where cells
# reach the scan stage or the search's grouped table.
profile-scan:
	$(GO) test -run xxx -bench 'WorkloadSearch/users_sql$$' -benchtime 100x -benchmem -cpuprofile scan.pprof -o scan.test .

# users_sql_cached: the same on a warm region cache, where the Expand and
# Explore phases of the search driver do the work.
profile-core:
	$(GO) test -run xxx -bench 'WorkloadSearch/users_sql_cached$$' -benchtime 200x -benchmem -cpuprofile core.pprof -o core.test .

# tpch_sql_join: the five fig. 11 ACQs as SQL text, the join path.
profile-join:
	$(GO) test -run xxx -bench 'WorkloadSearch/tpch_sql_join$$' -benchtime 50x -benchmem -cpuprofile join.pprof -o join.test .
