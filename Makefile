GO ?= go

.PHONY: build test race bench bench-compare bench-figures bench-json bench-check bench-obs vet profile profile-join profile-core profile-scan loc

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

# Machine-readable baselines: the fig. 8 ratio sweep and the cached
# repeated-workload study — figures, config and the metric registry
# snapshot in one JSON file each. The committed BENCH_*.json files are the
# reference artifacts; regenerate after a perf-relevant change and
# compare before committing. Every write goes through schema validation
# (harness.ValidateResults) plus a temp-file rename, and the final
# bench-check pass re-validates the files on disk, so a failed run can
# never leave a malformed or truncated artifact behind.
bench-json:
	$(GO) run ./cmd/acqbench -experiment fig8 -rows 20000 -json BENCH_baseline.json
	$(GO) test -run xxx -bench BenchmarkRepeatedWorkload -benchtime 1x .
	$(GO) run ./cmd/acqbench -experiment repeated -cache -rows 20000 -json BENCH_cache.json
	$(GO) run ./cmd/benchcheck BENCH_*.json

# Validate the committed benchmark artifacts against the harness
# results schema without regenerating them.
bench-check:
	$(GO) run ./cmd/benchcheck BENCH_*.json

# Metrics-overhead guard: the exploration sweep bare vs with a live
# registry/observer attached. The two ns/op columns should be within
# noise of each other.
bench-obs:
	$(GO) test -run xxx -bench='BenchmarkParallelExplore(Observed)?$$' -benchmem .

# Capture a 10s CPU profile from a live acqbench run through the pprof
# endpoint the observability layer serves. Writes cpu.pprof; inspect
# with `go tool pprof cpu.pprof`.
PROFILE_ADDR ?= 127.0.0.1:8099
profile:
	$(GO) run ./cmd/acqbench -experiment fig8 -rows 50000 -metrics-addr $(PROFILE_ADDR) & \
	BENCH_PID=$$!; \
	sleep 2; \
	curl -fsS -o cpu.pprof "http://$(PROFILE_ADDR)/debug/pprof/profile?seconds=10" || { kill $$BENCH_PID; exit 1; }; \
	kill $$BENCH_PID 2>/dev/null; \
	echo "wrote cpu.pprof"

# CPU profile of the join path: the five fig. 11 ACQs as SQL text end to
# end (BenchmarkTPCHJoinSearch, the op list of bench's tpch_sql_join).
# Writes join.pprof and the test binary next to it; inspect with
# `go tool pprof -top join.pprof`.
profile-join:
	$(GO) test -run xxx -bench TPCHJoinSearch -benchtime 50x -benchmem -cpuprofile join.pprof -o join.test .

# CPU profile of the search driver: the five fig. 8 ACQs as SQL text on a
# warm region cache (BenchmarkCachedSearch, the op list of bench's
# users_sql_cached), where the Expand and Explore phases do the work.
# Writes core.pprof and the test binary next to it; inspect with
# `go tool pprof -top -focus BenchmarkCachedSearch core.pprof`.
profile-core:
	$(GO) test -run xxx -bench CachedSearch -benchtime 200x -benchmem -cpuprofile core.pprof -o core.test .

# CPU profile of the single-table scan regime: the five fig. 8 ACQs as SQL
# text on a plain engine (BenchmarkUsersSQLSearch, the op list of bench's
# users_sql), where cells reach the scan stage or the search's grouped
# table. Writes scan.pprof and the test binary next to it; inspect with
# `go tool pprof -top scan.pprof`.
profile-scan:
	$(GO) test -run xxx -bench UsersSQLSearch -benchtime 100x -benchmem -cpuprofile scan.pprof -o scan.test .
