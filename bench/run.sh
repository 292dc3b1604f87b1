#!/bin/sh
# Builds the benchmark from source and runs it, from the root of a
# checkout: sh bench/run.sh --workload users_sql --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, compile cache, temporaries) stays
# under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/acqbench" .
exec "$out/acqbench" "$@"
