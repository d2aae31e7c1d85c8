#!/bin/sh
# Builds the benchmark and runs it with the arguments given. Everything
# the build writes — the binary and Go's build cache — goes under
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it. BENCHMARK.json names this script as the command.
set -eu
root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build
GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local \
	go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
