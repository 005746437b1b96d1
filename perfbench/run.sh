#!/bin/sh
# Builds the benchmark harness and runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-bayesnet --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh --smoke
#
# Every build output, Go cache entry and temporary file stays under
# .bench_build/ in the checkout. The harness builds sgfd itself.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
