#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one workload:
#
#   bash perfbench/run.sh --workload sim-wide --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build writes (binary, Go
# build cache) stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off

# The build fails (non-zero exit, nothing on stdout) when the program's
# source is not beside the benchmark.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
if [ -z "${BENCH_COMMIT:-}" ]; then
  BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export BENCH_COMMIT
fi
exec "$out/perfbench" "$@"
