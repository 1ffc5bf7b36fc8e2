#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload groupby-bulk --seed 2022 --seconds 16 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout; results go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters in the user's
# configuration directory, which would be a write outside the checkout.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/bench" .)
# The commit is recorded in every output file; a checkout that is not a git
# repository reports "unknown".
BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
cd "$root"
exec "$build/bench" "$@"
