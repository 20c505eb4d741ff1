#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload flood --seed 1 --seconds 20 --trace 0
#
# The build and every Go cache live under .bench_build/ in the
# repository root, so the benchmark reads and writes nothing outside
# the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
