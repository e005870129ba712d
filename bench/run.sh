#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it with the arguments given. The Go build cache and the
# go command's config directory (its telemetry counters) live there too,
# so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
go build -C "$here" -o "$root/.bench_build/bdperf" .
exec "$root/.bench_build/bdperf" "$@"
