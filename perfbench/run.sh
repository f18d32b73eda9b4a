#!/usr/bin/env bash
# Builds the host-performance benchmark from source and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload accel-sweep --seed 1 --seconds 35 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
