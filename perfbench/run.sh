#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --churn-rate 140 --resident-rate 200 \
#       --workload serve-churn --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# goes under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
