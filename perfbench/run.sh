#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run it from the repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload churn_cycle --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's node stores stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) abs=$build ;;
*) abs=$PWD/$build ;;
esac
mkdir -p "$abs/gocache" "$abs/gotmp" "$abs/config"
export GOCACHE=$abs/gocache GOTMPDIR=$abs/gotmp GOMODCACHE=$abs/gomodcache
export XDG_CONFIG_HOME=$abs/config GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$abs/perfbench-bin" .)
exec "$abs/perfbench-bin" --out "$build/perfbench" "$@"
