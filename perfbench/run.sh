#!/usr/bin/env bash
# Builds the perfbench benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload small-ops --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache, temporary files,
# the toolchain's telemetry counters (under XDG_CONFIG_HOME) and the
# binary all stay under the build directory ($CARGO_TARGET_DIR when set,
# else .bench_build), so nothing is written outside the checkout; the
# git revision lookup takes no index lock.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off GOPROXY=off
export GIT_OPTIONAL_LOCKS=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
