#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it from the repository root.
#
#   bash bench/run.sh [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1] [--reps N]
#
# Every build product, cache and input file stays under .bench_build/ in
# the current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/bin"

export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/bench" && go build -o "$work/bin/bench" .)
exec "$work/bin/bench" "$@"
