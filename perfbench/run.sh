#!/usr/bin/env bash
# Builds the benchmark harness and the bashsim binary from source, then
# runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload macro16 --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write goes under the build directory
# ($CARGO_TARGET_DIR if set, else .bench_build), including the Go build
# cache, so nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f go.mod || ! -d cmd/bashsim ]]; then
	echo "perfbench: simulator sources not found beside perfbench/" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" HOME="$build"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
go build -o "$build/bin/bashsim" ./cmd/bashsim

exec "$build/bin/perfbench" --bashsim "$build/bin/bashsim" --build-dir "$build" "$@"
