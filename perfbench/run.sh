#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#
# Every build artefact (Go build cache, binary, span dumps) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}"

# Keep the toolchain's caches and settings inside the build directory,
# and never let it reach for a network toolchain or module proxy.
export GOCACHE="${build}/go-cache"
export GOPATH="${build}/go-path"
export GOMODCACHE="${build}/go-path/pkg/mod"
export GOTMPDIR="${build}"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" -out "${build}" "$@"
