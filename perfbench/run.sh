#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload udp-lpbcast --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache and temporary files, binary, span dumps) stays under
# .bench_build/ in the current directory. The benchmark is its own module that replaces the
# parent module with the checkout's sources, so a directory holding only
# the benchmark fails to build and exits non-zero without a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "${root}/go.mod" ]; then
	echo "perfbench: no go.mod at ${root}: run from the root of a repository checkout" >&2
	exit 2
fi
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOMODCACHE="${build}/gomodcache"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export GOTMPDIR="${build}/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
# go build rewrites the binary every time; flush it now so its write-back
# does not land in the measured set-ups.
sync "${build}/perfbench"
exec "${build}/perfbench" -out "${build}" "$@"
