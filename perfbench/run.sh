#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) stays
# under .bench_build/ in the checkout. The last line of standard output is
# the JSON result; the exit code is non-zero when the build fails or the
# benchmark finds a failed or invalid operation.
set -euo pipefail

root="$(pwd)"
src="$root/perfbench"
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$src" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
