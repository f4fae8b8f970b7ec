#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload storm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, the benchmark binary) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
