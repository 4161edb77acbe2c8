#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, temporary stores and
# journals, and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --work "$out/perfbench-work" "$@"
