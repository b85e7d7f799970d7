#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root. Everything the build and the runs write stays
# under .bench_build/ (the Go build cache included), and no module is
# downloaded: the benchmark module needs only the mcbench module beside it.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$out/mcbench-benchmark" .
exec "$out/mcbench-benchmark" "$@"
