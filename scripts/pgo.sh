#!/bin/sh
# pgo.sh — regenerate default.pgo, the profile feeding profile-guided
# optimization of `go build` and the simulator benchmarks in bench_test.go.
# Profiles the hot simulator paths and merges them.
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d /tmp/mcbench-pgo.XXXXXX)
trap 'rm -rf "$TMP"' EXIT

go test -run '^$' -bench 'BenchmarkDetailedSimulator2Core$' -benchtime 8x \
	-cpuprofile "$TMP/det.prof" . >/dev/null
go test -run '^$' -bench 'BenchmarkBadcoSimulator8Core$' -benchtime 8x \
	-cpuprofile "$TMP/badco.prof" . >/dev/null
go test -run '^$' -bench 'BenchmarkPopulationSweep$' -benchtime 1x \
	-cpuprofile "$TMP/pop.prof" . >/dev/null
go test -run '^$' -bench 'BenchmarkPolicySweepSharedWarmup$' -benchtime 8x \
	-cpuprofile "$TMP/sweep.prof" . >/dev/null
go test -run '^$' -bench 'BenchmarkSampledDetailed2Core10x$' -benchtime 8x \
	-cpuprofile "$TMP/sampled.prof" . >/dev/null

go tool pprof -proto "$TMP/det.prof" "$TMP/badco.prof" "$TMP/pop.prof" "$TMP/sweep.prof" "$TMP/sampled.prof" >default.pgo
echo "wrote default.pgo"
