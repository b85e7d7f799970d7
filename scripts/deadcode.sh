#!/usr/bin/env bash
# Fails when a function declared in the public mcbench package or under
# internal/ is linked by no entry point: the mcbench and tracegen
# commands, the examples and the benchmark module. The few functions that
# stay without a production caller on purpose are listed, each with its
# reason, in the allowlist below; an allowlist entry that some entry
# point links again fails too.
#
# Usage: bash scripts/deadcode.sh   (from any directory; offline)
#
# Method: build every entry point with inlining off (an inlined callee
# leaves no symbol of its own), collect the text symbols the binaries
# link, and subtract them from the functions compiled into the export
# archives of . and ./internal/... (go list -export). Compiler-generated
# wrappers, closures and generic shape instantiations are not
# declarations and are skipped; generic functions compare by name
# without their type arguments, since the linker names their bodies by
# shape.
set -euo pipefail
cd "$(dirname "$0")/.."

# One function per line, as the tools print it (pointer receivers
# without the star) less the mcbench/internal/ prefix, then the reason it
# stays. Functions of the public package keep their mcbench. prefix.
allow='
mcbench.Client.Benches            public client: fronts GET /benches
mcbench.Client.Cache              public client: fronts GET /cache
mcbench.Client.Jobs               public client: fronts GET /jobs
mcbench.Client.ServerExperiments  public client: fronts GET /experiments
mcbench.Client.SubmitSweep        public client: fronts POST /jobs of kind sweep
mcbench.Engine.String             public API: fmt.Stringer of Engine
mcbench.WithCores                 public API: the Option behind replicated simulate jobs; tests use it
mcbench.WorkloadNames             public API: names an EnumerateWorkloads population for Sweep; tests use it
bpred.MustNew                     test constructor
cache.MustNew                     test constructor
cache.MustNewPolicy               test constructor
cpu.MustNew                       test constructor
uncore.MustNew                    test constructor
mem.MustNewBus                    test constructor
trace.MustGenerate                test constructor
profile.MustCompute               test constructor
bpred.DefaultBTAC                 test constructor
bpred.DefaultRAS                  test constructor
trace.GenerateSuite               test constructor
cache.None.Name                   test constructor: the null prefetcher
cache.None.Observe                test constructor: the null prefetcher
faultinject.Enable                fault-injection Plan API, driven by the chaos harness
faultinject.Disable               fault-injection Plan API, driven by the chaos harness
faultinject.Enabled               fault-injection Plan API, driven by the chaos harness
faultinject.NewPlan               fault-injection Plan API, driven by the chaos harness
faultinject.Plan.Rule             fault-injection Plan API, driven by the chaos harness
faultinject.Plan.Injected         fault-injection Plan API, driven by the chaos harness
faultinject.Plan.InjectedTotal    fault-injection Plan API, driven by the chaos harness
telemetry.Disabled                tests switch recording off around a region with it
telemetry.Enabled                 tests observe live state
badco.Machine.CPI                 tests observe live state
badco.Machine.IterationEnds       tests observe live state
badco.Model.NodeCount             tests observe live state
badco.Model.RequestsPerKiloOp     tests observe live state
bench.DirSource.Dir               tests observe live state
bench.ScaledSource.Seed           tests observe live state
bpred.RAS.Depth                   tests observe live state
bpred.Stats.MissRate              tests observe live state
cache.Cache.Sets                  tests observe live state
cache.Cache.SizeBytes             tests observe live state
cache.Cache.Ways                  tests observe live state
cache.Stats.MPK                   tests observe live state
cache.dipPolicy.PSEL              tests observe live state
cache.shipPolicy.SHCTCounter      tests observe live state
cpu.Stats.CPI                     tests observe live state
cpu.Stats.IPC                     tests observe live state
mem.Bus.LineCycles                tests observe live state
mem.Bus.Transfers                 tests observe live state
mem.DRAM.Latency                  tests observe live state
multicore.Result.CPI              tests observe live state
serve.Server.Lab                  tests observe live state
workload.Occurrences              tests observe live state
experiments.PaperClass            tests read the paper table through it
sampling.PaperThresholds          tests read the paper table through it
profile.FeatureNames              tests read the feature table through it
trace.SortedNames                 tests read the suite table through it
cophase.Simulator.SimulatedOps    reachable only through the public mcbench.Cophase
'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
flags=(-gcflags=all=-l)

for pkg in ./cmd/mcbench ./cmd/tracegen ./examples/*/; do
	go build "${flags[@]}" -o "$work/bin/$(basename "$pkg")" "$pkg"
done
go -C benchmark build "${flags[@]}" -o "$work/bin/benchmark" .

# norm drops pointer receivers' star and generic type arguments.
norm() { sed -E -e 's/\(\*([^)]*)\)/\1/' -e ':a' -e 's/\[[^][]*\]//' -e 'ta' | sort -u; }

for bin in "$work"/bin/*; do
	go tool nm "$bin" | sed -nE 's/^ *[0-9a-f]+ [Tt] (.*)$/\1/p'
done | norm >"$work/linked"

go list -export "${flags[@]}" -f '{{.Export}}' . ./internal/... | while read -r archive; do
	go tool objdump "$archive" | sed -nE 's/^TEXT (mcbench(\/internal\/[^.]*)?\..*)\(SB\) (.*)$/\1\t\3/p'
done | awk -F'\t' '$2 != "<autogenerated>" { print $1 }' |
	grep -Ev 'go\.shape|\.(func|gowrap|deferwrap)[0-9]+' | norm >"$work/declared"

printf '%s\n' "$allow" | awk 'NF { print ($1 ~ /^mcbench\./ ? "" : "mcbench/internal/") $1 }' | sort -u >"$work/allowed"
comm -23 "$work/declared" "$work/linked" >"$work/unlinked"

status=0
if dead=$(comm -23 "$work/unlinked" "$work/allowed") && [ -n "$dead" ]; then
	echo "deadcode: functions no entry point links (delete them, or allowlist them with a reason):"
	printf '  %s\n' $dead
	status=1
fi
if stale=$(comm -13 "$work/unlinked" "$work/allowed") && [ -n "$stale" ]; then
	echo "deadcode: allowlist entries that are linked or no longer declared:"
	printf '  %s\n' $stale
	status=1
fi
if [ "$status" = 0 ]; then
	echo "deadcode: ok ($(wc -l <"$work/declared") functions, $(wc -l <"$work/unlinked") unlinked, all allowlisted)"
fi
exit "$status"
