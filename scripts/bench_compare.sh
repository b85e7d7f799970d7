#!/usr/bin/env bash
# Compares two checkouts with the benchmark in alternating pairs and records
# the result as a BENCH json: the -compare table with the seeds, the
# workload, nproc and the Go version it was taken with.
#
#   bash scripts/bench_compare.sh PARENT_DIR CHANGE_DIR OUT.json [WORKLOAD [SEED...]]
#
# WORKLOAD defaults to all and the seeds to 1 through 10. Seed s runs the
# parent first when s is odd and the change first when it is even. The
# runs' results are kept beside OUT.json in OUT.json.parent.log and
# OUT.json.change.log, and their standard error (latencies, digest checks)
# in OUT.json.err.log. Each run builds the benchmark inside its own
# checkout (see benchmark/run.sh); needs jq.
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 PARENT_DIR CHANGE_DIR OUT.json [WORKLOAD [SEED...]]" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
workload=${4:-all}
shift $(($# < 4 ? $# : 4))
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)

plog=$out.parent.log clog=$out.change.log elog=$out.err.log
: >"$plog"
: >"$clog"
: >"$elog"
run() { # parent|change SEED
	local dir=$parent log=$plog
	[ "$1" = parent ] || { dir=$change log=$clog; }
	echo "== $1 seed $2" >>"$elog"
	(cd "$dir" && bash benchmark/run.sh -workload "$workload" -seed "$2") >>"$log" 2>>"$elog"
}
for s in "${seeds[@]}"; do
	if ((s % 2)); then
		run parent "$s"
		run change "$s"
	else
		run change "$s"
		run parent "$s"
	fi
done

table=$(cd "$change" && bash benchmark/run.sh -compare "$plog" "$clog")
echo "$table"
jq -n --arg table "$table" --arg workload "$workload" --arg go "$(go version)" \
	--argjson nproc "$(nproc)" --argjson seeds "$(printf '%s\n' "${seeds[@]}" | jq -s .)" \
	'{protocol: "bash benchmark/run.sh -workload W -seed S on the parent and the change, alternating which runs first, then -compare over the paired logs",
	  workload: $workload, seeds: $seeds, nproc: $nproc, go: $go,
	  compare: ($table | split("\n"))}' >"$out"
