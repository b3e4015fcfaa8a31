#!/usr/bin/env bash
# A/A harness: runs the whole benchmark several times on the same code and
# prints, per workload and end-to-end metric, each set's median over its
# seeds, the spread between quartiles, and how far the set medians lie apart.
#
#   benchmark/aa.sh [sets] [seeds-per-set] > benchmark/AA.md
#
# Every set runs seeds 1 .. seeds, so the sets have the same inputs and differ
# only in when they ran; within a set every run has another seed, the way the
# acceptance runs are made. The sets run one after the other, so the distance
# between their medians is the drift of the machine over the sets' duration.
set -euo pipefail
sets=${1:-3}
seeds=${2:-10}
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
out="$root/.bench_build/aa-results.jsonl"
logs="$root/.bench_build/aa-logs" # every run's standard error: the values behind each median
mkdir -p "$logs"
: > "$out"
workloads="sync-kernels async-hogwild replica-merge ps-cluster serve-hotswap"
for ((s = 1; s <= sets; s++)); do
	for w in $workloads; do
		for ((i = 1; i <= seeds; i++)); do
			t0=$SECONDS
			line=$(bash "$here/run.sh" --workload "$w" --seed "$i" --trace 0 2> "$logs/set$s-$w-seed$i.log" | tail -n 1)
			printf '{"set":%d,"workload":"%s","seed":%d,"result":%s}\n' "$s" "$w" "$i" "$line" >> "$out"
			echo "set $s $w seed $i: $((SECONDS - t0)) s" >&2
		done
	done
done
echo "# A/A: $sets sets of $seeds seeds per workload, same code"
echo
echo '```'
uname -srm
echo "nproc $(nproc), $(go version)"
echo '```'
echo
"$root/.bench_build/benchmark" -aa-report "$out"
