#!/usr/bin/env bash
# Runs one workload of the wall-clock benchmark (bench/run.sh) in
# alternating pairs: a git archive of BASE against the working tree,
# swapping which side goes first each pair, at the run length bench/
# sets. Prints every run's end-to-end metrics as it goes, then, for each
# end-to-end metric BENCHMARK.json names, each side's quartiles and
# median, how many pairs the change won (ties count for neither side) and
# whether that meets the rule for claiming a gain: the change wins at
# least nine pairs in ten, the medians differ, in the better direction,
# by more than the base's inter-quartile range, and the change failed no
# more operations than the base.
#
#   PAIRS=10 SEED=1234 scripts/bench-pairs.sh BASE WORKLOAD
#   make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=10 SEED=1234
#
# PAIRS defaults to 10 and SEED to 1234. Each side builds its own harness
# under its own .bench_build/; the base side lives in a temporary
# directory that is removed on exit.
set -euo pipefail

usage="usage: [PAIRS=n] [SEED=n] $0 BASE WORKLOAD"
[ $# = 2 ] || { echo "$usage" >&2; exit 2; }
base_rev=$1
workload=$2
pairs=${PAIRS:-10}
seed=${SEED:-1234}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"

# name and better direction of each end-to-end metric
metrics=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$root/BENCHMARK.json")

# run SIDE PAIR writes one bench run's output to $tmp/SIDE-PAIR.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$tmp/base
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0) >"$tmp/$1-$2"
}

# value SIDE PAIR METRIC prints one metric of one run.
value() { awk -v m="$3" '$1 == m { print $2; exit }' "$tmp/$1-$2"; }

# column SIDE METRIC prints the metric of every pair of one side.
column() { for i in $(seq 1 "$pairs"); do value "$1" "$i" "$2"; done; }

# quartiles reads numbers, one a line, and prints q1, median and q3,
# interpolating linearly between order statistics.
quartiles() {
	sort -g | awk '{ v[NR] = $1 }
	function q(p,   h, i) { h = (NR - 1) * p + 1; i = int(h); return i >= NR ? v[i] : v[i] + (h - i) * (v[i + 1] - v[i]) }
	END { printf "%.6g %.6g %.6g\n", q(0.25), q(0.5), q(0.75) }'
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) = 1 ]; then order="base change"; else order="change base"; fi
	for side in $order; do
		run "$side" "$i"
		line="pair $i $side:"
		while read -r name _; do line="$line $name=$(value "$side" "$i" "$name")"; done <<<"$metrics"
		echo "$line $(grep -o 'failed=[0-9]* digest=[0-9a-f]*' "$tmp/$side-$i")"
	done
done

echo
echo "workload=$workload seed=$seed pairs=$pairs base=$base_rev change=worktree"
# failed SIDE prints the operations one side failed over all its runs.
failed() { cat "$tmp/$1"-* | grep -o 'failed=[0-9]*' | awk -F= '{ n += $2 } END { print n + 0 }'; }
for side in base change; do
	echo "$side: $(failed "$side") failed; $(cat "$tmp/$side"-* | grep -o 'digest=[0-9a-f]*' | sort | uniq -c |
		awk '{ printf "%s%s in %d runs", sep, $2, $1; sep = ", " }')"
done
no_more_failed=$(($(failed change) <= $(failed base)))
printf '%-12s %-38s %-38s %9s %6s %s\n' metric "base q1 / median / q3" "change q1 / median / q3" "Δ median" wins rule
while read -r name better; do
	read -r bq1 bmed bq3 < <(column base "$name" | quartiles)
	read -r cq1 cmed cq3 < <(column change "$name" | quartiles)
	wins=$(paste <(column base "$name") <(column change "$name") |
		awk -v better="$better" '$1 != $2 && (($2 < $1) == (better == "lower")) { n++ } END { print n + 0 }')
	awk -v name="$name" -v better="$better" -v wins="$wins" -v pairs="$pairs" -v ok="$no_more_failed" \
		-v bq1="$bq1" -v bmed="$bmed" -v bq3="$bq3" -v cq1="$cq1" -v cmed="$cmed" -v cq3="$cq3" 'BEGIN {
		gain = better == "lower" ? bmed - cmed : cmed - bmed
		rule = (ok && wins * 10 >= pairs * 9 && gain > bq3 - bq1) ? "met" : "not met"
		delta = bmed == 0 ? "n/a" : sprintf("%+.1f%%", 100 * (cmed - bmed) / bmed)
		printf "%-12s %-38s %-38s %9s %6s %s\n", name, bq1 " / " bmed " / " bq3, cq1 " / " cmed " / " cq3, delta, wins "/" pairs, rule
	}'
done <<<"$metrics"
