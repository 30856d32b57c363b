#!/usr/bin/env bash
# The line-budget gate: counts the non-test Go lines outside bench/ and
# testdata with ROADMAP.md's count command, prints the count per
# directory and the total, and exits 1 when the total is over the budget.
# The budget changes only when ROADMAP.md is re-anchored. It also prints
# the total of test Go lines, as a report only, so that code moved into a
# _test.go file can be told apart from code that was deleted.
#
#   bash scripts/loc.sh        (or: make loc)
set -euo pipefail
cd "$(dirname "$0")/.."

budget=27600

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' |
	xargs wc -l |
	awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1 } END { for (d in n) printf "%6d  %s\n", n[d], d }' |
	sort -k2
total=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l)
echo "non-test Go lines: $total (budget $budget)"
tests=$(find . -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' | xargs cat | wc -l)
echo "test Go lines: $tests (not budgeted)"
if [ "$total" -gt "$budget" ]; then
	echo "over the line budget by $((total - budget)): delete code to pay for what you add" >&2
	exit 1
fi
