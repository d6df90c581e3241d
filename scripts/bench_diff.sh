#!/usr/bin/env bash
# Two committed readings side by side: BENCH_<a>.json against BENCH_<b>.json.
#
# Per workload: the five end-to-end medians A -> B with the ratio B / A, and
# a `!` where the move is wider than BENCHMARK.json's bound for that metric,
# with the direction it went; then every per-layer metric of unit `count`
# whose value differs. A count is a property of the code (packets per
# message, threads spawned) or a tally of one run (timeouts, queue peak):
# the first kind moves only when the code does, and is what a diff of two
# PRs should explain. Each file is one run per cell (bench_snapshot.sh), so
# a `!` is a question for alternating pairs (bench_spread.sh), not a verdict.
#
#   scripts/bench_diff.sh BENCH_19.json BENCH_20.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -eq 2 ] || { echo "usage: bench_diff.sh A.json B.json" >&2; exit 2; }

# rows <file>: "workload name unit better value" per metric line.
rows() {
    sed -n -e 's/.*{"workload": "\([a-z_]*\)".*/W \1/p' \
        -e 's/.*{"name": "\([^"]*\)", "unit": "\([^"]*\)", "better": "\([a-z]*\)", "value": \([0-9.eE+-]*\),.*/M \1 \2 \3 \4/p' "$1" |
        awk '$1 == "W" { w = $2; next } { print w, $2, $3, $4, $5 }'
}
# bounds: "name bound" per end-to-end metric of BENCHMARK.json.
bounds() {
    sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" |
        sed -n -e 's/.*"name": "\([^"]*\)".*/\1/p' -e 's/.*"bound": \([0-9.]*\).*/\1/p' | paste -d' ' - -
}
sha() { sed -n 's/.*"sha": "\([^"]*\)".*/\1/p' "$1" | head -n 1; }

echo "$(basename "$1") ($(sha "$1")) -> $(basename "$2") ($(sha "$2"))"
awk '
    FILENAME == ARGV[1] { bound[$1] = $2; next }
    FILENAME == ARGV[2] { a[$1, $2] = $5; next }
    {
        key = $1 SUBSEP $2
        if (!(key in a)) next
        if ($1 != w) { w = $1; printf "== %s\n", w; counts = 0 }
        if ($2 in bound) {
            ratio = (a[key] != 0) ? $5 / a[key] : 0
            mark = ""
            if (ratio > 1 + bound[$2] || ratio < 1 - bound[$2]) {
                up = ratio > 1
                mark = ((up && $4 == "higher") || (!up && $4 == "lower")) ? "  ! better" : "  ! worse"
            }
            printf "  %-14s %12.6g -> %12.6g %-7s x%.3f%s\n", $2, a[key], $5, $3, ratio, mark
        } else if ($3 == "count" && a[key] != $5) {
            if (!counts++) print "  counts that differ:"
            printf "    %-28s %12.6g -> %12.6g\n", $2, a[key], $5
        }
    }' <(bounds) <(rows "$1") <(rows "$2")
