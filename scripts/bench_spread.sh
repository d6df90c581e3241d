#!/usr/bin/env bash
# The benchmark pipeline's "runs spread too widely to tell" rule, reproduced
# by hand: N fresh-process runs of one workload from this tree and, with
# --parent, from a checkout of the parent commit, alternating which side
# goes first; then per end-to-end metric each side's median and
# interquartile range (statistics.quantiles(n=4) convention) beside the
# width it must stay inside. That width is BENCHMARK.json's bound taken as
# a share of the PARENT's median, for both sides — so a change that makes a
# rate k times higher has a k times tighter tolerance relative to its own
# median (fwd_small after PR 15: 0.10 of 1.46 MB/s is 2.6 % of 5.7 MB/s).
# Without --parent the width is taken from this tree's own median.
#
#   scripts/bench_spread.sh [--runs 10] [--workload fwd_small|all] [--parent DIR]
#
# `--workload all` runs the four workloads of BENCHMARK.json in every
# alternating round and prints one table per workload. DIR is a checkout
# that has benchmark/run.sh (git clone or git archive of the parent); it
# builds into DIR/target. About 22 s a run (ten runs of all four against a
# parent: half an hour). Exit 1 on any TOO WIDE or any failed operation.
#
# With --parent each workload also gets the claim rule's table: round k of
# the parent and of this tree ran on the same seed and make pair k; per
# metric, the pairs this tree won (in the metric's better direction, ties
# for neither), the median gain (positive is better) beside the parent's
# interquartile range, and "holds" when the tree won at least nine tenths
# of the pairs and the gain is larger than that range. The table never
# changes the exit status.
# Run it on an otherwise idle machine: anything busy on the other CPU is in
# the numbers (EXPERIMENTS A13, "run-to-run spread").
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs=10
workload=fwd_small
parent=""
while [ $# -gt 0 ]; do
    case "$1" in
        --runs) runs="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --parent) parent="$(cd "$2" && pwd)"; shift 2 ;;
        *) echo "usage: bench_spread.sh [--runs N] [--workload W|all] [--parent DIR]" >&2; exit 2 ;;
    esac
done
workloads=("$workload")
if [ "$workload" = all ]; then
    workloads=(direct_bulk fwd_bulk fwd_small chain_duplex_mix)
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# one_run <checkout> <side> <workload> <seed>: the run's one-line result
# object, appended to the side's file for that workload.
one_run() {
    CARGO_TARGET_DIR="$1/target" "$1/benchmark/run.sh" \
        --workload "$3" --seed "$4" --seconds 30 --trace 0 2>/dev/null | tail -n 1 >>"$tmp/$2.$3"
}
for k in $(seq 1 "$runs"); do
    seed=$((700 + k))
    for w in "${workloads[@]}"; do
        echo "bench_spread: $w run $k/$runs" >&2
        if [ -n "$parent" ] && [ $((k % 2)) -eq 1 ]; then one_run "$parent" parent "$w" "$seed"; fi
        one_run "$root" change "$w" "$seed"
        if [ -n "$parent" ] && [ $((k % 2)) -eq 0 ]; then one_run "$parent" parent "$w" "$seed"; fi
    done
done

# values <file> <metric>: the metric's value of each run in <file>, in run
# order, one a line.
values() {
    sed -n "s/.*\"$2\": {\"value\": \([0-9.eE+-]*\).*/\1/p" "$1"
}
# spec <metric> <key>: the metric's field <key> in BENCHMARK.json.
spec() {
    grep -A4 "\"name\": \"$1\"" "$root/BENCHMARK.json" | sed -n "s/.*\"$2\": \"\{0,1\}\([a-z0-9.]*\).*/\1/p" | head -n 1
}
# stats <file> <metric>: "median iqr" over the runs in <file>.
stats() {
    values "$1" "$2" | sort -g | awk '
        { x[NR] = $1 }
        function q(p,   pos, lo, hi) {
            pos = p * (NR + 1); lo = int(pos)
            if (lo < 1) { lo = 1; pos = 1 }
            hi = lo + 1; if (hi > NR) { hi = NR }
            if (lo > NR) { lo = NR }
            return x[lo] + (pos - lo) * (x[hi] - x[lo])
        }
        END { printf "%.6g %.6g", q(0.5), q(0.75) - q(0.25) }'
}
status=0
for w in "${workloads[@]}"; do
    echo "== $w"
    printf '%-14s %-8s %12s %12s %12s  %s\n' metric side median iqr allowed verdict
    for metric in goodput_MBps msg_rate_kps rtt_p50_us rtt_p90_us setup_s; do
        bound="$(spec "$metric" bound)"
        read -r cmed ciqr <<<"$(stats "$tmp/change.$w" "$metric")"
        base="$cmed"
        if [ -n "$parent" ]; then
            read -r pmed piqr <<<"$(stats "$tmp/parent.$w" "$metric")"
            base="$pmed"
        fi
        allowed="$(awk -v b="$bound" -v m="$base" 'BEGIN { printf "%.6g", b * m }')"
        for side in parent change; do
            if [ "$side" = parent ]; then
                [ -n "$parent" ] || continue
                med="$pmed"; iqr="$piqr"
            else
                med="$cmed"; iqr="$ciqr"
            fi
            verdict="$(awk -v i="$iqr" -v a="$allowed" 'BEGIN { print (i <= a) ? "ok" : "TOO WIDE" }')"
            [ "$verdict" = ok ] || status=1
            printf '%-14s %-8s %12s %12s %12s  %s\n' "$metric" "$side" "$med" "$iqr" "$allowed" "$verdict"
        done
    done
    [ -n "$parent" ] || continue
    echo "-- $w: claim rule, pair k = round k of both sides on one seed"
    printf '%-14s %9s %12s %12s  %s\n' metric won gain parent_iqr claim
    for metric in goodput_MBps msg_rate_kps rtt_p50_us rtt_p90_us setup_s; do
        read -r cmed _ <<<"$(stats "$tmp/change.$w" "$metric")"
        read -r pmed piqr <<<"$(stats "$tmp/parent.$w" "$metric")"
        paste <(values "$tmp/parent.$w" "$metric") <(values "$tmp/change.$w" "$metric") |
            awk -v m="$metric" -v better="$(spec "$metric" better)" -v pm="$pmed" -v cm="$cmed" -v iqr="$piqr" '
                { s = (better == "higher") ? 1 : -1; n++; if (s * ($2 - $1) > 0) won++ }
                END {
                    gain = s * (cm - pm) + 0
                    claim = (won >= 0.9 * n && gain > iqr) ? "holds" : "no"
                    printf "%-14s %9s %12.6g %12.6g  %s\n", m, (won + 0) "/" n, gain, iqr, claim
                }'
    done
done
failed="$(cat "$tmp"/* | grep -c '"failed": [1-9]' || true)"
echo "runs with failed operations: $failed"
[ "$failed" -eq 0 ] || status=1
exit "$status"
