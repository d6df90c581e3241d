#!/usr/bin/env bash
# A/A check: two sets (A, B) of fresh-process runs of ONE build, every run
# with another --seed, the four workloads interleaved run by run so that
# each set spans the whole wall time (as the pipeline's sets do). Prints per
# workload x end-to-end metric the spread of each set (interquartile range /
# median; calibrated and raw side by side) and the difference of the two
# medians beside the bound. Exits non-zero if a calibrated spread exceeds
# 0.10, a difference exceeds its bound, or ref.in_session_ratio leaves
# [0.8, 1.25] on any run.
#
#   benchmark/agree.sh            ten runs per set and workload (~30 min)
#   benchmark/agree.sh --quick    two runs per set and workload (~6 min)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=10
case "${1:-}" in
    "") ;;
    --quick) runs=2 ;;
    *) echo "usage: agree.sh [--quick]" >&2; exit 2 ;;
esac
workloads="direct_bulk fwd_bulk fwd_small chain_duplex_mix"
dir="$here/out/agree"
rm -rf "$dir"
mkdir -p "$dir"
seed=100
for set in A B; do
    for k in $(seq 1 "$runs"); do
        for w in $workloads; do
            seed=$((seed + 1))
            echo "agree: set $set run $k/$runs $w (seed $seed)" >&2
            "$here/run.sh" --workload "$w" --seed "$seed" --seconds 30 --trace 0 >/dev/null
            cp "$here/out/result.json" "$dir/$set.$w.$k.json"
        done
    done
done
exec "$here/run.sh" --agree "$dir"
