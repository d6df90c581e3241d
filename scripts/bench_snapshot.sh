#!/usr/bin/env bash
# One PR's wall-clock readings as a committed file: BENCH_<pr>.json.
#
# Runs benchmark/run.sh once untraced and once traced per workload of
# BENCHMARK.json and folds the two benchmark/out/result.json files of
# each workload into one object: from the untraced run the five
# end-to-end metrics (median, quartiles, sample count) and
# failed/attempted; from the traced run every per-layer value. The
# samples themselves stay in benchmark/out/ (git-ignored). About 40 s a run,
# eight runs. One run per cell is a reading, not a comparison: judge a
# change by alternating pairs (scripts/bench_spread.sh), and read a diff of
# two BENCH files against the spread recorded in EXPERIMENTS.
#
#   scripts/bench_snapshot.sh <pr>
#
# Writes BENCH_<pr>.json at the repository root. The sha inside is the
# commit measured (with "dirty": true if the tree had uncommitted changes),
# not the commit the file lands in. Run it on an otherwise idle machine.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
[ $# -eq 1 ] || { echo "usage: bench_snapshot.sh <pr>" >&2; exit 2; }
pr="$1"
# Fixed, so that any two BENCH files are the same measurement:
# BENCHMARK.json's run_seconds and the seed of run.sh's own example.
seconds=30
seed=7
out="$root/BENCH_$pr.json"
result="$root/benchmark/out/result.json"
e2e='goodput_MBps|msg_rate_kps|rtt_p50_us|rtt_p90_us|setup_s'
workloads="$(sed -n '/"workloads"/,/\]/s/.*"name": "\([a-z_]*\)".*/\1/p' "$root/BENCHMARK.json")"

# field <name>: a scalar of the run object's first line in result.json.
field() { sed -n "s/^{\"workload\".*\"$1\": \([a-z0-9.]*\).*/\1/p" "$result"; }
# metrics <name regex> <keep|drop>: the run's metric lines whose name does
# (keep) or does not (drop) match, without their samples, comma-joined.
metrics() {
    grep '^    {"name": ' "$result" |
        { if [ "$2" = keep ]; then grep -E "\"name\": \"($1)\""; else grep -vE "\"name\": \"($1)\""; fi; } |
        sed -e 's/, "samples": \[.*\]}/}/' -e 's/,$//' -e 's/^ */      /' | sed '$!s/$/,/'
}
dirty=false
[ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || dirty=true
{
    printf '{"schema_version": 1, "pr": %s, "seconds": %s, "seed": %s, "dirty": %s,\n' "$pr" "$seconds" "$seed" "$dirty"
    first=1
    for w in $workloads; do
        echo "bench_snapshot: $w untraced" >&2
        "$root/benchmark/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null 2>&1
        if [ "$first" = 1 ]; then
            # sha and machine as the benchmark itself recorded them.
            sed -n '1s/^{"schema_version": [0-9]*, \(.*\),$/ \1,\n "workloads": [/p' "$result"
            first=0
        else
            echo ','
        fi
        printf '  {"workload": "%s",\n   "untraced": {"correct": %s, "attempted": %s, "failed": %s, "end_to_end": [\n' \
            "$w" "$(field correct)" "$(field attempted)" "$(field failed)"
        metrics "$e2e" keep
        echo "bench_snapshot: $w traced" >&2
        "$root/benchmark/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >/dev/null 2>&1
        printf '   ]},\n   "traced": {"correct": %s, "attempted": %s, "failed": %s, "per_layer": [\n' \
            "$(field correct)" "$(field attempted)" "$(field failed)"
        metrics "$e2e" drop
        printf '   ]}}'
    done
    printf '\n ]}\n'
} >"$out.tmp"
mv "$out.tmp" "$out"
echo "bench_snapshot: wrote $out" >&2
