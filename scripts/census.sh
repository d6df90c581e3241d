#!/usr/bin/env bash
# Sum a thread-role census by role.
#
# A build with the `census` feature of `madeleine` appends one JSON line per
# thread the real-threads runtime spawned, at the thread's exit, to the file
# named by MAD_CENSUS (crates/madeleine/src/census.rs). This prints one row
# per role: threads, voluntary and involuntary switches, their sum, and CPU
# ms; with `--per N`, every column but the thread count is divided by N (the
# messages of the run) and CPU is in µs.
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml \
#       --features madeleine/census
#   MAD_CENSUS=/tmp/census.jsonl target/release/mad-benchmark \
#       --out /tmp/out --workload fwd_bulk --seconds 10 --trace 0
#   scripts/census.sh [--per N] /tmp/census.jsonl
set -euo pipefail
per=""
if [ "${1:-}" = --per ]; then
    per="$2"
    shift 2
fi
[ $# -ge 1 ] || { echo "usage: census.sh [--per N] census.jsonl..." >&2; exit 2; }

rows="$(sed -n 's/.*"role":"\([^"]*\)".*"vcsw":\([0-9]*\),"ivcsw":\([0-9]*\),"cpu_ns":\([0-9]*\).*/\1 \2 \3 \4/p' "$@" |
    awk -v per="$per" '
        function row(role, n, v, iv, cpu) {
            if (per != "") {
                printf "%-28s %7d %10.3f %10.3f %10.3f %10.2f\n", role, n, v / per, iv / per, (v + iv) / per, cpu / per / 1e3
            } else {
                printf "%-28s %7d %10d %10d %10d %10.1f\n", role, n, v, iv, v + iv, cpu / 1e6
            }
        }
        { n[$1]++; v[$1] += $2; iv[$1] += $3; cpu[$1] += $4
          N++; V += $2; IV += $3; CPU += $4 }
        END {
            for (r in n) row(r, n[r], v[r], iv[r], cpu[r])
            row("(total)", N, V, IV, CPU)
        }')"
printf "%-28s %7s %10s %10s %10s %10s\n" role threads vcsw ivcsw sum "$([ -n "$per" ] && echo cpu_us || echo cpu_ms)"
grep -v '^(total) ' <<<"$rows" | sort || true
grep '^(total) ' <<<"$rows"
