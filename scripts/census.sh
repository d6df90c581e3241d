#!/usr/bin/env bash
# Sum a thread-role census by role.
#
# A build with the `census` feature of `madeleine` appends one JSON line per
# thread the real-threads runtime spawned, at the thread's exit, to the file
# named by MAD_CENSUS (crates/madeleine/src/census.rs). This prints one row
# per role: threads, voluntary and involuntary switches, their sum, CPU ms,
# the role's backlog takes (a gateway's polling turns, an endpoint's
# landings of a gateway's backlog): how many, the packets a take and the
# share of takes of one packet, and the credit-ledger accounts it opened.
# With `--per N`, the switches, CPU, takes and accounts are divided by N
# (the messages of the run) and CPU is in µs. With `--names`, the rows are
# thread names instead of roles, each summed over every session of the run:
# a gateway's polling threads toward two networks of different drivers
# (the chain's TCP and shm sides) keep one row each.
#
#   cargo build --release --offline --manifest-path benchmark/Cargo.toml \
#       --features madeleine/census
#   MAD_CENSUS=/tmp/census.jsonl target/release/mad-benchmark \
#       --out /tmp/out --workload fwd_bulk --seconds 10 --trace 0
#   scripts/census.sh [--names] [--per N] /tmp/census.jsonl
set -euo pipefail
per=""
key=role
while [ $# -gt 0 ]; do
    case "$1" in
        --per) per="$2"; shift 2 ;;
        --names) key=name; shift ;;
        *) break ;;
    esac
done
[ $# -ge 1 ] || { echo "usage: census.sh [--names] [--per N] census.jsonl..." >&2; exit 2; }

rows="$(awk -v per="$per" -v key="$key" '
        # The number after "k": on this line; 0 when the line has none
        # (a census written before the field was counted).
        function num(k) {
            if (!match($0, "\"" k "\":[0-9]+")) return 0
            return substr($0, RSTART + length(k) + 3, RLENGTH - length(k) - 3) + 0
        }
        function row(r, n, v, iv, cpu, tk, pk, one, op,   d) {
            d = per != "" ? per : 1
            printf "%-28s %7d", r, n
            if (per != "") {
                printf " %10.3f %10.3f %10.3f %10.2f %10.3f", v / d, iv / d, (v + iv) / d, cpu / d / 1e3, tk / d
            } else {
                printf " %10d %10d %10d %10.1f %10d", v, iv, v + iv, cpu / 1e6, tk
            }
            if (tk > 0) printf " %9.2f %6.1f", pk / tk, 100 * one / tk
            else printf " %9s %6s", "-", "-"
            if (per != "") printf " %8.3f\n", op / d
            else printf " %8d\n", op
        }
        match($0, "\"" key "\":\"[^\"]*\"") {
            r = substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 5)
            n[r]++; v[r] += num("vcsw"); iv[r] += num("ivcsw"); cpu[r] += num("cpu_ns")
            tk[r] += num("takes"); pk[r] += num("taken"); one[r] += num("ones")
            op[r] += num("opens")
        }
        END {
            for (x in n) {
                row(x, n[x], v[x], iv[x], cpu[x], tk[x], pk[x], one[x], op[x])
                N += n[x]; V += v[x]; IV += iv[x]; CPU += cpu[x]; TK += tk[x]; PK += pk[x]
                ONE += one[x]; OP += op[x]
            }
            row("(total)", N, V, IV, CPU, TK, PK, ONE, OP)
        }' "$@")"
printf "%-28s %7s %10s %10s %10s %10s %10s %9s %6s %8s\n" "$key" threads vcsw ivcsw sum \
    "$([ -n "$per" ] && echo cpu_us || echo cpu_ms)" takes pkt/take one% opens
grep -v '^(total) ' <<<"$rows" | sort || true
grep '^(total) ' <<<"$rows"
