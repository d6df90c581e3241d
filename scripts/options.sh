#!/usr/bin/env bash
# The option count: `pub` fields of the config structs, `--flag`s of
# mad_bench::cli, GTM packet kinds and trace_check's `--require-*` flags,
# against the numbers committed below. Fails when a count differs from its
# number either way, so the next option arrives with a line in this diff
# and a deletion that forgets to lower its number is caught.
#
# Then the audit: an option is a value somebody sets. Each counted field
# must be set (`field: …`) in at least one .rs file outside the crate that
# defines it — tests, benches, examples, the frozen benchmark/ — or the
# diff that added it is the one that fails.
set -euo pipefail
cd "$(dirname "$0")/.."
fields() { # <file> <struct>: the names of its `pub` fields
  awk -v s="pub struct $2 {" 'index($0, s) { if (/}/) exit; on = 1; next } on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { sub(/:.*/, "", $2); print $2 }' "$1"
}
m=crates/madeleine/src
flags=$(sed '/#\[cfg(test)\]/,$d' crates/bench/src/cli.rs | grep -o '"--[a-z-]*"' | sort -u | wc -l)
kinds=$(grep -c 'const KIND_' $m/gtm.rs)
requires=$(grep -o '"--require-[a-z-]*"' crates/bench/src/bin/trace_check.rs | sort -u | wc -l)
gateway=$(fields $m/gateway.rs GatewayConfig)
metrics=$(fields $m/metrics_plane.rs MetricsOptions)
vc=$(fields $m/session.rs VcOptions)
status=0
while read -r name count committed; do
  printf '%-17s %2s (committed: %s)\n' "$name" "$count" "$committed"
  if [ "$count" -ne "$committed" ]; then
    echo "options.sh: $name is $count, committed $committed; change its number here, in the diff that adds or deletes the option" >&2
    status=1
  fi
done <<EOF2
GatewayConfig $(echo $gateway | wc -w) 7
MetricsOptions $(echo $metrics | wc -w) 0
VcOptions $(echo $vc | wc -w) 5
cli-flags $flags 1
gtm-kinds $kinds 10
require-flags $requires 3
EOF2
for field in $gateway $metrics $vc; do
  setters=$(grep -rlE --include='*.rs' "(^|[^A-Za-z0-9_])$field:([^:]|\$)" \
    crates tests examples benchmark/src | grep -vc "^$m/" || true)
  printf '%-17s set in %2s files outside %s\n' "$field" "$setters" "$m"
  if [ "$setters" -eq 0 ]; then
    echo "options.sh: nobody sets \`$field\`; make it a const beside its reader" >&2
    status=1
  fi
done
exit $status
