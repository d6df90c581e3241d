#!/usr/bin/env bash
# The option count: `pub` fields of the config structs, `--flag`s of
# mad_bench::cli, GTM packet kinds and trace_check's `--require-*` flags,
# against the numbers committed below. Fails when a count differs from its
# number either way, so the next option arrives with a line in this diff
# and a deletion that forgets to lower its number is caught.
set -euo pipefail
cd "$(dirname "$0")/.."
fields() { # <file> <struct>: its `pub` fields
  awk -v s="pub struct $2 {" 'index($0, s) { on = 1; next } on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' "$1"
}
m=crates/madeleine/src
flags=$(sed '/#\[cfg(test)\]/,$d' crates/bench/src/cli.rs | grep -o '"--[a-z-]*"' | sort -u | wc -l)
kinds=$(grep -c 'const KIND_' $m/gtm.rs)
requires=$(grep -o '"--require-[a-z-]*"' crates/bench/src/bin/trace_check.rs | sort -u | wc -l)
status=0
while read -r name count committed; do
  printf '%-17s %2s (committed: %s)\n' "$name" "$count" "$committed"
  if [ "$count" -ne "$committed" ]; then
    echo "options.sh: $name is $count, committed $committed; change its number here, in the diff that adds or deletes the option" >&2
    status=1
  fi
done <<EOF2
GatewayConfig $(fields $m/gateway.rs GatewayConfig) 9
WatchdogConfig $(fields $m/metrics_plane.rs WatchdogConfig) 4
MetricsOptions $(fields $m/metrics_plane.rs MetricsOptions) 3
VcOptions $(fields $m/session.rs VcOptions) 5
MultipathConfig $(fields $m/multipath.rs MultipathConfig) 3
MembershipOptions $(fields $m/membership.rs MembershipOptions) 1
cli-flags $flags 1
gtm-kinds $kinds 11
require-flags $requires 3
EOF2
exit $status
