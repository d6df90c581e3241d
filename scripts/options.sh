#!/usr/bin/env bash
# The option count: `pub` fields of the config structs and `--flag`s of
# mad_bench::cli, against the numbers committed below. Fails when a count
# exceeds its number, so the next option arrives with a line in this diff.
set -euo pipefail
cd "$(dirname "$0")/.."
fields() { # <file> <struct>: its `pub` fields
  awk -v s="pub struct $2 {" 'index($0, s) { on = 1; next } on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { n++ } END { print n + 0 }' "$1"
}
m=crates/madeleine/src
flags=$(sed '/#\[cfg(test)\]/,$d' crates/bench/src/cli.rs | grep -o '"--[a-z-]*"' | sort -u | wc -l)
status=0
while read -r name count max; do
  printf '%-17s %2s (committed: %s)\n' "$name" "$count" "$max"
  if [ "$count" -gt "$max" ]; then
    echo "options.sh: $name grew to $count; raise its number here, in the diff that adds the option" >&2
    status=1
  fi
done <<EOF2
GatewayConfig $(fields $m/gateway.rs GatewayConfig) 10
ControllerConfig $(fields $m/control.rs ControllerConfig) 10
WatchdogConfig $(fields $m/metrics_plane.rs WatchdogConfig) 4
MetricsOptions $(fields $m/metrics_plane.rs MetricsOptions) 3
VcOptions $(fields $m/session.rs VcOptions) 6
cli-flags $flags 2
EOF2
exit $status
