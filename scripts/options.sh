#!/usr/bin/env bash
# The option count: `pub` fields of the config structs, `--flag`s of
# mad_bench::cli, GTM packet kinds, trace_check's `--require` flags and
# the cargo features of every manifest, against the numbers committed
# below. Fails when a count differs from its number either way, so the
# next option arrives with a line in this diff and a deletion that
# forgets to lower its number is caught.
#
# Then the audit: an option is a value somebody sets. Each counted field
# must be set (`field: …`) in at least one .rs file outside the crate that
# defines it — tests, benches, examples, the frozen benchmark/ — or the
# diff that added it is the one that fails. A cargo feature is a
# compile-time option: its name must follow `--features` in some script
# under scripts/, or nothing builds the code it gates.
#
# Last, the public surface is what somebody calls: each `pub fn`,
# `pub const` and `pub static` in crates/*/src must be named, as a word,
# in some other .rs file under crates/, tests/, examples/, src/ or
# benchmark/src. Items in #[cfg(test)] code (a `mod tests` block, a
# test-only module file, a single gated item) are skipped. The match is
# by bare name, so a name that some other file uses for something else
# (`new`, `len`, `live`) passes: the check is lenient by construction.
# Types are left out; they appear in signatures.
set -euo pipefail
cd "$(dirname "$0")/.."
fields() { # <file> <struct>: the names of its `pub` fields
  awk -v s="pub struct $2 {" 'index($0, s) { if (/}/) exit; on = 1; next } on && /^}/ { exit }
    on && /^    pub [a-z_]+:/ { sub(/:.*/, "", $2); print $2 }' "$1"
}
m=crates/madeleine/src
flags=$(sed '/#\[cfg(test)\]/,$d' crates/bench/src/cli.rs | grep -o '"--[a-z-]*"' | sort -u | wc -l)
kinds=$(grep -c 'const KIND_' $m/gtm.rs)
requires=$(grep -o '"--require[a-z-]*"' crates/bench/src/bin/trace_check.rs | sort -u | wc -l)
gateway=$(fields $m/gateway.rs GatewayConfig)
metrics=$(fields $m/metrics_plane.rs MetricsOptions)
vc=$(fields $m/session.rs VcOptions)
# The entry names of every `[features]` table.
features=$(awk 'FNR == 1 { on = 0 } /^\[/ { on = ($0 == "[features]"); next }
  on && /^[A-Za-z0-9_-]+[[:space:]]*=/ { sub(/[[:space:]]*=.*/, ""); print }' \
  Cargo.toml crates/*/Cargo.toml)
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
VcOptions $(echo $vc | wc -w) 4
cli-flags $flags 1
gtm-kinds $kinds 10
require-flags $requires 1
cargo-features $(echo $features | wc -w) 1
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
for feature in $features; do
  users=$(grep -rlE -- "--features[ =]([A-Za-z0-9_-]+/)?$feature([^A-Za-z0-9_-]|\$)" scripts |
    wc -l || true)
  printf '%-17s on in %2s scripts\n' "$feature" "$users"
  if [ "$users" -eq 0 ]; then
    echo "options.sh: no script builds with feature \`$feature\`; delete it" >&2
    status=1
  fi
done
# The files a `#[cfg(test)] mod name;` declaration compiles for tests only.
testonly=$(grep -rA1 --include='*.rs' '^#\[cfg(test)\]' crates/*/src |
  sed -n 's|^\(.*\)/[a-z_]*\.rs-\(pub(crate) \)\{0,1\}mod \([a-z_]*\);$|\1/\3.rs|p')
# `<file> <name>` of every public fn, const and static outside test code.
items=$(find crates/*/src -name '*.rs' | sort | grep -vxF "$testonly" | while read -r f; do
  awk -v f="$f" '
    /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1; next }
    t && /^[[:space:]]*#\[/ { next }
    t && /^[[:space:]]*(pub(\(crate\))? )?mod [a-z_]+ \{/ { exit }
    t { t = 0; next }
    match($0, /^[[:space:]]*pub (const |static |(const |unsafe )?fn )[A-Za-z_][A-Za-z0-9_]*/) {
      n = split(substr($0, RSTART, RLENGTH), w, " "); print f, w[n]
    }' "$f"
done)
# `<file> <word>` once per word per file; a name in two files is used.
words=$(find crates tests examples src benchmark/src -name '*.rs' | sort | while read -r f; do
  grep -ow '[A-Za-z_][A-Za-z0-9_]*' "$f" | sort -u | sed "s|^|$f |"
done)
unused=$(awk 'NR == FNR { files[$2]++; next } files[$2] < 2 { print $1 ": " $2 }' \
  <(echo "$words") <(echo "$items"))
printf '%-17s %2s items, %s named only where defined\n' "pub-surface" \
  "$(echo "$items" | wc -l)" "$(echo -n "$unused" | grep -c . || true)"
if [ -n "$unused" ]; then
  while read -r item; do
    echo "options.sh: $item is named nowhere else; delete it or drop \`pub\`" >&2
  done <<<"$unused"
  status=1
fi
exit $status
