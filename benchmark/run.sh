#!/usr/bin/env bash
# Build mad-benchmark and run it: one workload in one mode
#   benchmark/run.sh --workload fwd_small --seed 7 --seconds 30 --trace 0
# or, with no --workload, every workload in both modes. The last line of
# standard output is the result object; everything cargo says goes to stderr.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# CARGO_TARGET_DIR (default: the repository's target/) may be relative to
# the caller's directory; cargo and the binary path below need it absolute.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# MAD_ENGINE would flip the library's default engine: the benchmark
# measures the default.
env -u MAD_ENGINE CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec env -u MAD_ENGINE "$target/release/mad-benchmark" --out "$here/out" --sha "$sha" "$@"
