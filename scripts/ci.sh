#!/usr/bin/env bash
# Tier-1 verification gate, runnable with zero network access.
#
# The workspace has no crates.io dependencies (see crates/mad-util), so
# `--offline` is not a restriction but a statement of fact: if resolution
# ever needs the network, that is a regression and must fail loudly here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

# Every user-settable option is counted; a count that differs from the
# number committed in the script fails, so a new option — and a deleted
# one — shows in the diff. Each counted field must also be set by some
# file outside the library, or it is not an option.
echo
echo "== option count (scripts/options.sh)"
./scripts/options.sh

# Every package of the workspace: the root package's tests/*.rs and each
# crate's unit tests (the gateway Rig, FIFO and in-place tests among
# them) — a bare `cargo test` at the root runs the root package only.
# `--no-fail-fast` runs every test binary even after one fails, so one
# red suite does not hide the rest; any failure still fails the gate.
echo
echo "== cargo test -q --offline --workspace --no-fail-fast"
cargo test -q --offline --workspace --no-fail-fast

# Every blocking wait on real threads is one mad_util::sync::Epoch, and
# its bump takes the lock and notifies only when the SLEEPING bit of its
# state word is set, clearing it to claim every sleeper. A lost wake-up
# shows as a timeout in the ping-pong (two threads, two events) or the
# storm (4 bumpers x 4 waiters, half on timed waits), a stale count or bit
# as a non-zero count or a set bit, but not in every run; the claim tests
# pin one notify per set of sleepers. A waiter yields once before it
# sleeps: two threads pinned to one CPU that hand a turn back and forth
# must sleep far fewer times than they hand off. All `epoch_` tests, 50
# times, optimised, a few seconds.
echo
echo "== epoch tests x50 (mad-util, release)"
for i in $(seq 1 50); do
  out="$(cargo test -q --offline --release -p mad-util --lib epoch_ 2>&1)" ||
    { echo "$out"; echo "epoch tests: run $i of 50 failed" >&2; exit 1; }
done

# Readiness is read, not locked: a queue stores its length and producer
# count under its lock, before the bump that announces them, and a
# receive scan loads them with no lock. A length stored after the bump,
# or a scan that reads it before the epoch, is a lost wake-up: a reader
# asleep with an item queued, which fails the ping-pong (one item at a
# time, nothing later to rescue it) and the three-queue scan at their
# 5 s deadline. A closed read that loads the length before the producer
# count calls a queue with an item in it closed. The run operations
# count too: a run pushed with one bump and taken with one pop must wake
# a lock-free reader before its deadline (a length stored after that bump
# strands it), arrive whole and in order (a split or reordered run fails
# the echo's equality), and a queue emptied by `try_pop_all` must read
# closed only after its last producer left. All `readiness_` tests, 50
# times, optimised, a few seconds.
echo
echo "== readiness tests x50 (madeleine, release)"
for i in $(seq 1 50); do
  out="$(cargo test -q --offline --release -p madeleine --lib readiness_ 2>&1)" ||
    { echo "$out"; echo "readiness tests: run $i of 50 failed" >&2; exit 1; }
done

# The thread-role census, a feature off by default: built with it, every
# thread the real-threads runtime spawns appends its role, switches and
# CPU time to the file named by MAD_CENSUS at its exit. The test runs a
# child process with the variable set and reads the line back.
echo
echo "== census feature (madeleine --features census, release)"
cargo test -q --offline --release -p madeleine --features census --lib census

# The TCP receive path. No thread of mad-tcp reads a socket: whoever
# sleeps on a conduit's arrival event polls it and reads it, and a send
# that would block reads its own socket while it waits. A lost wake-up or
# a missed drain shows as a hang, and not in every run: mad-tcp's unit
# tests (a frame resumed a byte at a time, a closed peer's socket polled
# no more) and the TCP session suite (two endpoints that each send 16 MiB
# before receiving), 20 times each, optimised.
echo
echo "== TCP receive path x20 (mad-tcp lib + session_tcp, release)"
for i in $(seq 1 20); do
  out="$(cargo test -q --offline --release -p mad-tcp --lib 2>&1 &&
    cargo test -q --offline --release --test session_tcp 2>&1)" ||
    { echo "$out"; echo "TCP receive path: run $i of 20 failed" >&2; exit 1; }
done

# Credit and cancel settlement. A credit that no fragment is told to
# return is a hang until a deadline, and a cancel that never goes upstream
# leaves the sender waiting — neither shows in every run: the half-window
# grant rigs (windows 1 to 8, a writer that sends only what its account
# covers), the dead-peer rigs (a train and a lone fragment that fail on
# the way out, each on the polling thread in place and through the
# pipeline) and the whole-frame rigs (a frame that is one whole stream
# crossing as it landed, and every frame that falls back to the
# per-packet rules), 50 times, optimised, a few seconds. With them the
# `burst_` rigs, a backlog one polling turn takes and hands on as one
# run: a reordering shows as a message out of wire order at the far end,
# a run left unsent at the turn's end or a lost wake-up as a hang up to a
# deadline, a stop that overtakes the run as an engine gone with its
# messages in hand, and a failed run that cancels a stream twice or drops
# a packet unaccounted as a second cancel or bytes left held.
echo
echo "== credit and cancel settlement x50 (madeleine, release)"
for i in $(seq 1 50); do
  out="$(cargo test -q --offline --release -p madeleine --lib -- \
    half_window_grants dead_peer_ whole_frame_ burst_ 2>&1)" ||
    { echo "$out"; echo "settlement loop: run $i of 50 failed" >&2; exit 1; }
done

# The randomized soaks, pinned to a fixed seed so CI failures reproduce
# byte-for-byte (developers can explore other schedules by exporting
# their own MAD_SOAK_SEED). This includes the fault-injection soak:
# seeded jitter/stall on a live link plus a silently dead host, which
# must surface as typed errors — zero hangs, zero panics.
echo
echo "== soak + fault-injection tests (MAD_SOAK_SEED=20010914)"
MAD_SOAK_SEED=20010914 cargo test -q --offline --release --test soak

# The frozen benchmark package compiles against this tree's library: a
# signature it uses must not change under it. Build only — running it is
# the benchmark pipeline's job.
echo
echo "== benchmark/ builds against the tree"
CARGO_TARGET_DIR="$PWD/target" cargo build --release --offline --quiet \
  --manifest-path benchmark/Cargo.toml

# The dynamic-membership suite: the lifecycle episode and the seeded churn
# soak (join/leave/rejoin under bulk traffic — zero hangs, zero lost
# acknowledged streams, zero stale-incarnation drops, gateway occupancy
# inside the credit window's bound).
echo
echo "== membership suite (MAD_SOAK_SEED=20010914)"
MAD_SOAK_SEED=20010914 cargo test -q --offline --release --test membership

# Modeled-time drift gate: regenerate the CSVs that are a pure function
# of the source and require them to match results/ byte for byte (the
# load-sensitive ones are listed, not gated, in the script's header).
echo
echo "== results drift (stable modeled-time CSVs vs results/)"
./scripts/results_drift.sh

# One traced run on each backend (sim, fault-injected sim with a credit
# window, shm), then validate the exported JSONL against the schema
# checker: every line must parse, carry the required keys, and keep
# per-thread timestamps monotone — under fault injection too.
echo
echo "== traced runs (incl. fault-injected) + JSONL schema validation"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
cargo run -q --release --offline --example trace_dump -- "$trace_dir/ci"

# A7 smoke: a reduced fragment-size sweep of writer-staged trains through
# the gateway (including A7b's occupancy-bound assertion) with a traced
# run. Smoke mode skips the CSVs so it never clobbers the committed
# full-grid results.
echo
echo "== ablation_batching --smoke (trains through the gateway)"
cargo run -q --release --offline -p mad-bench --bin ablation_batching -- \
  --smoke --trace "$trace_dir/a7.jsonl"

# A8 smoke: multi-path gateway scaling (with its >=1.6x two-path
# aggregate-bandwidth assertion) plus the seeded gateway-death soak, with
# a traced 2-gateway run — the one trace that must carry the `route:`
# track, which trace_check enforces via --require route:.
echo
echo "== multipath_scaling --smoke (multi-path gateway fabrics)"
cargo run -q --release --offline -p mad-bench --bin multipath_scaling -- \
  --smoke --trace "$trace_dir/a8.jsonl"

# mad_top: a metrics-enabled run whose mid-run in-band kind-10 pull must
# reach all 5 nodes (asserted by the binary) and whose exported trace
# must carry the metrics: track — enforced via trace_check
# --require metrics: below.
echo
echo "== mad_top --once, traced (in-band metrics pull)"
cargo run -q --release --offline -p mad-bench --bin mad_top -- \
  --once --trace "$trace_dir/madtop.jsonl"

# A11 smoke: the seeded membership-churn soak with its in-binary
# delivery/readmission/stale-drop assertions, traced — the export must
# carry the member: track, enforced via trace_check --require member:
# below.
echo
echo "== membership_churn --smoke, traced (A11 dynamic membership)"
MAD_SOAK_SEED=20010914 cargo run -q --release --offline -p mad-bench --bin membership_churn -- \
  --smoke --trace "$trace_dir/a11.jsonl"

# A12 smoke: the paced mixed-size run with zero-copy off and its
# copy-placement assertion (no more than three staging copies a round on
# a busy stage), traced — the export goes through the plain trace_check
# below.
echo
echo "== a12_copy_placement --smoke, traced (A12 copy placement)"
cargo run -q --release --offline -p mad-bench --bin a12_copy_placement -- \
  --smoke --trace "$trace_dir/a12.jsonl"

cargo run -q --release --offline -p mad-bench --bin trace_check -- \
  "$trace_dir/ci.sim.jsonl" "$trace_dir/ci.fault.jsonl" "$trace_dir/ci.shm.jsonl" \
  "$trace_dir/a7.jsonl" "$trace_dir/a12.jsonl"
# trace_dump's shm run crosses gateway rank 2 on a real transport: its
# channel and gateway tracks are the teardown flush the sim runs cannot
# stand in for.
cargo run -q --release --offline -p mad-bench --bin trace_check -- \
  --require ch: --require gw: "$trace_dir/ci.shm.jsonl"
cargo run -q --release --offline -p mad-bench --bin trace_check -- \
  --require route: "$trace_dir/a8.jsonl"
cargo run -q --release --offline -p mad-bench --bin trace_check -- \
  --require metrics: "$trace_dir/madtop.jsonl"
cargo run -q --release --offline -p mad-bench --bin trace_check -- \
  --require member: "$trace_dir/a11.jsonl"

# Lints gate only when clippy is actually installed (sealed containers
# may ship a toolchain without the component).
if cargo clippy --version >/dev/null 2>&1; then
  echo
  echo "== cargo clippy -q --workspace --all-targets"
  cargo clippy -q --workspace --all-targets --offline -- -D warnings
else
  echo
  echo "== cargo clippy skipped (clippy not installed)"
fi

# Formatting is checked only when a rustfmt binary is actually present:
# minimal toolchains in sealed containers may lack the component.
if cargo fmt --version >/dev/null 2>&1; then
  echo
  echo "== cargo fmt --check"
  cargo fmt --check
else
  echo
  echo "== cargo fmt --check skipped (rustfmt not installed)"
fi

echo
echo "ci: all gates passed"
