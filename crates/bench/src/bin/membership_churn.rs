//! A11 — dynamic membership under traffic: a seeded churn soak where a
//! gateway cycles leave → rejoin while bulk streams keep flowing under a
//! credit window of 8.
//!
//! The schedule asserts the robustness contract end to end: zero lost
//! acknowledged streams, every episode retires *and* readmits the path
//! (the rejoin handshake re-plans before its final ack, so `rejoin`
//! returning inside its timeout IS the bounded-re-plan bound), and zero
//! stale-incarnation drops — graceful churn is epoch-monotone, so any
//! stale drop would mean the epoch filter misfired.
//!
//! `--smoke` shrinks the schedule for CI; `--trace <path>` re-runs one
//! seeded schedule with the unified event trace (the `member:` and
//! `health:` tracks alongside `route:`/`gw:`) exported.

use mad_bench::cli;
use mad_bench::experiments::{membership_churn_soak, membership_churn_soak_traced};
use mad_bench::report::{fmt_bytes, Table};

/// One xorshift64 step — spreads the root seed over per-row schedules.
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

fn main() {
    let smoke = cli::flag("--smoke");
    let seed: u64 = std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20010914);

    let (grid, len): (&[u32], usize) = if smoke {
        (&[2, 3], 64 * 1024)
    } else {
        (&[2, 4, 8], 256 * 1024)
    };
    let msgs_per_round: u32 = if smoke { 4 } else { 6 };

    let mut table = Table::new(
        format!(
            "A11 membership churn soak (seed {seed}) — {msgs_per_round} x {} per round, gateway 1 cycles leave -> rejoin",
            fmt_bytes(len)
        ),
        &[
            "episodes",
            "delivered",
            "readmissions",
            "retirements",
            "stale drops",
            "final epoch",
            "virtual ms",
        ],
    );
    let mut s = seed;
    for &rounds in grid {
        s = xorshift(s);
        let run = membership_churn_soak(rounds, msgs_per_round, len, s);
        assert_eq!(
            run.delivered,
            rounds * msgs_per_round,
            "churn soak lost streams"
        );
        assert!(
            run.readmissions >= rounds as u64,
            "every churn episode must readmit the path: {run:?}"
        );
        assert_eq!(run.stale_drops, 0, "graceful churn produced stale drops");
        assert_eq!(
            run.final_epoch,
            rounds as u64 + 1,
            "each rejoin must bump the incarnation epoch by one"
        );
        table.row(vec![
            rounds.to_string(),
            format!("{}/{}", run.delivered, rounds * msgs_per_round),
            run.readmissions.to_string(),
            run.deaths.to_string(),
            run.stale_drops.to_string(),
            run.final_epoch.to_string(),
            format!("{:.1}", run.seconds * 1e3),
        ]);
    }
    table.print();
    if !smoke {
        table.write_csv("a11_membership_churn");
    }
    println!("all schedules delivered every acknowledged stream with zero stale drops");

    if let Some(path) = cli::trace_path() {
        let (_, snap) =
            membership_churn_soak_traced(2, msgs_per_round.min(4), len.min(64 * 1024), seed);
        cli::export_trace(&snap, &path);
    }
}
