//! A8 — multi-path gateway fabrics: aggregate inter-cluster bandwidth as
//! the parallel-gateway count goes 1 → 2 → 4, plus a seeded gateway-death
//! soak.
//!
//! **Aggregate fabric bandwidth** — several sender/receiver pairs offer
//! load concurrently and their per-stream-routed streams share the relay
//! fabric. The relays are the bottleneck, so this is where path count
//! pays: the single-gateway row is the E3 baseline fabric and the
//! acceptance bar (≥ 1.6× at 2 paths) is asserted here.
//!
//! `--smoke` shrinks the grids for CI; `--trace <path>` re-runs the
//! 2-gateway aggregate point with the unified event trace (the `route:`
//! and `gw:` tracks) exported.

use mad_bench::cli;
use mad_bench::experiments::{
    multipath_aggregate, multipath_aggregate_traced, multipath_death_soak,
};
use mad_bench::report::{fmt_bytes, Table};

/// One xorshift64 step — enough to spread the soak seed over a kill window.
fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

fn split_cell(split: &[(u32, u64)]) -> String {
    if split.is_empty() {
        "- (single path, legacy writer)".to_string()
    } else {
        split
            .iter()
            .map(|&(gw, b)| format!("gw{gw}:{}", fmt_bytes(b as usize)))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

fn main() {
    let smoke = cli::flag("--smoke");

    // 1. Aggregate fabric bandwidth: 4 concurrent pairs, adaptive
    //    per-stream routing over k shared gateways.
    const PAIRS: usize = 4;
    let (msgs, len) = if smoke {
        (4u32, 256 * 1024)
    } else {
        (8u32, 1 << 20)
    };
    let mut agg = Table::new(
        format!(
            "A8 aggregate inter-cluster bandwidth — {PAIRS} pairs x {msgs} x {}, per-stream adaptive routing",
            fmt_bytes(len)
        ),
        &["gateways", "MB/s", "speedup", "per-path payload split"],
    );
    let mut base = 0.0;
    let mut speedup_at_2 = 0.0;
    for k in [1usize, 2, 4] {
        let run = multipath_aggregate(k, PAIRS, msgs, len);
        let mbps = run.m.mbps();
        if k == 1 {
            base = mbps;
        }
        if k == 2 {
            speedup_at_2 = mbps / base;
        }
        agg.row(vec![
            k.to_string(),
            format!("{mbps:.1}"),
            format!("{:.2}x", mbps / base),
            split_cell(&run.split),
        ]);
    }
    agg.print();
    if !smoke {
        agg.write_csv("a8_multipath_scaling");
    }
    println!("2-path aggregate speedup over the single-gateway E3 baseline: {speedup_at_2:.2}x");
    assert!(
        speedup_at_2 >= 1.6,
        "2 parallel gateways must aggregate >= 1.6x the single-relay bandwidth, got {speedup_at_2:.2}x"
    );

    // 2. Seeded death soak: one of two gateways silently dies
    //    mid-schedule; every stream must still arrive intact, exactly
    //    once, with no hang.
    let seed: u64 = std::env::var("MAD_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20010914);
    let (soak_msgs, soak_len) = if smoke {
        (8u32, 128 * 1024)
    } else {
        (16u32, 512 * 1024)
    };
    let kill_at_ns = 10_000_000 + xorshift(seed) % 20_000_000; // 10–30 virtual ms
    let soak = multipath_death_soak(2, soak_msgs, soak_len, kill_at_ns);
    println!(
        "death soak (seed {seed}): gateway killed at {:.1} virtual ms — {}/{soak_msgs} streams of {} delivered, {} failed over, {} path(s) retired, schedule took {:.1} virtual ms",
        kill_at_ns as f64 / 1e6,
        soak.delivered,
        fmt_bytes(soak_len),
        soak.failovers,
        soak.deaths,
        soak.seconds * 1e3,
    );
    assert_eq!(soak.delivered, soak_msgs, "death soak lost streams");
    assert!(
        soak.deaths >= 1,
        "gateway died mid-schedule but the routing plane never retired it"
    );

    if let Some(path) = cli::trace_path() {
        let (_, snap) = multipath_aggregate_traced(2, PAIRS, msgs.min(4), len.min(256 * 1024));
        cli::export_trace(&snap, &path);
    }
}
