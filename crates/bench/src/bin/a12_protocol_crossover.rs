//! A12: the size-adaptive eager/rendezvous protocol switch.
//!
//! Three sweeps over the E3 forwarded route (Myrinet → SCI, the paper's
//! collapse direction, where the gateway CPU is the scarce resource),
//! all at the same MTU and credit window:
//!
//!   * `eager`      — threshold 0: every block pays per-fragment credit
//!                    round-trips (the pre-switch baseline).
//!   * `rendezvous` — threshold 1: every block announces itself with a
//!                    kind-12 RTS and waits for the whole-window CTS.
//!   * `switch`     — the production config: blocks under the threshold
//!                    stay eager, bulk blocks rendezvous.
//!
//! The crossover point — the smallest message where forced rendezvous
//! beats eager — is printed and written into the CSV; the switch column
//! must track the better protocol on both sides of it, and every bulk
//! (>= 1 MB) row must beat the eager baseline outright — 1 MB being the
//! smallest size where it does in every run: with credits returned by the
//! half window eager wins up to 256 KB and 512 KB is a tie (EXPERIMENTS
//! A12 has the rows).
//!
//! Two more legs gate the copy-placement scheduler and the pre-reserved
//! landings: a mixed eager+rendezvous round workload with zero-copy
//! handoff off (every relay fragment needs a staging copy) must place at
//! least 80% of those copies on a stage that was idle at placement time,
//! and must run its post-warm-up rounds with zero buffer-pool misses.
//!
//! `--smoke` shrinks the grid and skips the CSV; `--rendezvous-threshold
//! <bytes>` overrides the switch point; `--trace <path>` exports the
//! traced mixed run (its `proto:` track is what `trace_check
//! --require-proto` gates on).

use mad_bench::experiments::{forwarded_oneway_stats, protocol_mix_traced, GwSetup, MixOutcome};
use mad_bench::report::{fmt_bytes, Table};
use mad_sim::SimTech;

/// Fragment size shared by every leg ("at the same MTU").
const MTU: usize = 32 * 1024;
/// Per-stream credit window shared by every leg.
const WINDOW: u32 = 8;
/// Default switch point when `--rendezvous-threshold` is absent.
const DEFAULT_THRESHOLD: usize = 64 * 1024;
/// From this size up every row must beat eager, which also holds the
/// crossover at or under it.
const BULK: usize = 1 << 20;

fn setup(threshold: usize) -> GwSetup {
    GwSetup {
        credit_window: Some(WINDOW),
        rendezvous_threshold: threshold,
        ..GwSetup::with_mtu(MTU)
    }
}

fn bandwidth(total: usize, threshold: usize) -> (f64, u64) {
    let (m, totals) =
        forwarded_oneway_stats(SimTech::Myrinet, SimTech::Sci, total, setup(threshold));
    (m.mbps(), totals.cts_sent)
}

fn report_mix(label: &str, out: &MixOutcome) -> f64 {
    let t = &out.totals;
    let placements = t.copies_recv + t.copies_flush;
    let idle_ratio = if placements == 0 {
        1.0
    } else {
        t.copy_idle_hits as f64 / placements as f64
    };
    println!(
        "{label}: {:.1} MB/s, {} copies ({} recv / {} flush), {:.0}% idle-placed, \
         {} CTS, {} steady-state pool misses",
        out.m.mbps(),
        placements,
        t.copies_recv,
        t.copies_flush,
        idle_ratio * 100.0,
        t.cts_sent,
        out.steady_pool_misses,
    );
    idle_ratio
}

fn main() {
    let smoke = mad_bench::cli::flag("--smoke");
    let threshold = match mad_bench::cli::rendezvous_threshold() {
        0 => DEFAULT_THRESHOLD,
        t => t,
    };

    let sizes: &[usize] = if smoke {
        &[64 * 1024, 256 * 1024, 1 << 20]
    } else {
        &[
            32 * 1024,
            64 * 1024,
            128 * 1024,
            256 * 1024,
            512 * 1024,
            1 << 20,
            4 << 20,
            16 << 20,
        ]
    };

    let mut table = Table::new(
        format!(
            "A12 — protocol-switch crossover, Myrinet->SCI, {} MTU, window {WINDOW}, \
             switch at {}",
            fmt_bytes(MTU),
            fmt_bytes(threshold),
        ),
        &["message", "eager MB/s", "rendezvous MB/s", "switch MB/s"],
    );
    let mut crossover = None;
    for &msg in sizes {
        let (eager, eager_cts) = bandwidth(msg, 0);
        let (rdv, rdv_cts) = bandwidth(msg, 1);
        let (switch, _) = bandwidth(msg, threshold);
        assert_eq!(eager_cts, 0, "eager leg must never handshake");
        assert!(rdv_cts > 0, "forced-rendezvous leg never handshook");
        if crossover.is_none() && rdv > eager {
            crossover = Some(msg);
        }
        // The tentpole's bulk criterion: above the switch point the
        // handshake must pay for itself outright, per message size.
        if msg >= BULK {
            assert!(
                rdv > eager && switch > eager,
                "bulk {} must beat eager ({eager:.1} MB/s) under rendezvous \
                 ({rdv:.1}) and the switch ({switch:.1})",
                fmt_bytes(msg),
            );
        }
        table.row(vec![
            fmt_bytes(msg),
            format!("{eager:.1}"),
            format!("{rdv:.1}"),
            format!("{switch:.1}"),
        ]);
    }
    let crossover = crossover.expect("rendezvous never beat eager at any size");
    table.row(vec![
        "crossover".into(),
        "-".into(),
        "-".into(),
        fmt_bytes(crossover),
    ]);
    table.print();
    println!(
        "\ncrossover: rendezvous first beats eager at {} (switch set to {})",
        fmt_bytes(crossover),
        fmt_bytes(threshold),
    );
    if !smoke {
        table.write_csv("a12_protocol_crossover");
    }

    // Copy-placement + pre-reservation gate: zero-copy handoff off, so
    // every relay fragment needs a staging copy the scheduler must place.
    // The pattern straddles the threshold, keeping both protocols live on
    // the one gateway. The sender paces itself between messages (a
    // compute/communicate application, not a saturation loop): placement
    // quality is only observable when some stage has slack — at full
    // saturation both stages are busy by definition and any placement is
    // as good as any other.
    let pattern: &[usize] = &[
        4 * 1024,
        64 * 1024,
        16 * 1024,
        96 * 1024,
        8 * 1024,
        128 * 1024,
    ];
    let rounds = if smoke { 2 } else { 4 };
    let pace_ns = 5_000_000;
    let copy_setup = GwSetup {
        zero_copy: false,
        ..setup(threshold)
    };
    println!("\nmixed workload: {rounds} rounds of {pattern:?} bytes, zero-copy off");
    let (mix, snap) = protocol_mix_traced(
        SimTech::Myrinet,
        SimTech::Myrinet,
        pattern,
        rounds,
        pace_ns,
        copy_setup,
    );
    let idle_ratio = report_mix("  switch", &mix);
    let (eager_mix, _) = protocol_mix_traced(
        SimTech::Myrinet,
        SimTech::Myrinet,
        pattern,
        rounds,
        pace_ns,
        GwSetup {
            rendezvous_threshold: 0,
            ..copy_setup
        },
    );
    report_mix("  eager ", &eager_mix);

    let placements = mix.totals.copies_recv + mix.totals.copies_flush;
    assert!(placements > 0, "zero-copy off must force staging copies");
    assert!(
        idle_ratio >= 0.8,
        "copy-placement scheduler hit an idle stage only {:.0}% of the time",
        idle_ratio * 100.0,
    );
    assert!(mix.totals.cts_sent > 0, "mixed workload never handshook");
    assert_eq!(
        mix.steady_pool_misses, 0,
        "rendezvous pre-reservation must keep the steady-state pool miss-free"
    );

    if let Some(path) = mad_bench::cli::trace_path() {
        mad_bench::cli::export_trace(&snap, &path);
    }
    println!("\na12: all protocol-switch gates passed");
}
