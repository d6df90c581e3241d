//! A12: where the gateway puts the staging copies it cannot avoid.
//!
//! One paced run of a mixed-size round workload (4/64/16/96/8/128 KB,
//! 32 KB MTU, credit window 8) through one gateway with zero-copy handoff
//! *off*, so every relayed packet needs a staging copy the copy-placement
//! scheduler (DESIGN §9.2) must put on the receive or the flush stage.
//! The sender paces itself between messages (a compute/communicate
//! application, not a saturation loop): placement quality is only
//! observable when some stage has slack — at full saturation both stages
//! are busy by definition and any placement is as good as any other.
//!
//! The gate counts copies, not a ratio: the copies that cannot find an
//! idle stage are the third and fourth fragment of each bulk block —
//! taken on receive while the flush stage transmits the one before, both
//! stages busy — three per round, and the run may have no more than that
//! (EXPERIMENTS A12).
//!
//! `--smoke` runs 2 rounds instead of 4; `--trace <path>` exports the
//! run's trace.

use mad_bench::experiments::{mix_traced, GwSetup};
use mad_sim::SimTech;

const MTU: usize = 32 * 1024;
const WINDOW: u32 = 8;
/// Copies per round the workload's structure places on a busy stage.
const BUSY_PER_ROUND: u64 = 3;

fn main() {
    let smoke = mad_bench::cli::flag("--smoke");
    let pattern: &[usize] = &[
        4 * 1024,
        64 * 1024,
        16 * 1024,
        96 * 1024,
        8 * 1024,
        128 * 1024,
    ];
    let rounds: u32 = if smoke { 2 } else { 4 };
    let pace_ns = 5_000_000;
    println!("mixed workload: {rounds} rounds of {pattern:?} bytes, zero-copy off");
    let (mix, snap) = mix_traced(
        SimTech::Myrinet,
        SimTech::Myrinet,
        pattern,
        rounds,
        pace_ns,
        GwSetup {
            zero_copy: false,
            credit_window: Some(WINDOW),
            ..GwSetup::with_mtu(MTU)
        },
    );
    let t = &mix.totals;
    let placements = t.copies_recv + t.copies_flush;
    let busy = placements - t.copy_idle_hits;
    println!(
        "  {:.1} MB/s, {placements} copies ({} recv / {} flush), {} on an idle stage, {busy} on a busy one",
        mix.m.mbps(),
        t.copies_recv,
        t.copies_flush,
        t.copy_idle_hits,
    );
    assert!(placements > 0, "zero-copy off must force staging copies");
    let allowed = BUSY_PER_ROUND * rounds as u64;
    assert!(
        busy <= allowed,
        "copy-placement scheduler put {busy} copies on a busy stage ({allowed} allowed)",
    );

    if let Some(path) = mad_bench::cli::trace_path() {
        mad_bench::cli::export_trace(&snap, &path);
    }
    println!("\na12: copy-placement gate passed");
}
