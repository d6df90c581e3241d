//! Ablation A7: what travels together through the gateway.
//!
//! Small forwarded fragments pay one per-send software overhead each on
//! the outbound wire, plus the gateway's per-fragment buffer switch
//! (§3.3.1). The GTM writer therefore stages a stream's small packets
//! into one batched wire frame, and the gateway has exactly one batching
//! rule: packets that arrived as one frame and leave on one conduit go
//! out as one frame, bounded by the outgoing driver's frame budget.
//! Fragment granularity — and with it the pipelining the paper's §2.3
//! design is built on — is preserved end-to-end: the frame is split back
//! into fragments at the next hop.
//!
//! The sweep crosses fragment size with the modeled buffer-switch
//! overhead on the overhead-dominated SCI→FastEthernet route; there is no
//! batching knob to sweep (EXPERIMENTS A7). Bulk fragments at the route
//! MTU never fit a frame under the frame budget and ride the unchanged
//! zero-copy path.
//!
//! Part two re-checks the A4c invariant under trains: the credit window
//! still bounds peak gateway occupancy (credits are taken per fragment
//! *before* it may join a train, so a train cannot overdraw the window).

use mad_bench::cli;
use mad_bench::experiments::{forwarded_oneway_stats, forwarded_oneway_traced, GwSetup};
use mad_bench::report::{fmt_bytes, Table};
use mad_sim::SimTech;

fn main() {
    let smoke = cli::flag("--smoke");
    // (fragment size, message size): smaller messages for tiny fragments
    // keep the event count — and the run time — flat across rows.
    let frags: &[(usize, usize)] = if smoke {
        &[(1024, 1 << 20)]
    } else {
        &[(256, 256 * 1024), (1024, 1 << 20), (32 * 1024, 16 << 20)]
    };
    let overheads_us: &[u64] = if smoke { &[40] } else { &[0, 40, 80] };

    let mut table = Table::new(
        "A7 — SCI→FastEthernet forwarded bandwidth (MB/s), writer-staged trains forwarded as trains",
        &["frag", "switch_us", "fwd_MB/s"],
    );
    for &(frag, total) in frags {
        for &overhead in overheads_us {
            let setup = GwSetup {
                mtu: frag,
                pipeline_depth: 32,
                switch_overhead_ns: overhead * 1000,
                ..Default::default()
            };
            let (m, _) = forwarded_oneway_stats(SimTech::Sci, SimTech::FastEthernet, total, setup);
            table.row(vec![
                fmt_bytes(frag),
                format!("{overhead}"),
                format!("{:.2}", m.mbps()),
            ]);
        }
    }
    table.print();
    if !smoke {
        table.write_csv("ablation_batching");
    }
    println!(
        "\nshape check: sub-KB fragments cross the wire as full trains and still\n\
         pay the per-fragment switch overhead (256B: 9.2 -> 2.9 MB/s at 80 us);\n\
         32KB fragments exceed the frame budget and keep the zero-copy path."
    );

    // Part two: the A4c occupancy bound must survive trains. Credits are
    // taken per fragment before it may join a train, so peak held bytes
    // stay under window × MTU.
    let mut bound_tbl = Table::new(
        "A7b — credit-window occupancy bound under trains (1KB fragments)",
        &["window_frags", "fwd_MB/s", "peak_held_KB", "bound_KB"],
    );
    let windows: &[u32] = if smoke { &[8] } else { &[8, 16] };
    for &window in windows {
        let setup = GwSetup {
            mtu: 1024,
            pipeline_depth: 64,
            credit_window: Some(window),
            ..Default::default()
        };
        let (m, totals) =
            forwarded_oneway_stats(SimTech::Sci, SimTech::FastEthernet, 1 << 20, setup);
        // A held fragment is payload plus the GTM prelude; same slack
        // formula as the tier-1 occupancy test.
        let bound = window as i64 * (1024 + 64) + 4096;
        assert!(
            totals.peak_held_bytes <= bound,
            "occupancy bound violated under trains: held {} > bound {}",
            totals.peak_held_bytes,
            bound
        );
        bound_tbl.row(vec![
            format!("{window}"),
            format!("{:.2}", m.mbps()),
            format!("{:.1}", totals.peak_held_bytes as f64 / 1024.0),
            format!("{}", bound / 1024),
        ]);
    }
    bound_tbl.print();
    if !smoke {
        bound_tbl.write_csv("ablation_batching_occupancy");
    }
    println!(
        "\nshape check: peak occupancy never exceeds window × MTU (asserted\n\
         above, not just eyeballed)."
    );

    if let Some(path) = cli::trace_path() {
        let (_, snap) = forwarded_oneway_traced(
            SimTech::Sci,
            SimTech::FastEthernet,
            1 << 20,
            GwSetup {
                mtu: 1024,
                pipeline_depth: 32,
                ..Default::default()
            },
        );
        cli::export_trace(&snap, &path);
    }
}
