//! Ablation A4: inbound flow control on the gateway (the paper's §4 future
//! work: "some sophisticated bandwidth control mechanism is needed to
//! regulate the incoming communication flow on gateways").
//!
//! Part one throttles the inbound (Myrinet) device rate and shows that
//! naive rate capping *cannot* help under burst-priority arbitration: a
//! slower DMA burst occupies the bus longer, starving the SCI PIO sends
//! even more. Part two models the workaround the paper actually proposes
//! in §3.4.1 — driving SCI sends with the NIC's DMA engine — which removes
//! the arbitration asymmetry and recovers the lost bandwidth.

use mad_bench::experiments::{
    forwarded_oneway, forwarded_oneway_stats, sci_with_dma_engine, GwSetup,
};
use mad_bench::report::Table;
use mad_sim::SimTech;

fn main() {
    let mut table = Table::new(
        "A4 — Myrinet→SCI bandwidth (MB/s) vs inbound rate cap, 16 MB messages, 32 KB packets",
        &["inbound_cap_MB/s", "fwd_MB/s"],
    );
    let caps: [Option<f64>; 7] = [
        None,
        Some(60.0e6),
        Some(50.0e6),
        Some(40.0e6),
        Some(30.0e6),
        Some(20.0e6),
        Some(10.0e6),
    ];
    let mut best = (String::new(), 0.0f64);
    for cap in caps {
        let setup = GwSetup {
            mtu: 32 * 1024,
            inbound_rate_cap: cap,
            ..Default::default()
        };
        let bw = forwarded_oneway(SimTech::Myrinet, SimTech::Sci, 16 << 20, setup).mbps();
        let label = cap.map_or("none (70)".to_string(), |c| format!("{:.0}", c / 1e6));
        if bw > best.1 {
            best = (label.clone(), bw);
        }
        table.row(vec![label, format!("{bw:.1}")]);
    }
    table.print();
    table.write_csv("ablation_flow_control");
    println!(
        "\nnegative result, faithfully reproduced: naive rate caps only *lengthen*\n\
         the DMA's bus occupancy, so every cap loses to the baseline ({} MB/s cap\n\
         was best at {:.1} MB/s). The structural fix the paper proposes in §3.4.1 —\n\
         \"using the SCI DMA engine instead of PIO operations\" — does work:",
        best.0, best.1
    );

    let mut fix = Table::new(
        "A4b — the paper's proposed workaround: SCI sends via the DMA engine",
        &["sci_send_path", "fwd_MB/s"],
    );
    let pio = forwarded_oneway(
        SimTech::Myrinet,
        SimTech::Sci,
        16 << 20,
        GwSetup::with_mtu(32 * 1024),
    )
    .mbps();
    let dma = forwarded_oneway(
        SimTech::Myrinet,
        SimTech::Sci,
        16 << 20,
        GwSetup {
            mtu: 32 * 1024,
            outbound_override: Some(sci_with_dma_engine()),
            ..Default::default()
        },
    )
    .mbps();
    fix.row(vec!["cpu_pio (default)".into(), format!("{pio:.1}")]);
    fix.row(vec!["dma_engine (workaround)".into(), format!("{dma:.1}")]);
    fix.print();
    fix.write_csv("ablation_flow_control_dma_workaround");
    println!(
        "\nshape check: as a bus master the SCI DMA engine no longer loses\n\
         arbitration to the Myrinet NIC, so the collapse disappears."
    );

    // Part three: the mechanism that *does* regulate the incoming flow —
    // per-stream credit windows. The gateway stops pulling from an inbound
    // stream once `window` fragments are in flight through it, so its peak
    // buffer occupancy is bounded by window × MTU while the grant traffic
    // keeps the pipeline overlapped. The sweep shows the occupancy bound
    // tightening linearly with the window while bandwidth stays put.
    // (Credits come back by the half window, so the sender's DMA runs in
    // bursts and the outbound PIO has the bus to itself in between; only a
    // window of 2, whose half is one fragment, still paces fragment by
    // fragment — inbound DMA beside outbound PIO for the whole transfer —
    // and pays the §3.4.1 arbitration tax parts one and two measure.)
    let mut sweep = Table::new(
        "A4c — credit-window sweep, Myrinet→SCI, 16 MB messages, 32 KB packets",
        &[
            "window_frags",
            "fwd_MB/s",
            "peak_held_KB",
            "bound_KB",
            "credits_granted",
        ],
    );
    let windows: [Option<u32>; 6] = [None, Some(32), Some(16), Some(8), Some(4), Some(2)];
    for window in windows {
        // A deep forwarding pipeline: without credits the gateway will
        // happily queue up to `pipeline_depth` fragments per hop, so the
        // window is what actually bounds occupancy.
        let setup = GwSetup {
            mtu: 32 * 1024,
            pipeline_depth: 64,
            credit_window: window,
            ..Default::default()
        };
        let (m, totals) = forwarded_oneway_stats(SimTech::Myrinet, SimTech::Sci, 16 << 20, setup);
        let label = window.map_or("none".to_string(), |w| w.to_string());
        let bound = window.map_or("-".to_string(), |w| {
            format!("{}", w as i64 * (32 * 1024) / 1024)
        });
        sweep.row(vec![
            label,
            format!("{:.1}", m.mbps()),
            format!("{:.1}", totals.peak_held_bytes as f64 / 1024.0),
            bound,
            format!("{}", totals.credits_granted),
        ]);
    }
    sweep.print();
    sweep.write_csv("ablation_flow_control_credit_window");
    println!(
        "\nshape check: peak occupancy stays on or under the window × MTU bound\n\
         (uncapped, the gateway buffers ~2 MB — whatever the 70 MB/s inbound\n\
         side gets ahead of the slower outbound side). Windows of 4 and up\n\
         cost no bandwidth: their credits come back half a window at a\n\
         time, the sender's DMA runs in bursts, and the outbound PIO sends\n\
         have the bus to themselves in between. A window of 2 is granted\n\
         fragment by fragment, keeps the inbound DMA active beside the PIO\n\
         for the whole transfer, and pays the §3.4.1 arbitration tax."
    );
}
