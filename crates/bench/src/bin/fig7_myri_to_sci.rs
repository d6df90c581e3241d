//! Figure 7: forwarding bandwidth, Myrinet → SCI, per packet size.
//!
//! Paper: the collapse direction — the gateway's SCI PIO sends are starved
//! by Myrinet receive DMA; bandwidth never exceeds ~35 MB/s (asymptote
//! ~26 MB/s at 8 KB packets).

use mad_bench::experiments::{forwarded_oneway, forwarded_oneway_traced, grids, GwSetup};
use mad_bench::report::{fmt_bytes, Table};
use mad_sim::SimTech;

fn main() {
    let mut header = vec!["message".to_string()];
    header.extend(grids::PACKET_SIZES.iter().map(|p| fmt_bytes(*p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 7 — Myrinet→SCI forwarding bandwidth (MB/s) vs message size, per packet size",
        &header_refs,
    );
    for &msg in &grids::MESSAGE_SIZES {
        let mut row = vec![fmt_bytes(msg)];
        for &packet in &grids::PACKET_SIZES {
            let m = forwarded_oneway(
                SimTech::Myrinet,
                SimTech::Sci,
                msg,
                GwSetup::with_mtu(packet),
            );
            row.push(format!("{:.1}", m.mbps()));
        }
        table.row(row);
    }
    table.print();
    table.write_csv("fig7_myri_to_sci");
    println!(
        "\npaper shape check: every column should stay below ~35 MB/s — far under\n\
         Fig. 6 — because PCI DMA outranks the CPU's SCI PIO stores on the gateway."
    );
    if let Some(path) = mad_bench::cli::trace_path() {
        // Re-run one representative point (512 KB / 16 KB packets) with
        // tracing on and export that run.
        let (_, snap) = forwarded_oneway_traced(
            SimTech::Myrinet,
            SimTech::Sci,
            512 * 1024,
            GwSetup::with_mtu(16 * 1024),
        );
        mad_bench::cli::export_trace(&snap, &path);
    }
}
