//! Figure 6: forwarding bandwidth, SCI → Myrinet, per packet size.
//!
//! Paper: asymptotic bandwidth grows from ~41 MB/s at 8 KB packets to
//! nearly 60 MB/s at 128 KB, against a 66 MB/s one-way PCI ceiling.

use mad_bench::experiments::{forwarded_oneway, forwarded_oneway_traced, grids, GwSetup};
use mad_bench::report::{fmt_bytes, Table};
use mad_sim::SimTech;

fn main() {
    let mut header = vec!["message".to_string()];
    header.extend(grids::PACKET_SIZES.iter().map(|p| fmt_bytes(*p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Fig. 6 — SCI→Myrinet forwarding bandwidth (MB/s) vs message size, per packet size",
        &header_refs,
    );
    for &msg in &grids::MESSAGE_SIZES {
        let mut row = vec![fmt_bytes(msg)];
        for &packet in &grids::PACKET_SIZES {
            let m = forwarded_oneway(
                SimTech::Sci,
                SimTech::Myrinet,
                msg,
                GwSetup::with_mtu(packet),
            );
            row.push(format!("{:.1}", m.mbps()));
        }
        table.row(row);
    }
    table.print();
    table.write_csv("fig6_sci_to_myri");
    println!(
        "\npaper shape check: rightmost column should approach ~55-60 MB/s on the\n\
         largest messages; the 8KB column should sit markedly lower (paper: ~41)."
    );
    if let Some(path) = mad_bench::cli::trace_path() {
        // Re-run one representative point (512 KB / 32 KB packets) with
        // tracing on and export that run.
        let (_, snap) = forwarded_oneway_traced(
            SimTech::Sci,
            SimTech::Myrinet,
            512 * 1024,
            GwSetup::with_mtu(32 * 1024),
        );
        mad_bench::cli::export_trace(&snap, &path);
    }
}
