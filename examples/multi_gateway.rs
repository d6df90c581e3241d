//! Parallel gateways through the multi-path routing plane.
//!
//! Two clusters — Myrinet {0,1,2} and SCI {1,2,3} — are bridged by *two*
//! gateway hosts (ranks 1 and 2), so the `RoutePlan` for 0 → 3 has width
//! 2. Each message binds to the cheapest path at its header and stays
//! there; a schedule of messages spreads across both gateways, and the
//! routing plane accounts every payload byte to the gateway that carried
//! it — the per-path split printed at the end.
//!
//! Run with: `cargo run --release --example multi_gateway`

use mad_sim::{SimTech, Testbed};
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

const MSGS: u32 = 6;
const LEN: usize = 200 * 1024;

fn split_line(split: &[(u32, u64)]) -> String {
    split
        .iter()
        .map(|&(gw, b)| format!("gateway {gw}: {} KB", b >> 10))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let testbed = Testbed::new(4);
    let mut session = SessionBuilder::new(4).with_runtime(testbed.runtime());
    let myri = session.network("myrinet", testbed.driver(SimTech::Myrinet), &[0, 1, 2]);
    let sci = session.network("sci", testbed.driver(SimTech::Sci), &[1, 2, 3]);
    session.vchannel(
        "streams",
        &[myri, sci],
        VcOptions {
            mtu: Some(16 * 1024),
            ..Default::default()
        },
    );

    let results = session.run(|node| {
        let streams = node.vchannel("streams");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                // The plan for 0 → 3 goes through either gateway.
                let mp = streams.multipath().expect("parallel gateways");
                let width = mp.plan(NodeId(0)).width(3);
                assert_eq!(width, 2, "expected two parallel paths to rank 3");

                // A schedule of per-stream-routed messages.
                for i in 0..MSGS {
                    let data = vec![i as u8; LEN];
                    let hdr = [i as u8];
                    let mut w = streams.begin_packing(NodeId(3)).unwrap();
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                format!(
                    "plan width {width}, per-path split: {}",
                    split_line(&mp.path_bytes()),
                )
            }
            3 => {
                let mut seen = 0u64;
                for _ in 0..MSGS {
                    let mut r = streams.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let mut buf = vec![0u8; LEN];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert!(buf.iter().all(|&b| b == hdr[0]), "stream corrupted");
                    seen += 1;
                }
                format!("received {seen} messages intact")
            }
            r => format!("gateway {r} Myrinet↔SCI (library threads only)"),
        }
    });

    for (rank, line) in results.iter().enumerate() {
        println!("[rank {rank}] {line}");
    }
    println!("\n(total virtual time: {})", testbed.clock().now());
}
