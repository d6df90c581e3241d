//! End-to-end tests of the multi-path routing plane (`mad-route` +
//! `madeleine::multipath`): parallel-gateway topologies, per-stream
//! routing, and failover when a gateway host dies mid-run.

use mad_sim::{SimTech, Testbed};
use madeleine::gateway::GatewayConfig;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

/// Deterministic payload, distinct per (sender, index).
fn payload(from: u32, idx: u32, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (i as u8)
                .wrapping_mul(13)
                .wrapping_add((from + 7 * idx) as u8)
        })
        .collect()
}

/// Parallel-gateway topology: net0 {0,1,2}, net1 {1,2,3} — ranks 1 and 2
/// both span the two clusters, so the plan for 0 → 3 has width 2.
fn parallel_testbed() -> (Testbed, SessionBuilder) {
    let tb = Testbed::new(4);
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3]);
    let nets = [n0, n1];
    (tb, {
        let mut sb = sb;
        sb.vchannel(
            "vc",
            &nets,
            VcOptions {
                mtu: Some(8 * 1024),
                ..Default::default()
            },
        );
        sb
    })
}

/// Per-stream adaptive routing: every message still arrives intact and in
/// per-sender order, and the routing plane accounts every payload byte to
/// some gateway path.
#[test]
fn adaptive_streams_round_trip_over_parallel_gateways() {
    const MSGS: u32 = 8;
    const LEN: usize = 100_000;

    let (_tb, sb) = parallel_testbed();
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                for i in 0..MSGS {
                    let data = payload(0, i, LEN);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    assert!(w.is_forwarded(), "0 → 3 must cross a gateway");
                    // Stamp the index: streams on different paths may
                    // overtake each other (ordering holds per conduit, not
                    // across parallel gateways).
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                // Conservation: the routing plane accounted every byte.
                let mp = vc.multipath().expect("parallel gateways");
                let total: u64 = mp.path_bytes().iter().map(|&(_, b)| b).sum();
                assert_eq!(total, MSGS as u64 * (LEN as u64 + 1));
                true
            }
            3 => {
                let mut seen = vec![false; MSGS as usize];
                for _ in 0..MSGS {
                    let mut r = vc.begin_unpacking().unwrap();
                    assert!(r.is_forwarded());
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let mut buf = vec![0u8; LEN];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, i, LEN), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "missing streams: {seen:?}");
                true
            }
            _ => true, // the two gateways
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

/// Failover: one of the two gateways dies while a schedule of streams is
/// in flight. Streams bound to the dead gateway are re-issued on the
/// survivor; every message still arrives intact, nothing hangs, and the
/// selector records at least one failover.
#[test]
fn gateway_death_fails_over_to_surviving_path() {
    const MSGS: u32 = 10;
    const LEN: usize = 200_000;

    let tb = Testbed::new(4);
    // Gateway 1 dies at 20 virtual ms — mid-schedule.
    tb.kill_host(1, 20_000_000);
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            gateway: GatewayConfig {
                drain_timeout_ns: 100_000_000, // dead engine must not hang teardown
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let failovers = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                for i in 0..MSGS {
                    let data = payload(0, i, LEN);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    let hdr = [i as u8];
                    w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                let mp = vc.multipath().expect("parallel gateways");
                let c = mp.counters();
                let total: u64 = mp.path_bytes().iter().map(|&(_, b)| b).sum();
                assert_eq!(
                    total,
                    MSGS as u64 * (LEN as u64 + 1),
                    "every byte must be accounted to the path that delivered it"
                );
                c.failovers
            }
            3 => {
                let mut seen = vec![false; MSGS as usize];
                for _ in 0..MSGS {
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut hdr = [0u8; 1];
                    r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                        .unwrap();
                    let i = hdr[0] as u32;
                    let mut buf = vec![0u8; LEN];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(0, i, LEN), "stream #{i} corrupted");
                    assert!(!seen[i as usize], "stream #{i} delivered twice");
                    seen[i as usize] = true;
                }
                assert!(seen.iter().all(|&s| s), "missing streams: {seen:?}");
                0
            }
            _ => 0,
        }
    });
    assert!(
        failovers[0] >= 1,
        "gateway 1 died mid-schedule but no stream failed over"
    );
}

/// A one-gateway topology behaves exactly like the legacy single-path
/// library: every plan has width 1, so the channel has no routing plane
/// and sends go through the unmodified GTM writer.
#[test]
fn single_path_plan_uses_legacy_writer() {
    const LEN: usize = 64 * 1024;

    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    let n1 = sb.network("sci", tb.driver(SimTech::Sci), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(8 * 1024),
            ..Default::default()
        },
    );
    let ok = sb.run(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                // Width 1 everywhere: no routing plane.
                assert!(vc.multipath().is_none());
                let data = payload(0, 0, LEN);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            2 => {
                let mut buf = vec![0u8; LEN];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, payload(0, 0, LEN));
                true
            }
            _ => true,
        }
    });
    assert!(ok.into_iter().all(|x| x));
}
