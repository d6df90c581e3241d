//! Integration tests of full sessions over the simulated hardware:
//! heterogeneous driver pairings, bidirectional traffic, concurrent
//! senders, and timing sanity.

use mad_sim::{SimTech, Testbed};
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed))
        .collect()
}

/// Every (from, to) technology pairing forwards correctly through a
/// gateway — exercising all four cells of the zero-copy matrix.
#[test]
fn all_tech_pairings_forward_correctly() {
    let techs = [SimTech::Myrinet, SimTech::Sci, SimTech::FastEthernet];
    for from in techs {
        for to in techs {
            let tb = Testbed::new(3);
            let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
            let n0 = sb.network("in", tb.driver(from), &[0, 1]);
            let n1 = sb.network("out", tb.driver(to), &[1, 2]);
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
                match node.rank().0 {
                    0 => {
                        let data = payload(100_000, 42);
                        let mut w = vc.begin_packing(NodeId(2)).unwrap();
                        w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                        w.end_packing().unwrap();
                        true
                    }
                    1 => true,
                    2 => {
                        let mut buf = vec![0u8; 100_000];
                        let mut r = vc.begin_unpacking().unwrap();
                        r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                            .unwrap();
                        r.end_unpacking().unwrap();
                        buf == payload(100_000, 42)
                    }
                    _ => unreachable!(),
                }
            });
            assert!(
                ok.into_iter().all(|x| x),
                "pairing {from:?} → {to:?} failed"
            );
        }
    }
}

/// Simultaneous transfers in both directions through one gateway: the
/// engine's two direction pipelines must not interfere with correctness.
/// A simulated NIC's send takes time, so both sinks keep their forwarding
/// threads.
#[test]
fn bidirectional_forwarding_through_one_gateway() {
    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n0 = sb.network("sci", tb.driver(SimTech::Sci), &[0, 1]);
    let n1 = sb.network("myri", tb.driver(SimTech::Myrinet), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(16 * 1024),
            ..Default::default()
        },
    );
    let (ok, stats) = sb.run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                let out = payload(500_000, 1);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&out, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                let mut buf = vec![0u8; 300_000];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(300_000, 2)
            }
            1 => true,
            2 => {
                let out = payload(300_000, 2);
                let mut w = vc.begin_packing(NodeId(0)).unwrap();
                w.pack(&out, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                let mut buf = vec![0u8; 500_000];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(500_000, 1)
            }
            _ => unreachable!(),
        }
    });
    assert!(ok.into_iter().all(|x| x));
    assert_eq!(stats[0].2.totals().threads_spawned, 4);
}

/// Two senders on the source cluster race messages toward one receiver
/// through the same gateway; both messages must arrive intact (the engine
/// serializes whole messages per next-hop conduit).
#[test]
fn two_concurrent_senders_one_gateway() {
    let tb = Testbed::new(4);
    let mut sb = SessionBuilder::new(4).with_runtime(tb.runtime());
    let n0 = sb.network("sci", tb.driver(SimTech::Sci), &[0, 1, 2]);
    let n1 = sb.network("myri", tb.driver(SimTech::Myrinet), &[2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(4 * 1024),
            ..Default::default()
        },
    );
    let ok = sb.run(|node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            rank @ (0 | 1) => {
                let data = payload(200_000, rank as u8);
                let mut w = vc.begin_packing(NodeId(3)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            2 => true,
            3 => {
                let mut seen = [false; 2];
                for _ in 0..2 {
                    let mut r = vc.begin_unpacking().unwrap();
                    let src = r.source();
                    let mut buf = vec![0u8; 200_000];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(200_000, src.0 as u8), "message from {src}");
                    seen[src.index()] = true;
                }
                seen == [true, true]
            }
            _ => unreachable!(),
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

/// Virtual time must be busy exactly as long as the transfer: a no-op
/// session takes zero virtual time.
#[test]
fn idle_session_takes_no_virtual_time() {
    let tb = Testbed::new(2);
    let clock = tb.clock().clone();
    let mut sb = SessionBuilder::new(2).with_runtime(tb.runtime());
    let net = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    sb.channel("ch", net);
    sb.run(|_| ());
    assert_eq!(clock.now().as_nanos(), 0);
}

/// Two independent virtual channels over the same networks do not
/// interfere; each keeps its own ordering domain.
#[test]
fn two_virtual_channels_coexist() {
    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n0 = sb.network("sci", tb.driver(SimTech::Sci), &[0, 1]);
    let n1 = sb.network("myri", tb.driver(SimTech::Myrinet), &[1, 2]);
    sb.vchannel("vc-a", &[n0, n1], VcOptions::default());
    sb.vchannel("vc-b", &[n0, n1], VcOptions::default());
    let ok = sb.run(|node| match node.rank().0 {
        0 => {
            for (name, seed) in [("vc-a", 7u8), ("vc-b", 9u8)] {
                let vc = node.vchannel(name);
                let data = payload(50_000, seed);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
            true
        }
        1 => true,
        2 => {
            for (name, seed) in [("vc-a", 7u8), ("vc-b", 9u8)] {
                let vc = node.vchannel(name);
                let mut buf = vec![0u8; 50_000];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, payload(50_000, seed), "channel {name}");
            }
            true
        }
        _ => unreachable!(),
    });
    assert!(ok.into_iter().all(|x| x));
}

/// The session barrier works under the simulated runtime too.
#[test]
fn sim_barrier_and_timestamps_are_consistent() {
    let tb = Testbed::new(3);
    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let net = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1, 2]);
    sb.channel("ch", net);
    let stamps = sb.run(|node| {
        let rt = node.runtime().clone();
        // Desynchronize with rank-dependent virtual work, then re-sync.
        rt.charge_overhead(node.rank().0 as u64 * 1000);
        node.barrier().wait();
        rt.now_nanos()
    });
    // Everyone leaves the barrier at the same virtual instant.
    assert_eq!(stamps[0], stamps[1]);
    assert_eq!(stamps[1], stamps[2]);
    assert_eq!(stamps[0], 2000, "barrier exit at the slowest participant");
}
