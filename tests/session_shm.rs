//! End-to-end session tests over the real shared-memory driver: plain
//! channels, virtual channels, gateway forwarding, multi-gateway chains.

use mad_shm::ShmDriver;
use madeleine::gateway::GatewayConfig;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn plain_channel_ping_pong() {
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("shm0", ShmDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let results = sb.run(|node| {
        let ch = node.channel("ch");
        if node.rank() == NodeId(0) {
            let data = payload(4096, 7);
            let mut msg = ch.begin_packing(NodeId(1)).unwrap();
            msg.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            msg.end_packing().unwrap();
            let mut back = vec![0u8; 4096];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut back, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            back == data
        } else {
            let mut buf = vec![0u8; 4096];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            let mut msg = ch.begin_packing(NodeId(0)).unwrap();
            msg.pack(&buf, SendMode::Later, RecvMode::Cheaper).unwrap();
            msg.end_packing().unwrap();
            true
        }
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn multi_block_message_with_mixed_flags() {
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("shm0", ShmDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let results = sb.run(|node| {
        let ch = node.channel("ch");
        if node.rank() == NodeId(0) {
            let a = payload(100, 1);
            let b = payload(5000, 2);
            let c = payload(3, 3);
            let d = payload(64 * 1024, 4);
            let mut msg = ch.begin_packing(NodeId(1)).unwrap();
            msg.pack(&a, SendMode::Safer, RecvMode::Express).unwrap();
            msg.pack(&b, SendMode::Later, RecvMode::Cheaper).unwrap();
            msg.pack(&c, SendMode::Cheaper, RecvMode::Cheaper).unwrap();
            msg.pack(&d, SendMode::Later, RecvMode::Express).unwrap();
            msg.end_packing().unwrap();
            true
        } else {
            let mut a = vec![0u8; 100];
            let mut b = vec![0u8; 5000];
            let mut c = vec![0u8; 3];
            let mut d = vec![0u8; 64 * 1024];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut a, SendMode::Safer, RecvMode::Express)
                .unwrap();
            assert_eq!(a, payload(100, 1), "express data valid immediately");
            r.unpack(&mut b, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.unpack(&mut c, SendMode::Cheaper, RecvMode::Cheaper)
                .unwrap();
            r.unpack(&mut d, SendMode::Later, RecvMode::Express)
                .unwrap();
            r.end_unpacking().unwrap();
            a == payload(100, 1)
                && b == payload(5000, 2)
                && c == payload(3, 3)
                && d == payload(64 * 1024, 4)
        }
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn vchannel_direct_delivery() {
    // Two nodes on one network: the virtual channel must not forward.
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("shm0", ShmDriver::new(rt), &[0, 1]);
    sb.vchannel("vc", &[net], VcOptions::default());
    let results = sb.run(|node| {
        let vc = node.vchannel("vc");
        if node.rank() == NodeId(0) {
            assert!(!vc.is_forwarded(NodeId(1)).unwrap());
            let data = payload(10_000, 9);
            let mut w = vc.begin_packing(NodeId(1)).unwrap();
            assert!(!w.is_forwarded());
            w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            true
        } else {
            let mut r = vc.begin_unpacking().unwrap();
            assert!(!r.is_forwarded());
            assert_eq!(r.source(), NodeId(0));
            let mut buf = vec![0u8; 10_000];
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            buf == payload(10_000, 9)
        }
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn vchannel_forwarded_through_one_gateway() {
    // net0: {0, 1}; net1: {1, 2}. Node 1 is the gateway; 0 → 2 forwarded.
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(4096),
            ..Default::default()
        },
    );
    let results = sb.run(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                assert!(vc.is_forwarded(NodeId(2)).unwrap());
                let small = payload(10, 1);
                let big = payload(100_000, 2);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                assert!(w.is_forwarded());
                w.pack(&small, SendMode::Safer, RecvMode::Express).unwrap();
                w.pack(&big, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            1 => true, // gateway: engine threads do the work
            2 => {
                let mut r = vc.begin_unpacking().unwrap();
                assert!(r.is_forwarded());
                assert_eq!(r.source(), NodeId(0));
                let mut small = vec![0u8; 10];
                let mut big = vec![0u8; 100_000];
                r.unpack(&mut small, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                r.unpack(&mut big, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                small == payload(10, 1) && big == payload(100_000, 2)
            }
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn vchannel_two_gateway_chain() {
    // net0: {0,1}; net1: {1,2}; net2: {2,3}. Message 0 → 3 crosses both
    // gateways — the multi-gateway disambiguation case of §2.2.2 — under a
    // credit window.
    let mut sb = SessionBuilder::new(4);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt.clone()), &[1, 2]);
    let n2 = sb.network("shm2", ShmDriver::new(rt), &[2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1, n2],
        VcOptions {
            mtu: Some(1024),
            gateway: GatewayConfig {
                credit_window: Some(8),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (results, stats) = sb.run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                let data = payload(50_000, 5);
                let mut w = vc.begin_packing(NodeId(3)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                // And a reply comes back the other way.
                let mut r = vc.begin_unpacking().unwrap();
                assert_eq!(r.source(), NodeId(3));
                let mut ack = vec![0u8; 16];
                r.unpack(&mut ack, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                ack == payload(16, 6)
            }
            1 | 2 => true,
            3 => {
                let mut r = vc.begin_unpacking().unwrap();
                assert_eq!(r.source(), NodeId(0));
                let mut buf = vec![0u8; 50_000];
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                let ok = buf == payload(50_000, 5);
                let ack = payload(16, 6);
                let mut w = vc.begin_packing(NodeId(0)).unwrap();
                w.pack(&ack, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                ok
            }
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok));
    // Each gateway's sink toward the other gateway spends credits, so it
    // keeps its forwarding thread; its sink toward an endpoint has none.
    assert_eq!(stats.len(), 2, "two gateway engines");
    for (_, gw, s) in &stats {
        assert_eq!(s.totals().threads_spawned, 3, "gateway {gw}");
    }
}

#[test]
fn gateway_node_also_receives_its_own_messages() {
    // The gateway is a regular node too (paper §2.2.2): messages addressed
    // to it arrive on the regular channel and must not enter the engine.
    // {0,1,2} and {2,3,4} with gateway 2: every node sends to every other
    // at once, then receives, so the gateway's application sends and
    // receives while its engine relays. Each message is a length header
    // and a body: empty, one packet, or many fragments.
    const BODIES: [usize; 3] = [0, 64, 20_000];
    let body = |from: u32, to: u32, len: usize| payload(len, (from * 5 + to) as u8);
    let crosses = |from: u32, to: u32| (from < 2 && to > 2) || (from > 2 && to < 2);
    let mut sb = SessionBuilder::new(5);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1, 2]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[2, 3, 4]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(2048),
            ..Default::default()
        },
    );
    sb.run(move |node| {
        let vc = node.vchannel("vc");
        let me = node.rank().0;
        let others: Vec<u32> = (0..5).filter(|&n| n != me).collect();
        let mut dests: Vec<u32> = vc.destinations().iter().map(|n| n.0).collect();
        dests.sort_unstable();
        assert_eq!(dests, others, "node {me} reaches every other node");
        for len in BODIES {
            for &to in &others {
                let (hdr, data) = ((len as u32).to_le_bytes(), body(me, to, len));
                let mut w = vc.begin_packing(NodeId(to)).unwrap();
                assert_eq!(w.is_forwarded(), crosses(me, to));
                w.pack(&hdr, SendMode::Safer, RecvMode::Express).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
        }
        // Sources interleave; each one's messages arrive in the order sent.
        let mut next = [0; 5];
        for _ in 0..BODIES.len() * others.len() {
            let mut r = vc.begin_unpacking().unwrap();
            let from = r.source().0;
            assert_eq!(r.is_forwarded(), crosses(from, me));
            let mut hdr = [0u8; 4];
            r.unpack(&mut hdr, SendMode::Safer, RecvMode::Express)
                .unwrap();
            let len = u32::from_le_bytes(hdr) as usize;
            assert_eq!(len, BODIES[next[from as usize]], "{from}→{me} order");
            next[from as usize] += 1;
            let mut buf = vec![0u8; len];
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            assert_eq!(buf, body(from, me, len), "{from}→{me}, {len} B");
        }
    });
}

#[test]
fn many_messages_keep_order_per_connection() {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(512),
            ..Default::default()
        },
    );
    let results = sb.run(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                for i in 0..50u32 {
                    let data = payload(1 + (i as usize * 37) % 2000, i as u8);
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                true
            }
            1 => true,
            2 => {
                for i in 0..50u32 {
                    let expect = payload(1 + (i as usize * 37) % 2000, i as u8);
                    let mut r = vc.begin_unpacking().unwrap();
                    let mut buf = vec![0u8; expect.len()];
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, expect, "message {i} out of order or corrupt");
                }
                true
            }
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok));
}

#[test]
fn pipeline_depth_one_still_correct() {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(2048),
            gateway: GatewayConfig {
                pipeline_depth: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (results, stats) = sb.run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                let data = payload(30_000, 8);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            1 => true,
            2 => {
                let mut r = vc.begin_unpacking().unwrap();
                let mut buf = vec![0u8; 30_000];
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(30_000, 8)
            }
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok));
    // A polling thread per network and no forwarding thread.
    assert_eq!(stats[0].2.totals().threads_spawned, 2);
}

#[test]
fn barrier_synchronizes_phases() {
    let mut sb = SessionBuilder::new(4);
    let rt = sb.runtime().clone();
    let net = sb.network("shm0", ShmDriver::new(rt), &[0, 1, 2, 3]);
    sb.channel("ch", net);
    let results = sb.run(|node| {
        for _ in 0..10 {
            node.barrier().wait();
        }
        node.rank().0
    });
    let mut sorted = results.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 1, 2, 3]);
}

#[test]
fn gateway_stats_count_relayed_traffic() {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(1000),
            ..Default::default()
        },
    );
    let (results, stats) = sb.run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                // Two messages: 2500 bytes (3 fragments) + 10 bytes (1).
                for len in [2500usize, 10] {
                    let data = payload(len, 7);
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                true
            }
            1 => true,
            2 => {
                for len in [2500usize, 10] {
                    let mut buf = vec![0u8; len];
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                    assert_eq!(buf, payload(len, 7));
                }
                true
            }
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok));
    assert_eq!(stats.len(), 1, "one gateway engine");
    let (vc_name, gw, s) = &stats[0];
    assert_eq!(vc_name, "vc");
    assert_eq!(*gw, NodeId(1));
    let t = s.totals();
    assert_eq!(t.messages, 2);
    assert_eq!(t.fragments, 3 + 1);
    assert_eq!(t.fragment_bytes, 2510);
}

/// Over shared memory every send is a queue push, and every hop out of a
/// lone gateway is a last hop, so the thread that receives a bulk fragment
/// sends it on: 1 MiB messages in 64 KiB fragments cross the gateway with
/// no buffer switch at all, and intact, and the gateway spawns no
/// forwarding thread.
#[test]
fn shm_gateway_forwards_bulk_on_the_receiving_thread() {
    const LEN: usize = 1 << 20;
    const MESSAGES: u8 = 4;
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(64 * 1024),
            gateway: GatewayConfig {
                credit_window: None,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (results, stats) = sb.run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                for seed in 0..MESSAGES {
                    let data = payload(LEN, seed);
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
                true
            }
            1 => true,
            2 => (0..MESSAGES).all(|seed| {
                let mut buf = vec![0u8; LEN];
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(LEN, seed)
            }),
            _ => unreachable!(),
        }
    });
    assert!(results.into_iter().all(|ok| ok), "payload corrupted");
    let t = stats[0].2.totals();
    assert_eq!(t.messages, MESSAGES as u64);
    assert!(
        t.fragments >= 16 * MESSAGES as u64,
        "{} fragments",
        t.fragments
    );
    assert_eq!((t.buffer_switches, t.stalls), (0, 0));
    assert_eq!((t.errors, t.held_bytes), (0, 0));
    assert_eq!(t.threads_spawned, 2, "one polling thread per network");
}
