//! Sessions over the real TCP loopback driver — including a heterogeneous
//! configuration mixing TCP and shared memory through a gateway, the
//! closest real-transport analogue of the paper's setup.

use mad_shm::ShmDriver;
use mad_tcp::TcpDriver;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

#[test]
fn tcp_plain_channel_bulk_transfer() {
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("tcp", TcpDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let ok = sb.run(|node| {
        let ch = node.channel("ch");
        if node.rank() == NodeId(0) {
            let data = payload(2 << 20, 5);
            let mut w = ch.begin_packing(NodeId(1)).unwrap();
            w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            true
        } else {
            let mut buf = vec![0u8; 2 << 20];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            buf == payload(2 << 20, 5)
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

#[test]
fn heterogeneous_shm_to_tcp_gateway() {
    // Real transports, real gateway: shm cluster {0,1}, TCP "inter-cluster
    // link" {1,2}; messages 0→2 cross the gateway with GTM framing.
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("tcp", TcpDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(16 * 1024),
            ..Default::default()
        },
    );
    let ok = sb.run(|node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                let data = payload(300_000, 9);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                assert!(w.is_forwarded());
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
                true
            }
            1 => true,
            2 => {
                let mut buf = vec![0u8; 300_000];
                let mut r = vc.begin_unpacking().unwrap();
                assert!(r.is_forwarded());
                assert_eq!(r.source(), NodeId(0));
                r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                buf == payload(300_000, 9)
            }
            _ => unreachable!(),
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

#[test]
fn tcp_many_small_messages() {
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("tcp", TcpDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let ok = sb.run(|node| {
        let ch = node.channel("ch");
        if node.rank() == NodeId(0) {
            for i in 0..200u32 {
                let data = payload(1 + (i as usize % 100), i as u8);
                let mut w = ch.begin_packing(NodeId(1)).unwrap();
                w.pack(&data, SendMode::Safer, RecvMode::Express).unwrap();
                w.end_packing().unwrap();
            }
            true
        } else {
            for i in 0..200u32 {
                let expect = payload(1 + (i as usize % 100), i as u8);
                let mut buf = vec![0u8; expect.len()];
                let mut r = ch.begin_unpacking().unwrap();
                r.unpack(&mut buf, SendMode::Safer, RecvMode::Express)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(buf, expect, "message {i}");
            }
            true
        }
    });
    assert!(ok.into_iter().all(|x| x));
}

/// A shm → TCP forward hands the buffer that landed straight to the TCP
/// send: the TCP driver is dynamic, so the gateway stages no copy (paper
/// §2.3, "any → dynamic: 0 copies").
#[test]
fn shm_to_tcp_forward_makes_no_copy() {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("tcp", TcpDriver::new(rt), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(16 * 1024),
            ..Default::default()
        },
    );
    let (ok, stats) = sb.run_with_gateway_stats(|node| match node.rank().0 {
        0 => {
            let vc = node.vchannel("vc");
            for i in 0..4u8 {
                let data = payload(100_000 + 64 * i as usize, i);
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                w.end_packing().unwrap();
            }
            true
        }
        1 => true,
        _ => (0..4u8).all(|i| {
            let vc = node.vchannel("vc");
            let mut buf = vec![0u8; 100_000 + 64 * i as usize];
            let mut r = vc.begin_unpacking().unwrap();
            r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
                .unwrap();
            r.end_unpacking().unwrap();
            buf == payload(buf.len(), i)
        }),
    });
    assert!(ok.into_iter().all(|x| x));
    let totals: Vec<_> = stats.iter().map(|(_, _, s)| s.totals()).collect();
    assert!(totals.iter().map(|t| t.fragments).sum::<u64>() >= 4 * 7);
    for t in totals {
        assert_eq!((t.copies_recv, t.copies_flush), (0, 0));
    }
}

/// Two endpoints on a plain TCP channel, which has no credit window, each
/// send the other 16 MiB before either receives. Neither kernel buffer
/// holds that: each send, while it waits for room, reads what arrives on
/// its own socket, so both complete.
#[test]
fn tcp_both_ways_16_mib_before_receiving() {
    const LEN: usize = 16 << 20;
    let mut sb = SessionBuilder::new(2);
    let rt = sb.runtime().clone();
    let net = sb.network("tcp", TcpDriver::new(rt), &[0, 1]);
    sb.channel("ch", net);
    let ok = sb.run(|node| {
        let ch = node.channel("ch");
        let (me, peer) = (node.rank().0, NodeId(1 - node.rank().0));
        let data = payload(LEN, me as u8);
        let mut w = ch.begin_packing(peer).unwrap();
        w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
        w.end_packing().unwrap();
        let mut buf = vec![0u8; LEN];
        let mut r = ch.begin_unpacking().unwrap();
        r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        r.end_unpacking().unwrap();
        buf == payload(LEN, peer.0 as u8)
    });
    assert!(ok.into_iter().all(|x| x));
}

/// The threads a session spawns: a TCP session spawns exactly as many as
/// the same session over shared memory — a socket is read by whoever
/// sleeps on its conduit's event, not by a thread of its own.
#[test]
fn tcp_session_spawns_no_thread_per_conduit() {
    fn threads(tcp: bool) -> u64 {
        let mut sb = SessionBuilder::new(4);
        let rt = sb.runtime().clone();
        let members = [0, 1, 2, 3];
        let net = if tcp {
            sb.network("net", TcpDriver::new(rt.clone()), &members)
        } else {
            sb.network("net", ShmDriver::new(rt.clone()), &members)
        };
        sb.channel("ch", net);
        let ok = sb.run(|node| {
            let ch = node.channel("ch");
            let next = NodeId((node.rank().0 + 1) % 4);
            let mut w = ch.begin_packing(next).unwrap();
            w.pack(b"ring", SendMode::Safer, RecvMode::Express).unwrap();
            w.end_packing().unwrap();
            let mut buf = [0u8; 4];
            let mut r = ch.begin_unpacking().unwrap();
            r.unpack(&mut buf, SendMode::Safer, RecvMode::Express)
                .unwrap();
            r.end_unpacking().unwrap();
            &buf == b"ring"
        });
        assert!(ok.into_iter().all(|x| x));
        rt.threads_spawned()
    }
    // Six connections, twelve conduit sides: not one thread among them.
    assert_eq!(threads(true), threads(false));
}
