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
