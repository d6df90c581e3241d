//! Teardown drain: gateways must finish relaying every stream they have
//! accepted before stopping, even when no application thread is waiting on
//! the data anymore. Before the drain protocol, a sender could return from
//! `end_packing` (the message fully handed to the network), the session
//! would observe all application threads done, and the engines would stop
//! with fragments still queued — silently dropping the tail of in-flight
//! messages.

use std::sync::{Arc, Mutex};

use mad_shm::ShmDriver;
use mad_sim::{SimTech, Testbed};
use madeleine::error::MadError;
use madeleine::gateway::GatewayConfig;
use madeleine::session::VcOptions;
use madeleine::vchannel::VirtualChannel;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

fn payload(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(13).wrapping_add(seed))
        .collect()
}

/// Chain 0 → gw1 → gw2 → 3. The sender fires off several messages and
/// exits; the receiver *never reads them* — it only stashes its virtual
/// channel so the receive conduits outlive the application. The gateways
/// must still forward every byte before honoring the stop request, which
/// the engine statistics prove.
#[test]
fn gateways_drain_in_flight_streams_before_stopping() {
    const MSGS: usize = 5;
    const LEN: usize = 30_000;
    const MTU: usize = 1024;

    let stash: Arc<Mutex<Vec<Arc<VirtualChannel>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut sb = SessionBuilder::new(4);
    let rt = sb.runtime().clone();
    let n0 = sb.network("shm0", ShmDriver::new(rt.clone()), &[0, 1]);
    let n1 = sb.network("shm1", ShmDriver::new(rt.clone()), &[1, 2]);
    let n2 = sb.network("shm2", ShmDriver::new(rt), &[2, 3]);
    sb.vchannel(
        "vc",
        &[n0, n1, n2],
        VcOptions {
            mtu: Some(MTU),
            ..Default::default()
        },
    );

    let stash2 = stash.clone();
    let (_, stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        match node.rank().0 {
            0 => {
                for i in 0..MSGS {
                    let data = payload(LEN, i as u8);
                    let mut w = vc.begin_packing(NodeId(3)).unwrap();
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                }
            }
            3 => {
                // Deliberately do NOT receive: keep the conduits alive past
                // the application's lifetime and let teardown race the
                // still-relaying engines.
                stash2.lock().unwrap().push(vc.clone());
            }
            _ => {}
        }
    });

    // Both gateways relayed every message in full.
    assert_eq!(stats.len(), 2, "two gateway engines");
    let frags_per_msg = LEN.div_ceil(MTU) as u64;
    for (vc_name, gw, s) in &stats {
        assert_eq!(vc_name, "vc");
        let t = s.totals();
        assert_eq!(t.messages, MSGS as u64, "gateway {gw} lost whole messages");
        assert_eq!(
            t.fragments,
            MSGS as u64 * frags_per_msg,
            "gateway {gw} lost fragments"
        );
        assert_eq!(
            t.fragment_bytes,
            (MSGS * LEN) as u64,
            "gateway {gw} lost payload bytes"
        );
    }
    drop(stash);
}

/// The other side of the drain contract: a stream whose source silently
/// dies mid-message can never end, and without a bound the gateway would
/// honor "drain everything first" forever. The drain deadline converts
/// that into a bounded wait — the session tears down a fixed (virtual)
/// time after the stop request, abandoning only the orphaned stream.
///
/// Flow control is off here on purpose: no credit timeout, no cancel ever
/// reaches the gateway (the sender's best-effort cancel dies on the same
/// dead link), so the drain deadline is the *only* mechanism that can
/// unblock teardown.
#[test]
fn drain_timeout_unblocks_lost_source() {
    const LEN: usize = 2 << 20;
    const MTU: usize = 16 * 1024;
    const DEAD_AT: u64 = 5_000_000; // 5 virtual ms: mid-stream
    const DRAIN_NS: u64 = 100_000_000; // 100 virtual ms

    let tb = Testbed::new(3);
    tb.kill_host(0, DEAD_AT);

    let mut sb = SessionBuilder::new(3).with_runtime(tb.runtime());
    let n0 = sb.network("myri", tb.driver(SimTech::Myrinet), &[0, 1]);
    let n1 = sb.network("fe", tb.driver(SimTech::FastEthernet), &[1, 2]);
    sb.vchannel(
        "vc",
        &[n0, n1],
        VcOptions {
            mtu: Some(MTU),
            gateway: GatewayConfig {
                drain_timeout_ns: DRAIN_NS,
                ..Default::default()
            },
            ..Default::default()
        },
    );

    let stash: Arc<Mutex<Vec<Arc<VirtualChannel>>>> = Arc::new(Mutex::new(Vec::new()));
    let stash2 = stash.clone();
    let (results, stats) = sb.run_with_gateway_stats(move |node| {
        let vc = node.vchannel("vc");
        node.barrier().wait();
        match node.rank().0 {
            0 => {
                // Dies (silently) 5 ms into a ~30 ms transfer: the next
                // wire send vanishes and comes back as a typed error.
                let data = payload(LEN, 7);
                (|| {
                    let mut w = vc.begin_packing(NodeId(2))?;
                    w.pack(&data, SendMode::Later, RecvMode::Cheaper)?;
                    w.end_packing()
                })()
            }
            2 => {
                // Never reads, but keeps the conduits alive so the partial
                // stream has somewhere to drain to — the orphaned stream,
                // not a closed outbound side, must be what blocks teardown.
                stash2.lock().unwrap().push(vc.clone());
                Ok(())
            }
            _ => Ok(()), // the gateway
        }
    });

    match &results[0] {
        Err(MadError::PeerUnreachable(peer)) => assert_eq!(*peer, NodeId(1)),
        other => panic!("lost sender must fail typed, got {other:?}"),
    }

    // The stream never completed, some fragments were relayed before the
    // death, and the engine exited with nothing left resident.
    assert_eq!(stats.len(), 1);
    let t = stats[0].2.totals();
    assert_eq!(
        t.messages, 0,
        "a half-dead stream must not count as relayed"
    );
    assert!(t.fragments >= 1, "no fragment crossed before the death");
    assert_eq!(t.held_bytes, 0, "engine leaked resident bytes");

    // Teardown was bounded by the drain deadline: the full window was
    // waited out (the stream can never end), and not much more.
    let end = tb.clock().now().0;
    assert!(
        end >= DRAIN_NS,
        "teardown finished before the drain window could have elapsed: {end}"
    );
    assert!(
        end < DEAD_AT + DRAIN_NS + 50_000_000,
        "drain deadline did not bound teardown: {end}"
    );
    drop(stash);
}
