//! What a small forwarded message costs on the wire, counted at the
//! conduits: one packet per hop and nothing coming back.
//!
//! The counting sits in a driver wrapper, below everything the library
//! does, so a packet the library sends in any way at all is a packet
//! counted here.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mad_shm::ShmDriver;
use mad_util::pool::PooledBuf;
use mad_util::sync::Readiness;
use madeleine::conduit::{Conduit, Driver, DriverCaps, StaticBuf};
use madeleine::gateway::GatewayConfig;
use madeleine::runtime::RtEvent;
use madeleine::session::VcOptions;
use madeleine::{NodeId, RecvMode, SendMode, SessionBuilder};

/// Packets sent and received over one directed edge `(from, to)`.
#[derive(Default)]
struct Edge {
    sent: AtomicU64,
    /// Of `sent`, the packets handed over whole (`send_owned`).
    owned: AtomicU64,
    received: AtomicU64,
}

impl Edge {
    fn sent(&self) -> u64 {
        self.sent.load(Ordering::SeqCst)
    }

    /// Sent by `from`, not yet read by `to`.
    fn backlog(&self) -> u64 {
        self.sent()
            .saturating_sub(self.received.load(Ordering::SeqCst))
    }
}

type Edges = Arc<Mutex<BTreeMap<(u32, u32), Arc<Edge>>>>;

/// Every edge's counters, summed over the conduits (of every channel)
/// that join the two ranks.
#[derive(Clone, Default)]
struct Wire(Edges);

impl Wire {
    fn edge(&self, from: u32, to: u32) -> Arc<Edge> {
        self.0
            .lock()
            .unwrap()
            .entry((from, to))
            .or_default()
            .clone()
    }
}

struct CountingDriver {
    inner: Arc<dyn Driver>,
    wire: Wire,
}

impl Driver for CountingDriver {
    fn caps(&self) -> DriverCaps {
        self.inner.caps()
    }

    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let (ca, cb) = self.inner.connect(a, b, ev_a, ev_b);
        let end = |inner, me: NodeId, peer: NodeId| -> Box<dyn Conduit> {
            Box::new(CountingConduit {
                inner,
                out: self.wire.edge(me.0, peer.0),
                inc: self.wire.edge(peer.0, me.0),
            })
        };
        (end(ca, a, b), end(cb, b, a))
    }
}

struct CountingConduit {
    inner: Box<dyn Conduit>,
    out: Arc<Edge>,
    inc: Arc<Edge>,
}

impl Conduit for CountingConduit {
    fn caps(&self) -> DriverCaps {
        self.inner.caps()
    }
    fn send(&mut self, parts: &[&[u8]]) -> madeleine::Result<()> {
        self.out.sent.fetch_add(1, Ordering::SeqCst);
        self.inner.send(parts)
    }
    // Forwarded, not defaulted: the default would turn the hand-off back
    // into a staged `send` below this wrapper.
    fn send_owned(&mut self, packet: PooledBuf) -> madeleine::Result<()> {
        self.out.sent.fetch_add(1, Ordering::SeqCst);
        self.out.owned.fetch_add(1, Ordering::SeqCst);
        self.inner.send_owned(packet)
    }
    // Forwarded, and counted packet by packet: a run is that many packets
    // on the wire, each handed over whole.
    fn send_owned_run(&mut self, packets: &mut Vec<PooledBuf>) -> madeleine::Result<()> {
        let n = packets.len() as u64;
        self.out.sent.fetch_add(n, Ordering::SeqCst);
        self.out.owned.fetch_add(n, Ordering::SeqCst);
        self.inner.send_owned_run(packets)
    }
    fn send_static(&mut self, buf: StaticBuf) -> madeleine::Result<()> {
        self.out.sent.fetch_add(1, Ordering::SeqCst);
        self.inner.send_static(buf)
    }
    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        self.inner.alloc_static(len)
    }
    fn recv_into(&mut self, dst: &mut [u8]) -> madeleine::Result<usize> {
        let n = self.inner.recv_into(dst)?;
        self.inc.received.fetch_add(1, Ordering::SeqCst);
        Ok(n)
    }
    fn recv_owned(&mut self) -> madeleine::Result<Vec<u8>> {
        let packet = self.inner.recv_owned()?;
        self.inc.received.fetch_add(1, Ordering::SeqCst);
        Ok(packet)
    }
    // Forwarded too, and counted packet by packet.
    fn recv_queued(&mut self, out: &mut VecDeque<Vec<u8>>) -> madeleine::Result<()> {
        let before = out.len();
        self.inner.recv_queued(out)?;
        let n = (out.len() - before) as u64;
        self.inc.received.fetch_add(n, Ordering::SeqCst);
        Ok(())
    }
    fn ready(&self) -> bool {
        self.inner.ready()
    }
    fn closed(&self) -> bool {
        self.inner.closed()
    }
    // Forwarded too: the default would have every scan lock this conduit.
    fn readiness(&self) -> Option<Arc<Readiness>> {
        self.inner.readiness()
    }
    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.inner.recv_event()
    }
}

const WINDOW: u32 = 8;

/// Ranks 0 and 2 on their own shm networks, rank 1 the gateway between.
fn chain(wire: &Wire) -> SessionBuilder {
    let mut sb = SessionBuilder::new(3);
    let rt = sb.runtime().clone();
    let nets: Vec<_> = [("left", [0, 1]), ("right", [1, 2])]
        .into_iter()
        .map(|(name, members)| {
            let driver = Arc::new(CountingDriver {
                inner: ShmDriver::new(rt.clone()),
                wire: wire.clone(),
            });
            sb.network(name, driver, &members)
        })
        .collect();
    sb.vchannel(
        "vc",
        &nets,
        VcOptions {
            gateway: GatewayConfig {
                credit_window: Some(WINDOW),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    sb
}

#[test]
fn one_small_message_is_one_packet_per_hop_and_no_grant() {
    let wire = Wire::default();
    let (_, gateways) = chain(&wire).run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        let mut payload = [0x42u8; 64];
        match node.rank().0 {
            0 => {
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                w.end_packing().unwrap();
            }
            2 => {
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert_eq!(payload, [0x42u8; 64]);
            }
            _ => {}
        }
    });
    assert_eq!(wire.edge(0, 1).sent(), 1, "sender → gateway");
    assert_eq!(wire.edge(1, 2).sent(), 1, "gateway → receiver");
    assert_eq!(
        wire.edge(1, 2).owned.load(Ordering::SeqCst),
        1,
        "the frame leaves as the buffer it landed in"
    );
    assert_eq!(wire.edge(1, 0).sent(), 0, "gateway → sender (grants)");
    assert_eq!(wire.edge(2, 1).sent(), 0, "receiver → gateway");
    let totals = gateways[0].2.totals();
    assert_eq!((totals.fragments, totals.credits_granted), (1, 0));
    assert_eq!((totals.errors, totals.cancelled), (0, 0));
}

/// A bulk message pays for its credits by the half window: sixteen
/// fragments under a window of eight come back as four credit packets —
/// fewer if the last one races the sender's exit — and every fragment
/// crosses the gateway in the buffer it arrived in.
#[test]
fn bulk_message_returns_credits_by_the_half_window() {
    const MIB: usize = 1 << 20;
    let wire = Wire::default();
    let (_, gateways) = chain(&wire).run_with_gateway_stats(|node| {
        let vc = node.vchannel("vc");
        let mut payload = vec![0x42u8; MIB];
        match node.rank().0 {
            0 => {
                let mut w = vc.begin_packing(NodeId(2)).unwrap();
                w.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                w.end_packing().unwrap();
            }
            2 => {
                payload.fill(0);
                let mut r = vc.begin_unpacking().unwrap();
                r.unpack(&mut payload, SendMode::Cheaper, RecvMode::Cheaper)
                    .unwrap();
                r.end_unpacking().unwrap();
                assert!(payload.iter().all(|&b| b == 0x42));
            }
            _ => {}
        }
    });
    let totals = gateways[0].2.totals();
    assert_eq!(totals.fragments, 16, "1 MiB at the shm MTU");
    let grants = wire.edge(1, 0).sent();
    assert!(
        (1..=4).contains(&grants),
        "{grants} packets gateway → sender"
    );
    // The wire counts a send the library saw fail (the last grant may find
    // the sender gone); the engine counts the ones that left.
    assert!((1..=grants).contains(&totals.grants_sent));
    assert_eq!(
        totals.credits_granted,
        totals.grants_sent * (WINDOW / 2) as u64
    );
    let out = wire.edge(1, 2);
    let owned = out.owned.load(Ordering::SeqCst);
    assert!(owned >= 16, "{owned} of {} sends handed over", out.sent());
    assert_eq!(wire.edge(2, 1).sent(), 0, "receiver → gateway");
    assert_eq!((totals.errors, totals.cancelled), (0, 0));
}

/// An eager sender never waits for credits, so it never used to read its
/// conduit: every grant the gateway returned sat in the sender's receive
/// queue until teardown — memory linear in messages sent, and as many
/// buffers missing from the pool.
#[test]
fn eager_sender_backlog_stays_within_the_window() {
    const WARMUP: u32 = 1_000;
    const MESSAGES: u32 = 10_000;
    // Five fragments at the default shm MTU. Two used to be enough, when
    // every fragment but the one framed with the end brought its own
    // grant; credits now come back by the half window, so a live grant
    // takes half a window of fragments that leave ahead of the end — the
    // first four here, each a wire packet of its own.
    const FIVE_FRAGMENTS: usize = (WINDOW as usize / 2) * 64 * 1024 + 64;
    let wire = Wire::default();
    let grants = wire.edge(1, 0);
    let probe = grants.clone();
    let results = chain(&wire).run(move |node| {
        let vc = node.vchannel("vc");
        let pool = node.runtime().pool().clone();
        let mut small = [0x17u8; 64];
        let mut large = vec![0x71u8; FIVE_FRAGMENTS];
        let mut misses_when_warm = 0;
        let mut worst_backlog = 0;
        for i in 0..WARMUP + MESSAGES {
            if i == WARMUP {
                misses_when_warm = pool.stats().misses;
            }
            // Every 50th message is the long one.
            let long = i % 50 == 49;
            match node.rank().0 {
                0 => {
                    let data: &[u8] = if long { &large } else { &small };
                    let mut w = vc.begin_packing(NodeId(2)).unwrap();
                    w.pack(data, SendMode::Cheaper, RecvMode::Cheaper).unwrap();
                    w.end_packing().unwrap();
                    worst_backlog = worst_backlog.max(probe.backlog());
                }
                2 => {
                    let data: &mut [u8] = if long { &mut large } else { &mut small };
                    let mut r = vc.begin_unpacking().unwrap();
                    r.unpack(data, SendMode::Cheaper, RecvMode::Cheaper)
                        .unwrap();
                    r.end_unpacking().unwrap();
                }
                _ => {}
            }
            // Closed loop in strides, so the pool's working set is the
            // stride's, not the run's.
            if i % 16 == 15 {
                node.barrier().wait();
            }
        }
        (worst_backlog, pool.stats().misses - misses_when_warm)
    });
    let (worst_backlog, misses) = results[0];
    assert!(grants.sent() > 0, "five-fragment messages earn live grants");
    assert!(
        worst_backlog <= WINDOW as u64 && grants.backlog() <= WINDOW as u64,
        "grants pile up unread at the sender: {worst_backlog} at worst, {} at the end",
        grants.backlog()
    );
    // Unread grants are buffers that never come back: one miss per message
    // sent. A warm pool may still miss a few times when more buffers than
    // ever before happen to be in flight at once.
    assert!(misses < 16, "{misses} pool misses after warm-up");
}
