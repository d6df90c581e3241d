//! Test-only loopback driver: a minimal in-crate conduit so the channel
//! and message layers can be unit-tested without any external driver
//! crate. Configurable capabilities let tests exercise gather limits, MTU
//! splitting, and static-buffer charging paths in isolation.

#![cfg(test)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use mad_util::pool::PooledBuf;
use mad_util::sync::{Mutex, Readiness};

use crate::conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
use crate::error::{MadError, Result};
use crate::runtime::{RtEvent, RtQueue, RtReceiver, RtSender, Runtime, StdRuntime};
use crate::types::NodeId;

/// A driver whose conduits are plain in-memory queues with configurable
/// capabilities.
pub struct MockDriver {
    pub caps: DriverCaps,
    runtime: Arc<dyn Runtime>,
    /// Where every packet handed whole to a conduit of this driver
    /// ([`Conduit::send_owned`]) lived, in send order.
    owned_sends: Arc<Mutex<Vec<usize>>>,
    /// Set: every send of this driver's conduits fails as toward a dead
    /// peer ([`MockDriver::fail_sends`]).
    failing: Arc<AtomicBool>,
    /// Pushes onto a receive queue of this driver's conduits: one per
    /// send, one per run ([`Conduit::send_owned_run`]).
    pushes: Arc<AtomicUsize>,
    /// Receives that took packets off such a queue: one per packet, or
    /// one per backlog ([`Conduit::recv_queued`]).
    receives: Arc<AtomicUsize>,
    /// Called at every send, before its packet is queued
    /// ([`MockDriver::at_send`]).
    at_send: Option<AtSend>,
}

/// What a test looks at as each packet reaches a conduit.
type AtSend = Arc<dyn Fn() + Send + Sync>;

impl MockDriver {
    pub fn new(caps: DriverCaps) -> Arc<Self> {
        Arc::new(MockDriver {
            caps,
            runtime: StdRuntime::shared(),
            owned_sends: Arc::default(),
            failing: Arc::default(),
            pushes: Arc::default(),
            receives: Arc::default(),
            at_send: None,
        })
    }

    /// A dynamic driver whose conduits call `f` at every send, before the
    /// packet is queued: what the sender's state is when a packet reaches
    /// the wire.
    pub fn at_send(f: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        let mut driver = Self::dynamic();
        Arc::get_mut(&mut driver).expect("a fresh driver").at_send = Some(Arc::new(f));
        driver
    }

    /// Queue pushes made so far by this driver's conduits.
    pub fn pushes(&self) -> usize {
        self.pushes.load(Ordering::SeqCst)
    }

    /// Receives made so far by this driver's conduits.
    pub fn receives(&self) -> usize {
        self.receives.load(Ordering::SeqCst)
    }

    /// From now on every send of this driver's conduits, those already
    /// connected included, fails with [`MadError::PeerUnreachable`].
    pub fn fail_sends(&self) {
        self.failing.store(true, Ordering::SeqCst);
    }

    /// Addresses of the packets sent through [`Conduit::send_owned`].
    pub fn owned_sends(&self) -> Vec<usize> {
        self.owned_sends.lock().clone()
    }

    pub fn dynamic() -> Arc<Self> {
        Self::new(DriverCaps {
            name: "mock-dyn",
            mode: BufferMode::Dynamic,
            max_gather: usize::MAX,
            max_packet: usize::MAX,
            preferred_mtu: 4096,
            queued_send: false,
        })
    }

    /// A dynamic driver that reports what a shared-memory FIFO does: every
    /// send is a queue push.
    pub fn queued() -> Arc<Self> {
        Self::new(DriverCaps {
            name: "mock-queued",
            queued_send: true,
            ..Self::dynamic().caps
        })
    }

    pub fn tiny_packets(max_packet: usize, max_gather: usize) -> Arc<Self> {
        Self::new(DriverCaps {
            name: "mock-tiny",
            mode: BufferMode::Dynamic,
            max_gather,
            max_packet,
            preferred_mtu: max_packet,
            queued_send: false,
        })
    }
}

impl Driver for MockDriver {
    fn caps(&self) -> DriverCaps {
        self.caps
    }

    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>) {
        let (tx_ab, rx_b) = RtQueue::with_event(&*self.runtime, usize::MAX, ev_b.clone());
        let (tx_ba, rx_a) = RtQueue::with_event(&*self.runtime, usize::MAX, ev_a.clone());
        (
            Box::new(MockConduit {
                caps: self.caps,
                tx: tx_ab,
                rx: rx_a,
                ev: ev_a,
                peer: b,
                sent_packets: 0,
                owned_sends: self.owned_sends.clone(),
                failing: self.failing.clone(),
                pushes: self.pushes.clone(),
                receives: self.receives.clone(),
                at_send: self.at_send.clone(),
            }),
            Box::new(MockConduit {
                caps: self.caps,
                tx: tx_ba,
                rx: rx_b,
                ev: ev_b,
                peer: a,
                sent_packets: 0,
                owned_sends: self.owned_sends.clone(),
                failing: self.failing.clone(),
                pushes: self.pushes.clone(),
                receives: self.receives.clone(),
                at_send: self.at_send.clone(),
            }),
        )
    }
}

pub struct MockConduit {
    caps: DriverCaps,
    tx: RtSender<Vec<u8>>,
    rx: RtReceiver<Vec<u8>>,
    ev: Arc<dyn RtEvent>,
    /// The far end, named by a send that fails toward it.
    peer: NodeId,
    /// Observable packet count, for grouping assertions.
    pub sent_packets: usize,
    owned_sends: Arc<Mutex<Vec<usize>>>,
    failing: Arc<AtomicBool>,
    pushes: Arc<AtomicUsize>,
    receives: Arc<AtomicUsize>,
    at_send: Option<AtSend>,
}

impl MockConduit {
    /// The error every send returns once [`MockDriver::fail_sends`] is set.
    fn dead_peer(&self) -> Result<()> {
        if self.failing.load(Ordering::SeqCst) {
            return Err(MadError::PeerUnreachable(self.peer));
        }
        Ok(())
    }

    /// Queue one packet for the peer.
    fn push(&mut self, packet: Vec<u8>) -> Result<()> {
        if let Some(f) = &self.at_send {
            f();
        }
        self.sent_packets += 1;
        self.pushes.fetch_add(1, Ordering::SeqCst);
        self.tx.push(packet).map_err(|_| MadError::Disconnected)
    }

    /// Block until something is queued, then take it with `take`.
    fn pop_with<T>(
        &mut self,
        mut take: impl FnMut(&RtReceiver<Vec<u8>>) -> Option<T>,
    ) -> Result<T> {
        loop {
            let seen = self.ev.epoch();
            if let Some(got) = take(&self.rx) {
                self.receives.fetch_add(1, Ordering::SeqCst);
                return Ok(got);
            }
            if self.rx.is_closed() {
                return Err(MadError::Disconnected);
            }
            self.ev.wait_past(seen);
        }
    }
}

impl Conduit for MockConduit {
    fn caps(&self) -> DriverCaps {
        self.caps
    }

    fn send(&mut self, parts: &[&[u8]]) -> Result<()> {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert!(total <= self.caps.max_packet, "packet over driver limit");
        assert!(parts.len() <= self.caps.max_gather, "gather over limit");
        self.dead_peer()?;
        let mut v = Vec::with_capacity(total);
        for p in parts {
            v.extend_from_slice(p);
        }
        self.push(v)
    }

    fn send_owned(&mut self, packet: PooledBuf) -> Result<()> {
        assert!(packet.len() <= self.caps.max_packet, "packet over limit");
        self.dead_peer()?;
        self.owned_sends.lock().push(packet.as_ptr() as usize);
        self.push(packet.detach())
    }

    fn send_owned_run(&mut self, packets: &mut Vec<PooledBuf>) -> Result<()> {
        let run = packets.drain(..);
        assert!(run
            .as_slice()
            .iter()
            .all(|p| p.len() <= self.caps.max_packet));
        self.dead_peer()?;
        self.sent_packets += run.len();
        self.pushes.fetch_add(1, Ordering::SeqCst);
        let mut owned = self.owned_sends.lock();
        let run = run.map(|packet| {
            owned.push(packet.as_ptr() as usize);
            packet.detach()
        });
        match self.tx.push_all(run) {
            true => Ok(()),
            false => Err(MadError::Disconnected),
        }
    }

    fn send_static(&mut self, buf: StaticBuf) -> Result<()> {
        self.dead_peer()?;
        self.push(buf.into_vec())
    }

    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf> {
        matches!(self.caps.mode, BufferMode::Static).then(|| StaticBuf::new(self.caps.name, len))
    }

    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize> {
        let p = self.recv_owned()?;
        if p.len() > dst.len() {
            return Err(MadError::BufferTooSmall {
                have: dst.len(),
                need: p.len(),
            });
        }
        dst[..p.len()].copy_from_slice(&p);
        Ok(p.len())
    }

    fn recv_owned(&mut self) -> Result<Vec<u8>> {
        self.pop_with(|rx| rx.try_pop())
    }

    fn recv_queued(&mut self, out: &mut VecDeque<Vec<u8>>) -> Result<()> {
        self.pop_with(|rx| (rx.try_pop_all(out) > 0).then_some(()))
    }

    fn ready(&self) -> bool {
        self.rx.has_pending()
    }

    fn closed(&self) -> bool {
        self.rx.is_closed()
    }

    fn readiness(&self) -> Option<Arc<Readiness>> {
        Some(self.rx.readiness())
    }

    fn recv_event(&self) -> Arc<dyn RtEvent> {
        self.ev.clone()
    }
}

/// Assemble a two-node channel pair over a mock driver, returning both
/// per-node channel views.
pub fn channel_pair(driver: Arc<dyn Driver>) -> (crate::Channel, crate::Channel) {
    use std::collections::BTreeMap;

    use crate::channel::Channel;
    use crate::types::{ChannelId, NetworkId};

    let rt = StdRuntime::shared();
    let (ev0, ev1) = (rt.event(), rt.event());
    let (c0, c1) = driver.connect(NodeId(0), NodeId(1), ev0.clone(), ev1.clone());
    let mk = |rank: u32, peer: u32, c: Box<dyn Conduit>, ev| {
        let mut m: BTreeMap<NodeId, Box<dyn Conduit>> = BTreeMap::new();
        m.insert(NodeId(peer), c);
        Channel::assemble(
            ChannelId(0),
            "mock",
            NetworkId(0),
            NodeId(rank),
            driver.caps(),
            m,
            ev,
            rt.clone(),
        )
    };
    (mk(0, 1, c0, ev0), mk(1, 0, c1, ev1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{RecvMode, SendMode};

    #[test]
    fn channel_round_trip_over_mock() {
        let (a, b) = channel_pair(MockDriver::dynamic());
        let h = std::thread::spawn(move || {
            let data = vec![3u8; 10_000];
            let mut w = a.begin_packing(NodeId(1)).unwrap();
            w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            a // keep alive until the receiver drains
        });
        let mut buf = vec![0u8; 10_000];
        let mut r = b.begin_unpacking().unwrap();
        r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        r.end_unpacking().unwrap();
        assert!(buf.iter().all(|&x| x == 3));
        h.join().unwrap();
    }

    #[test]
    fn mtu_splits_into_expected_packet_count() {
        // 10 KB message over a 1 KB-packet driver: exactly 10 packets.
        let (a, b) = channel_pair(MockDriver::tiny_packets(1024, 16));
        let h = std::thread::spawn(move || {
            let data = vec![9u8; 10 * 1024];
            let mut w = a.begin_packing(NodeId(1)).unwrap();
            w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            a
        });
        let mut buf = vec![0u8; 10 * 1024];
        let mut r = b.begin_unpacking().unwrap();
        r.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        r.end_unpacking().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn aggregation_groups_small_blocks_into_one_packet() {
        // Three deferred blocks must leave as ONE wire packet; an express
        // block forces its own flush.
        let (a, b) = channel_pair(MockDriver::dynamic());
        let h = std::thread::spawn(move || {
            let (x, y, z) = ([1u8; 10], [2u8; 20], [3u8; 30]);
            let mut w = a.begin_packing(NodeId(1)).unwrap();
            w.pack(&x, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.pack(&y, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.pack(&z, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            a
        });
        // The receiver sees exactly one wire packet of 60 bytes.
        let a_back = h.join().unwrap();
        let mut raw = b.lock_conduit(NodeId(0)).unwrap();
        let pkt = raw.recv_owned().unwrap();
        assert_eq!(pkt.len(), 60, "deferred blocks must aggregate");
        assert!(!raw.ready(), "exactly one packet expected");
        drop(raw);
        drop(a_back);
    }

    #[test]
    fn express_blocks_flush_separately() {
        let (a, b) = channel_pair(MockDriver::dynamic());
        let h = std::thread::spawn(move || {
            let (x, y) = ([1u8; 8], [2u8; 8]);
            let mut w = a.begin_packing(NodeId(1)).unwrap();
            w.pack(&x, SendMode::Later, RecvMode::Express).unwrap();
            w.pack(&y, SendMode::Later, RecvMode::Cheaper).unwrap();
            w.end_packing().unwrap();
            a
        });
        let a_back = h.join().unwrap();
        let mut raw = b.lock_conduit(NodeId(0)).unwrap();
        assert_eq!(raw.recv_owned().unwrap().len(), 8, "express flushed alone");
        assert_eq!(raw.recv_owned().unwrap().len(), 8, "second group");
        drop(raw);
        drop(a_back);
    }

    #[test]
    fn select_ready_prefers_lowest_rank() {
        // With one peer there is no choice, but the call must return that
        // peer and not block once a packet is pending.
        let (a, b) = channel_pair(MockDriver::dynamic());
        a.send_packet(NodeId(1), &[b"ping"]).unwrap();
        assert_eq!(
            b.select_ready_after(None, || false, || None).unwrap(),
            NodeId(0)
        );
        // Drain to keep the teardown clean.
        let _ = b.lock_conduit(NodeId(0)).unwrap().recv_owned();
        drop(a);
    }
}
