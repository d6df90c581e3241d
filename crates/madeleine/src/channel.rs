//! Channels and connections (paper §2.1.2).
//!
//! A [`Channel`] is a *closed world for communication*: it is bound to one
//! network (protocol + adapter) and owns one in-order point-to-point
//! connection ([`Conduit`]) per peer. In-order delivery is guaranteed only
//! within a channel, exactly as in Madeleine.
//!
//! The channel also provides the *message scrutation* primitive the paper's
//! gateway needs (§2.2.2): all conduits of one channel share an arrival
//! event, so a thread can block for "a packet from anyone" and then pick the
//! ready peer deterministically. The scan reads each conduit's
//! [`Readiness`], which its driver hands over once at assembly: it takes
//! no conduit lock, so a long send holding one conduit delays no scan, and
//! a scan that finds nothing costs one atomic load a peer.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use mad_trace::{trace_span, ChannelStats, Tracer};
use mad_util::pool::PooledBuf;
use mad_util::sync::Readiness;

use crate::conduit::{Conduit, DriverCaps};
use crate::error::{MadError, Result};
use crate::message::{MessageReader, MessageWriter};
use crate::runtime::{RtEvent, RtLock, RtLockGuard, Runtime};
use crate::types::{ChannelId, NetworkId, NodeId};

/// A communication channel over one network, seen from one node.
pub struct Channel {
    id: ChannelId,
    label: String,
    network: NetworkId,
    rank: NodeId,
    caps: DriverCaps,
    conduits: BTreeMap<NodeId, Link>,
    recv_event: Arc<dyn RtEvent>,
    runtime: Arc<dyn Runtime>,
    stats: Arc<ChannelStats>,
    tracer: Tracer,
}

/// One peer's conduit and what a scan asks of it.
struct Link {
    conduit: RtLock<Box<dyn Conduit>>,
    /// The conduit's [`Conduit::readiness`]; `None` for a conduit that
    /// offers none, which the scan then locks and asks.
    readiness: Option<Arc<Readiness>>,
}

impl Link {
    /// `(ready, closed)` right now, locking nothing when the conduit gave
    /// a readiness.
    fn probe(&self) -> (bool, bool) {
        match &self.readiness {
            Some(r) => {
                let ready = r.ready();
                (ready, !ready && r.closed())
            }
            None => {
                let c = self.conduit.lock();
                (c.ready(), c.closed())
            }
        }
    }
}

/// What one pass over a channel's conduits found.
pub(crate) enum Scan {
    /// This peer has a packet queued.
    Ready(NodeId),
    /// Nothing queued; some conduit may still receive.
    Idle,
    /// Every conduit is closed, or there is none.
    Closed,
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("id", &self.id)
            .field("label", &self.label)
            .field("network", &self.network)
            .field("rank", &self.rank)
            .field("driver", &self.caps.name)
            .field("peers", &self.peers().collect::<Vec<_>>())
            .finish()
    }
}

impl Channel {
    /// Assemble a channel from its conduits (session-bootstrap use).
    /// `label` names the channel in traces and counter dumps.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        id: ChannelId,
        label: impl Into<String>,
        network: NetworkId,
        rank: NodeId,
        caps: DriverCaps,
        conduits: BTreeMap<NodeId, Box<dyn Conduit>>,
        recv_event: Arc<dyn RtEvent>,
        runtime: Arc<dyn Runtime>,
    ) -> Self {
        let tracer = runtime.tracer();
        let peers: Vec<u32> = conduits.keys().map(|p| p.0).collect();
        Channel {
            id,
            label: label.into(),
            network,
            rank,
            caps,
            conduits: conduits
                .into_iter()
                .map(|(peer, conduit)| {
                    let link = Link {
                        readiness: conduit.readiness(),
                        conduit: RtLock::new(&*runtime, conduit),
                    };
                    (peer, link)
                })
                .collect(),
            recv_event,
            runtime,
            stats: Arc::new(ChannelStats::with_peers(&peers)),
            tracer,
        }
    }

    /// This channel's identifier.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The channel's label in traces and counter dumps.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Traffic counters for this channel (always live, cheap to read
    /// mid-run).
    pub fn stats(&self) -> &Arc<ChannelStats> {
        &self.stats
    }

    /// The tracer this channel records into (disabled unless the
    /// session's runtime was built with one).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The network this channel is bound to.
    pub fn network(&self) -> NetworkId {
        self.network
    }

    /// The local rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// Capabilities of the underlying driver.
    pub fn caps(&self) -> DriverCaps {
        self.caps
    }

    /// The execution runtime (cost accounting, events).
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.runtime
    }

    /// Peers reachable on this channel, in rank order.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.conduits.keys().copied()
    }

    /// Lock the conduit to `peer`. The lock blocks through the runtime so
    /// contention stays visible to a virtual clock. A contended acquire
    /// is recorded as a `conduit/hold-wait` span.
    pub(crate) fn lock_conduit(&self, peer: NodeId) -> Result<RtLockGuard<'_, Box<dyn Conduit>>> {
        let lock = &self
            .conduits
            .get(&peer)
            .ok_or(MadError::UnknownPeer(peer))?
            .conduit;
        if let Some(guard) = lock.try_lock() {
            return Ok(guard);
        }
        let _wait = trace_span!(self.tracer, "conduit", "hold-wait", "peer" = peer.0 as u64);
        Ok(lock.lock())
    }

    /// Send one raw packet to `peer` (control traffic: notes, GTM frames).
    pub(crate) fn send_packet(&self, peer: NodeId, parts: &[&[u8]]) -> Result<()> {
        let bytes: usize = parts.iter().map(|p| p.len()).sum();
        self.lock_conduit(peer)?.send(parts)?;
        self.stats.on_send(peer.0, bytes);
        Ok(())
    }

    /// Send one complete packet the caller gives up, as it is
    /// ([`Conduit::send_owned`]): a driver that queues owned buffers puts
    /// this very buffer on the wire instead of staging a copy.
    pub(crate) fn send_owned_packet(&self, peer: NodeId, packet: PooledBuf) -> Result<()> {
        let bytes = packet.len();
        self.lock_conduit(peer)?.send_owned(packet)?;
        self.stats.on_send(peer.0, bytes);
        Ok(())
    }

    /// Begin building a message for `dest` (the paper's
    /// `mad_begin_packing`). One message at a time per destination: packets
    /// of concurrently built messages to the same peer would interleave.
    pub fn begin_packing(&self, dest: NodeId) -> Result<MessageWriter<'_, '_>> {
        if !self.conduits.contains_key(&dest) {
            return Err(MadError::UnknownPeer(dest));
        }
        Ok(MessageWriter::new(self, dest))
    }

    /// Like [`Channel::begin_packing`], but holding the destination conduit
    /// exclusively until `end_packing`, so concurrent senders on the same
    /// conduit (the gateway engine) serialize at message granularity.
    pub fn begin_packing_exclusive(&self, dest: NodeId) -> Result<MessageWriter<'_, '_>> {
        MessageWriter::new_exclusive(self, dest)
    }

    /// Begin receiving a message from a specific peer
    /// (`mad_begin_unpacking` with a known source).
    pub fn begin_unpacking_from(&self, source: NodeId) -> Result<MessageReader<'_>> {
        if !self.conduits.contains_key(&source) {
            return Err(MadError::UnknownPeer(source));
        }
        Ok(MessageReader::new(self, source))
    }

    /// Block until any peer has a message headed our way, then begin
    /// receiving it. Peers are scanned in rank order for determinism.
    pub fn begin_unpacking(&self) -> Result<MessageReader<'_>> {
        let source = self.select_ready_after(None, || false, || None)?;
        Ok(MessageReader::new(self, source))
    }

    /// True if any conduit of this channel holds a received-but-unread
    /// packet right now, queued or still in the transport
    /// ([`Conduit::pending`]). The session-wide quiescence check scans
    /// this across every gateway's inbound channel at teardown: a gateway
    /// may not stop while a peer still has backlog queued for it to relay.
    pub(crate) fn has_pending(&self) -> bool {
        self.conduits.values().any(|l| l.conduit.lock().pending())
    }

    /// True if the conduit to `peer` has a packet queued right now. Takes
    /// no lock: a caller that then locks the conduit to receive asks the
    /// conduit again under its lock, as another reader may have taken
    /// the packet in between.
    pub(crate) fn ready(&self, peer: NodeId) -> Result<bool> {
        Ok(self
            .conduits
            .get(&peer)
            .ok_or(MadError::UnknownPeer(peer))?
            .probe()
            .0)
    }

    /// One pass over the conduits, waiting for nothing and locking none
    /// whose driver gave a [`Readiness`]: the first ready peer past
    /// `after`, wrapping, or the lowest ready one with no `after`.
    pub(crate) fn scan(&self, after: Option<NodeId>) -> Scan {
        // With no `after`, all of them from the lowest, then nothing
        // (no rank is below 0).
        let (past, upto) = match after {
            Some(a) => (Bound::Excluded(a), Bound::Included(a)),
            None => (Bound::Unbounded, Bound::Excluded(NodeId(0))),
        };
        let order = self
            .conduits
            .range((past, Bound::Unbounded))
            .chain(self.conduits.range((Bound::Unbounded, upto)));
        let mut all_closed = true;
        for (&peer, link) in order {
            let (ready, closed) = link.probe();
            if ready {
                return Scan::Ready(peer);
            }
            all_closed &= closed;
        }
        if all_closed {
            Scan::Closed
        } else {
            Scan::Idle
        }
    }

    /// Block until some conduit has a pending packet; returns its peer.
    /// The scan starts just past `after` and wraps, so a gateway polling
    /// loop that feeds back the previously served peer gives every
    /// inbound connection a fair turn at fragment granularity — a peer
    /// with a long stream of pending packets can no longer shadow
    /// higher-ranked peers. With no `after` it picks the lowest ready
    /// peer.
    ///
    /// Fails with [`MadError::Disconnected`] once every peer is gone, or
    /// when `stop` returns true and nothing is pending. Gateways need the
    /// latter: conduits are bidirectional, so two gateways listening on
    /// opposite ends of one channel keep each other's receive sides open
    /// forever — an external stop signal breaks the cycle at session
    /// teardown.
    ///
    /// `wait_timeout_ns` bounds each idle wait: `None` waits indefinitely;
    /// `Some(ns)` waits at most that long before rescanning; `Some(0)`
    /// gives up immediately with [`MadError::Disconnected`]. Gateways feed
    /// their teardown drain deadline through it, so a stream whose source
    /// died silently (and whose end packet will therefore never arrive)
    /// cannot hang the session forever.
    pub(crate) fn select_ready_after(
        &self,
        after: Option<NodeId>,
        stop: impl Fn() -> bool,
        wait_timeout_ns: impl Fn() -> Option<u64>,
    ) -> Result<NodeId> {
        loop {
            let seen = self.recv_event.epoch();
            let all_closed = match self.scan(after) {
                Scan::Ready(peer) => return Ok(peer),
                Scan::Idle => false,
                // A channel with no peer waits for `stop`.
                Scan::Closed => !self.conduits.is_empty(),
            };
            if all_closed || stop() {
                return Err(MadError::Disconnected);
            }
            match wait_timeout_ns() {
                None => {
                    self.recv_event.wait_past(seen);
                }
                Some(0) => return Err(MadError::Disconnected),
                Some(ns) => {
                    // Timeout or signal, either way rescan: the next turn
                    // of the loop re-evaluates the deadline.
                    let _ = self.recv_event.wait_past_timeout(seen, ns);
                }
            }
        }
    }

    /// The shared arrival event of this channel's conduits.
    pub fn recv_event(&self) -> &Arc<dyn RtEvent> {
        &self.recv_event
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::conduit::Driver;
    use crate::testutil::{channel_pair, MockDriver};

    /// A receive scan reads readiness; it does not queue behind a thread
    /// that holds the conduit, as a long send does. Asking the conduit
    /// under its lock, the scan waited for the holder to let go.
    #[test]
    fn a_scan_does_not_wait_for_a_conduit_holder() {
        let (a, b) = channel_pair(MockDriver::dynamic());
        std::thread::scope(|s| {
            let held = b.lock_conduit(NodeId(0)).unwrap();
            a.send_packet(NodeId(1), &[b"arrived"]).unwrap();
            let (tx, rx) = mpsc::channel();
            let b = &b;
            s.spawn(move || tx.send(b.select_ready_after(None, || false, || None)));
            let found = rx.recv_timeout(Duration::from_secs(5));
            drop(held);
            assert_eq!(
                found.ok().map(|r| r.ok()),
                Some(Some(NodeId(0))),
                "the scan waited for the conduit's holder"
            );
        });
        assert_eq!(
            b.lock_conduit(NodeId(0)).unwrap().recv_owned().unwrap(),
            b"arrived"
        );
    }

    /// The fair scan starts past the peer served last and wraps; it
    /// reports a closed channel only once every conduit is closed.
    #[test]
    fn scan_wraps_past_the_last_served_peer() {
        let driver = MockDriver::dynamic();
        let rt = crate::runtime::StdRuntime::shared();
        let ev = rt.event();
        let mut mine = BTreeMap::new();
        let mut theirs = Vec::new();
        for peer in 1..=3 {
            let (here, there) = driver.connect(NodeId(0), NodeId(peer), ev.clone(), rt.event());
            mine.insert(NodeId(peer), here);
            theirs.push(there);
        }
        let ch = Channel::assemble(
            ChannelId(0),
            "scan",
            NetworkId(0),
            NodeId(0),
            driver.caps,
            mine,
            ev,
            rt,
        );
        let ready = |after| match ch.scan(after) {
            Scan::Ready(peer) => Some(peer.0),
            _ => None,
        };
        assert!(matches!(ch.scan(None), Scan::Idle));
        theirs[0].send(&[b"1"]).unwrap();
        theirs[2].send(&[b"3"]).unwrap();
        assert_eq!(ready(None), Some(1));
        assert_eq!(ready(Some(NodeId(1))), Some(3));
        assert_eq!(ready(Some(NodeId(3))), Some(1), "wraps");
        assert_eq!(ready(Some(NodeId(2))), Some(3));
        drop(theirs);
        assert!(matches!(ch.scan(None), Scan::Ready(NodeId(1))));
        for peer in [1, 3] {
            ch.lock_conduit(NodeId(peer)).unwrap().recv_owned().unwrap();
        }
        assert!(matches!(ch.scan(Some(NodeId(2))), Scan::Closed));
    }
}
