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
//! ready peer deterministically.

use std::collections::BTreeMap;
use std::sync::Arc;

use mad_trace::{trace_span, ChannelStats, Tracer};

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
    conduits: BTreeMap<NodeId, RtLock<Box<dyn Conduit>>>,
    recv_event: Arc<dyn RtEvent>,
    runtime: Arc<dyn Runtime>,
    stats: Arc<ChannelStats>,
    tracer: Tracer,
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
                .map(|(k, v)| (k, RtLock::new(&*runtime, v)))
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
        let lock = self
            .conduits
            .get(&peer)
            .ok_or(MadError::UnknownPeer(peer))?;
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
        self.conduits.values().any(|c| c.lock().pending())
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
            let mut all_closed = !self.conduits.is_empty();
            let mut first_ready = None;
            let mut chosen = None;
            for (&peer, conduit) in &self.conduits {
                let c = conduit.lock();
                if c.ready() {
                    if first_ready.is_none() {
                        first_ready = Some(peer);
                    }
                    if chosen.is_none() && after.is_none_or(|a| peer > a) {
                        chosen = Some(peer);
                    }
                }
                if !c.closed() {
                    all_closed = false;
                }
            }
            if let Some(peer) = chosen.or(first_ready) {
                return Ok(peer);
            }
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
