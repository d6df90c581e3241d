//! Virtual channels (paper §2.2).
//!
//! A virtual channel groups, for every network it spans, **two** real
//! channels: a *regular* channel for messages delivered to their final
//! destination and a *special* channel for messages that must cross a
//! gateway. When the application sends over the virtual channel, the
//! appropriate real channel is chosen dynamically from the routing table;
//! forwarded messages are encoded by the GTM so gateways can relay them
//! without knowing anything about the application.
//!
//! Messages always complete their last hop on the *regular* channel (the
//! multi-gateway disambiguation argument of §2.2.2), so a receiver cannot
//! tell from the channel alone whether a message was forwarded. On the
//! wire two framings coexist:
//!
//! * plain messages from non-gateway senders open with a one-byte
//!   [`NOTE_DIRECT`] packet ("we chose to transmit this information before
//!   the actual message body transmission") followed by the raw body;
//! * everything else — forwarded streams relayed by a gateway *and* direct
//!   messages sent by gateway-resident applications — is GTM version-2
//!   framed, every packet carrying its stream tag.
//!
//! Gateway-resident senders cannot use the plain framing: their node's
//! forwarding engine interleaves relayed packets on the same outgoing
//! conduits at fragment granularity, and a raw (non-self-described) body
//! in the middle of that stream would be unparseable. Their direct
//! messages therefore travel as GTM streams flagged *direct*, which keeps
//! `is_forwarded()` honest. The first byte disambiguates the two framings
//! (`NOTE_DIRECT` = 0, GTM magic = 0xAD).
//!
//! The receive side runs a small demultiplexer: packets are pumped one at
//! a time from ready conduits into a [`StreamAssembler`], which hands back
//! whole streams in header-arrival order. While a reader drains its
//! stream, packets of other interleaved streams arriving on the same
//! conduit are buffered, not lost. Fragment payloads are copied out of the
//! received packet into the application buffer; the copy is charged to the
//! cost model only on static-mode networks (matching the old direct
//! `recv_into` landing — on dynamic-mode networks it models the NIC
//! demultiplexing into a posted receive).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use mad_route::PathHop;
use mad_trace::{trace_count, trace_instant, trace_span, Tracer};

use crate::channel::Channel;
use crate::conduit::BufferMode;
use crate::control_plane::{recv_ready, ControlPlane, Dispatch};
use crate::credit::{cancel_error, FlowControl};
use crate::error::{MadError, Result};
use crate::flags::{RecvMode, SendMode};
use crate::gtm::{
    self, CancelReason, GtmHeader, GtmWriter, PacketBody, StreamAssembler, StreamItem, StreamKey,
    StreamTag,
};
use crate::message::{MessageReader, MessageWriter};
use crate::multipath::MultiPath;
use crate::types::{NetworkId, NodeId};

/// Note byte announcing a plain direct message (non-gateway senders only).
const NOTE_DIRECT: u8 = 0;

/// Receive-side demultiplexing state: the assembler plus, per stream, the
/// conduit it arrives on (so a reader knows where to pump for more).
struct Demux {
    asm: StreamAssembler,
    via: BTreeMap<StreamKey, (NetworkId, NodeId)>,
}

/// A virtual channel, seen from one node.
pub struct VirtualChannel {
    name: String,
    regular: BTreeMap<NetworkId, Arc<Channel>>,
    /// The node's control plane on this channel: its route table, its
    /// special channels, its ledger and ack table, and the optional
    /// telemetry and membership planes.
    ctl: Arc<ControlPlane>,
    mtu: usize,
    /// True when this node runs a forwarding engine for the channel; its
    /// direct sends must then be GTM-framed (see module docs).
    is_gateway: bool,
    /// Credit-based flow control for forwarded sends, when the session
    /// configured a window (see [`crate::credit`]).
    flow: Option<FlowControl>,
    /// The channel's shared multi-path routing plane, present when the
    /// topology has parallel gateways. `None` keeps every path below
    /// byte-identical to the single-path library.
    multipath: Option<Arc<MultiPath>>,
    next_msg_id: AtomicU32,
    demux: Mutex<Demux>,
    tracer: Tracer,
    /// Session buffer pool: received packets are adopted into it so their
    /// landing buffers recycle once the application consumes them.
    pool: Arc<mad_util::pool::BufferPool>,
}

impl std::fmt::Debug for VirtualChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualChannel")
            .field("name", &self.name)
            .field("rank", &self.ctl.rank())
            .field("networks", &self.regular.keys().collect::<Vec<_>>())
            .field("mtu", &self.mtu)
            .field("is_gateway", &self.is_gateway)
            .finish()
    }
}

impl VirtualChannel {
    /// Assemble a virtual channel (session-bootstrap use).
    pub(crate) fn assemble(
        name: String,
        regular: BTreeMap<NetworkId, Arc<Channel>>,
        ctl: Arc<ControlPlane>,
        mtu: usize,
        is_gateway: bool,
        flow: Option<FlowControl>,
        multipath: Option<Arc<MultiPath>>,
    ) -> Self {
        let tracer = regular
            .values()
            .next()
            .map(|c| c.tracer().clone())
            .unwrap_or_default();
        let pool = regular
            .values()
            .next()
            .map(|c| c.runtime().pool().clone())
            .unwrap_or_default();
        VirtualChannel {
            name,
            regular,
            ctl,
            mtu,
            is_gateway,
            flow,
            multipath,
            next_msg_id: AtomicU32::new(0),
            demux: Mutex::new(Demux {
                asm: StreamAssembler::with_pool(pool.clone()),
                via: BTreeMap::new(),
            }),
            tracer,
            pool,
        }
    }

    /// The virtual channel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The local rank.
    pub fn rank(&self) -> NodeId {
        self.ctl.rank()
    }

    /// The route-wide fragment size used for forwarded messages.
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Ranks reachable over this virtual channel.
    pub fn destinations(&self) -> Vec<NodeId> {
        self.ctl.plan().destinations().map(NodeId).collect()
    }

    /// True if messages to `dest` cross at least one gateway.
    pub fn is_forwarded(&self, dest: NodeId) -> Result<bool> {
        Ok(!self.ctl.hop(dest)?.last)
    }

    /// The channel's multi-path routing plane, present when some node's
    /// plan has two or more paths to a destination (per-path byte splits,
    /// selector counters, route plans).
    pub fn multipath(&self) -> Option<&Arc<MultiPath>> {
        self.multipath.as_ref()
    }

    /// This node's telemetry plane on the channel, when the session
    /// enabled live metrics: registry access plus the in-band
    /// [`crate::metrics_plane::MetricsPlane::pull`] of remote snapshots.
    pub fn metrics_plane(&self) -> Option<&Arc<crate::metrics_plane::MetricsPlane>> {
        self.ctl.metrics()
    }

    /// This node's membership plane on the channel, when the session
    /// enabled dynamic membership: the phase-logged
    /// [`crate::membership::MembershipPlane::join`] /
    /// [`crate::membership::MembershipPlane::leave`] /
    /// [`crate::membership::MembershipPlane::rejoin`] handshake plus the
    /// per-node epoch view.
    pub fn membership(&self) -> Option<&Arc<crate::membership::MembershipPlane>> {
        self.ctl.member()
    }

    /// Allocate the tag of a new outgoing stream.
    fn next_tag(&self, dest: NodeId) -> StreamTag {
        StreamTag {
            src: self.ctl.rank(),
            dest,
            msg_id: self.next_msg_id.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Begin a message to `dest`; transparently picks the direct path or
    /// the GTM + gateway path.
    pub fn begin_packing(&self, dest: NodeId) -> Result<VcWriter<'_, '_>> {
        let hop = self.ctl.hop(dest)?;
        let net = NetworkId(hop.net);
        if hop.last {
            let channel = self.regular.get(&net).ok_or(MadError::Unroutable(dest))?;
            if self.is_gateway {
                // The forwarding engine interleaves relayed packets on this
                // conduit, so the body must be self-described: send a GTM
                // stream flagged as direct instead of a raw message.
                // Direct streams never enter a forwarding engine, so no
                // hop buffers fragments and no flow control applies.
                let w = GtmWriter::begin(channel, dest, self.next_tag(dest), self.mtu, true, None)?;
                Ok(VcWriter::Gtm {
                    w,
                    forwarded: false,
                })
            } else {
                // Hold the conduit for the whole message: only this node's
                // application sends here, and the note + raw body must stay
                // contiguous because neither is self-described.
                let mut writer = channel.begin_packing_exclusive(dest)?;
                writer.send_control(&[&[NOTE_DIRECT]])?;
                Ok(VcWriter::Direct(writer))
            }
        } else {
            // Forwarded: with a multi-path plan of width ≥ 2 the stream
            // goes through the routing plane (adaptive path choice and
            // failover). A one-path plan falls through to the
            // legacy code below, keeping single-gateway sessions
            // byte-identical to the pre-multipath library. Gateway-resident
            // senders also fall through: their engine's polling threads own
            // the special conduits' receive sides, so a multi-path writer
            // here could never pump its own handoff acks.
            if let (Some(mp), false) = (&self.multipath, self.is_gateway) {
                if let Some(ch) = self.regular.values().next() {
                    mp.refresh(ch.runtime().now_nanos());
                }
                let paths: Vec<PathHop> = mp
                    .plan(self.ctl.rank())
                    .paths(dest.0)
                    .iter()
                    .filter(|h| self.ctl.special().contains_key(&NetworkId(h.net)))
                    .copied()
                    .collect();
                if paths.len() >= 2 {
                    return self.begin_adaptive(dest, mp.clone(), paths);
                }
            }
            let channel = self
                .ctl
                .special()
                .get(&net)
                .ok_or(MadError::Unroutable(dest))?;
            // On a gateway node the engine's polling threads own the
            // special conduits' receive sides and deposit arriving grants;
            // everywhere else the writer must pump its own conduit.
            let flow = self.flow.as_ref().map(|f| f.writer(!self.is_gateway));
            let w = GtmWriter::begin(
                channel,
                NodeId(hop.node),
                self.next_tag(dest),
                self.mtu,
                false,
                flow,
            )?;
            Ok(VcWriter::Gtm { w, forwarded: true })
        }
    }

    /// Start a per-stream adaptive multi-path message: the whole stream is
    /// bound to the cheapest live path now; a path fault mid-stream
    /// re-issues it on a surviving path (see [`MultipathWriter`]).
    fn begin_adaptive(
        &self,
        dest: NodeId,
        mp: Arc<MultiPath>,
        paths: Vec<PathHop>,
    ) -> Result<VcWriter<'_, '_>> {
        let hop = paths[0]; // placeholder; start() binds the real path
        let mut w = MultipathWriter {
            vc: self,
            mp,
            dest,
            tag: self.next_tag(dest),
            paths,
            packed: Vec::new(),
            inner: None,
            hop,
            tried: Vec::new(),
        };
        w.start(false)?;
        Ok(VcWriter::Multi(w))
    }

    /// Block until a whole message is available to start receiving: either
    /// a plain direct message or a GTM stream whose header has arrived.
    pub fn begin_unpacking(&self) -> Result<VcReader<'_>> {
        loop {
            if let Some((key, header, via)) = self.claim_ready_stream() {
                return Ok(VcReader::Gtm(GtmStreamReader {
                    vc: self,
                    key,
                    header,
                    via,
                    finished: false,
                    consumed: 0,
                    skip: 0,
                }));
            }
            let (net, peer) = self.select_any()?;
            let channel = &self.regular[&net];
            let packet = channel.lock_conduit(peer)?.recv_owned()?;
            channel.stats().on_recv(peer.0, packet.len());
            if packet.as_slice() == [NOTE_DIRECT] {
                drop(self.pool.adopt(packet)); // spent note: recycle
                return Ok(VcReader::Direct(channel.begin_unpacking_from(peer)?));
            }
            self.push_demux(net, peer, packet)?;
        }
    }

    /// Pop the oldest stream whose header has arrived, if any.
    fn claim_ready_stream(&self) -> Option<(StreamKey, GtmHeader, (NetworkId, NodeId))> {
        let mut d = self.demux.lock().unwrap();
        let key = d.asm.pop_ready()?;
        let header = d.asm.header(key).expect("ready stream has a header");
        let via = d.via[&key];
        Some((key, header, via))
    }

    /// Feed one received packet into the demultiplexer. Batch frames split
    /// into several packets and may open several streams at once.
    fn push_demux(&self, net: NetworkId, peer: NodeId, packet: Vec<u8>) -> Result<()> {
        trace_count!(self.tracer, "gtm", "decode", 1);
        // With a routing plane each stream is pinned to the conduit its
        // header arrived on, so stale packets of a failed-over attempt
        // (still in flight on the old path) are dropped, not interleaved.
        let origin = if self.multipath.is_some() {
            ((net.0 as u64 + 1) << 32) | peer.0 as u64
        } else {
            0
        };
        let mut d = self.demux.lock().unwrap();
        for key in d.asm.push_packet_from(origin, self.pool.adopt(packet))? {
            d.via.insert(key, (net, peer));
        }
        Ok(())
    }

    /// Find a regular-channel conduit with a pending packet, scanning
    /// networks and peers in deterministic order.
    fn select_any(&self) -> Result<(NetworkId, NodeId)> {
        loop {
            let seen = self.ctl.event().epoch();
            let mut all_closed = true;
            for (&net, channel) in &self.regular {
                for peer in channel.peers() {
                    let c = channel.lock_conduit(peer)?;
                    if c.ready() {
                        return Ok((net, peer));
                    }
                    if !c.closed() {
                        all_closed = false;
                    }
                }
            }
            if all_closed {
                return Err(MadError::Disconnected);
            }
            self.ctl.event().wait_past(seen);
        }
    }
}

/// Writer over a virtual channel: either a plain message on the regular
/// channel or a GTM stream (toward a gateway, or direct-but-framed from a
/// gateway-resident sender).
pub enum VcWriter<'c, 'd> {
    /// Plain direct delivery on the shared network.
    Direct(MessageWriter<'c, 'd>),
    /// GTM-framed stream.
    Gtm {
        /// The stream writer.
        w: GtmWriter<'c>,
        /// True when the stream actually crosses a gateway.
        forwarded: bool,
    },
    /// Adaptive multi-path GTM stream: bound to one gateway path now,
    /// re-issued on a surviving path if that gateway dies mid-stream.
    Multi(MultipathWriter<'c, 'd>),
}

impl<'d> VcWriter<'_, 'd> {
    /// Append a data block (`mad_pack`).
    pub fn pack(&mut self, data: &'d [u8], send: SendMode, recv: RecvMode) -> Result<()> {
        match self {
            VcWriter::Direct(w) => w.pack(data, send, recv),
            VcWriter::Gtm { w, .. } => w.pack(data, send, recv),
            VcWriter::Multi(w) => w.pack(data, send, recv),
        }
    }

    /// Finalize the message.
    pub fn end_packing(self) -> Result<()> {
        match self {
            VcWriter::Direct(w) => w.end_packing(),
            VcWriter::Gtm { w, .. } => w.end_packing(),
            VcWriter::Multi(w) => w.end_packing(),
        }
    }

    /// True if this message crosses a gateway.
    pub fn is_forwarded(&self) -> bool {
        matches!(
            self,
            VcWriter::Gtm {
                forwarded: true,
                ..
            } | VcWriter::Multi(_)
        )
    }
}

/// How long a multi-path sender waits for the first-hop gateway's handoff
/// acknowledgment after the stream's end packet. Expiry means the gateway
/// died after accepting the stream — the sender marks the path dead and
/// re-issues on a survivor.
const ACK_TIMEOUT_NS: u64 = 500_000_000;

/// True when a send error means *this path* is unusable (the stream can be
/// re-issued on another path) rather than the stream itself being invalid.
fn is_path_fault(e: &MadError) -> bool {
    matches!(
        e,
        MadError::PeerUnreachable(_) | MadError::CreditTimeout { .. }
    )
}

/// Per-stream adaptive multi-path writer. The stream is an ordinary GTM
/// stream bound to the gateway the selector deems cheapest; every packed
/// block is also remembered (by reference — `pack` data must outlive the
/// writer anyway) so that, if the bound gateway dies mid-stream, the whole
/// stream can be re-issued from scratch on a surviving path with the
/// header's retry flag set. The receiver's assembler grafts the retry over
/// the partial first attempt, and readers skip the already-consumed prefix
/// of the replay ([`StreamItem::Restart`]).
pub struct MultipathWriter<'c, 'd> {
    vc: &'c VirtualChannel,
    mp: Arc<MultiPath>,
    dest: NodeId,
    tag: StreamTag,
    paths: Vec<PathHop>,
    /// Blocks packed so far, for failover replay.
    packed: Vec<(&'d [u8], SendMode, RecvMode)>,
    inner: Option<GtmWriter<'c>>,
    /// The path the live attempt is bound to (gateway rank + network).
    hop: PathHop,
    /// Gateways that already failed this stream (never re-chosen).
    tried: Vec<u32>,
}

impl<'d> MultipathWriter<'_, 'd> {
    /// Bind the stream to the cheapest live untried path and stage its
    /// header there. Nothing reaches the wire yet: a dead path shows at the
    /// writer's first flush, inside `pack` or `end_packing`, whose path
    /// faults drive [`Self::failover`]. Only running out of paths fails.
    fn start(&mut self, retry: bool) -> Result<()> {
        let Some(hop) = self.mp.choose(self.dest, &self.paths, &self.tried) else {
            return Err(MadError::PeerUnreachable(self.dest));
        };
        let channel = &self.vc.ctl.special()[&NetworkId(hop.net)];
        let flow = self.vc.flow.as_ref().map(|f| f.writer(!self.vc.is_gateway));
        // Request a handoff ack: the retry machinery can then also cover a
        // gateway that dies *after* accepting the whole stream but before
        // relaying its tail.
        let attempt = GtmWriter::begin_attempt(
            channel,
            NodeId(hop.node),
            self.tag,
            self.vc.mtu,
            false,
            retry,
            true,
            flow,
        );
        match attempt {
            Ok(w) => {
                self.inner = Some(w);
                self.hop = hop;
                if retry {
                    self.mp.note_failover();
                    trace_instant!(
                        self.vc.tracer,
                        "route",
                        "failover",
                        "gateway" = hop.node as u64,
                    );
                }
                Ok(())
            }
            Err(e) => {
                self.mp.complete(hop.node);
                Err(e)
            }
        }
    }

    /// The bound gateway died: retire it, re-issue the stream (retry
    /// header + replay of every packed block) on a surviving path.
    fn failover(&mut self) -> Result<()> {
        // The failed inner writer sealed itself on its error path.
        self.inner = None;
        self.mp.mark_dead(self.hop.node);
        self.mp.complete(self.hop.node);
        self.tried.push(self.hop.node);
        loop {
            self.start(true)?;
            match self.replay() {
                Ok(()) => return Ok(()),
                Err(e) if is_path_fault(&e) => {
                    self.inner = None;
                    self.mp.mark_dead(self.hop.node);
                    self.mp.complete(self.hop.node);
                    self.tried.push(self.hop.node);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-pack every block of the stream on the freshly bound path.
    fn replay(&mut self) -> Result<()> {
        let w = self.inner.as_mut().expect("replay without a live attempt");
        for &(data, send, recv) in &self.packed {
            w.pack(data, send, recv)?;
        }
        Ok(())
    }

    fn pack(&mut self, data: &'d [u8], send: SendMode, recv: RecvMode) -> Result<()> {
        loop {
            let w = self.inner.as_mut().expect("pack on a finished stream");
            match w.pack(data, send, recv) {
                Ok(()) => {
                    self.packed.push((data, send, recv));
                    return Ok(());
                }
                // After a successful failover the replay covered `packed`
                // but not this block: loop to retry it on the new path.
                Err(e) if is_path_fault(&e) => self.failover()?,
                Err(e) => {
                    self.mp.complete(self.hop.node);
                    return Err(e);
                }
            }
        }
    }

    /// Finish the stream: send the end packet, then wait for the first-hop
    /// gateway's handoff ack. The ack (sent only after the gateway has
    /// retransmitted the end) closes the last failure window — a gateway
    /// that accepted the whole stream and died before relaying it would
    /// otherwise lose the stream with no one noticing. An ack deadline or
    /// a returning cancel marks the path dead and re-issues the stream on
    /// a survivor; the receiver absorbs replays of streams that did arrive
    /// (the ack, not the stream, was lost) as ghosts.
    fn end_packing(mut self) -> Result<()> {
        loop {
            let w = self.inner.take().expect("stream already finished");
            match w.end_packing().and_then(|()| self.wait_ack()) {
                Ok(()) => {
                    self.mp.complete(self.hop.node);
                    let bytes: u64 = self.packed.iter().map(|(d, _, _)| d.len() as u64).sum();
                    self.mp.note_bytes(self.hop.node, bytes);
                    return Ok(());
                }
                Err(e) if is_path_fault(&e) => self.failover()?,
                Err(e) => {
                    self.mp.complete(self.hop.node);
                    return Err(e);
                }
            }
        }
    }

    /// Pump the bound path's special conduit until the gateway's handoff
    /// ack for this stream arrives. This stream's own ack and cancel are
    /// this wait's business; everything else read on the way — other
    /// streams' flow control, other writers' acks, metrics and membership
    /// traffic — goes to the node's control plane. Another reader (the
    /// responder, a pumping writer, a gateway's polling thread) may have
    /// taken our ack off the conduit first: it parked it in the plane's
    /// ack table and bumped the plane's event, which is the event this
    /// wait sleeps on — on an endpoint also the event the conduit's
    /// arrivals bump — so the claim at the top of the loop always runs.
    /// Deadline expiry means the gateway died holding the stream.
    fn wait_ack(&self) -> Result<()> {
        let key = self.tag.key();
        let r = self.wait_ack_inner(key);
        // Either way this stream is done waiting: a late ack parked under
        // its key would otherwise sit in the table until evicted.
        self.vc.ctl.take_ack(key);
        r
    }

    fn wait_ack_inner(&self, key: StreamKey) -> Result<()> {
        let ctl = &self.vc.ctl;
        let channel = &ctl.special()[&NetworkId(self.hop.net)];
        let peer = NodeId(self.hop.node);
        let runtime = channel.runtime();
        let deadline = runtime.now_nanos().saturating_add(ACK_TIMEOUT_NS);
        loop {
            let seen = ctl.event().epoch();
            if ctl.take_ack(key) {
                return Ok(());
            }
            while let Some((tag, body, packet)) = recv_ready(channel, peer)? {
                match body {
                    PacketBody::Ack if tag.key() == key => return Ok(()),
                    PacketBody::Cancel(reason) if tag.key() == key => {
                        return Err(cancel_error(reason, &self.tag));
                    }
                    _ => {}
                }
                if ctl.dispatch(&tag, &body, &packet) == Dispatch::NotControl {
                    return Err(MadError::Protocol(format!(
                        "unexpected {body:?} while awaiting a handoff ack"
                    )));
                }
            }
            let now = runtime.now_nanos();
            if now >= deadline {
                return Err(MadError::PeerUnreachable(peer));
            }
            ctl.event().wait_past_timeout(seen, deadline - now);
        }
    }
}

/// Reader of one GTM stream, pulling items from the channel demultiplexer
/// and pumping the stream's conduit when it runs dry. Packets of *other*
/// streams encountered while pumping are buffered for their own readers.
pub struct GtmStreamReader<'c> {
    vc: &'c VirtualChannel,
    key: StreamKey,
    header: GtmHeader,
    via: (NetworkId, NodeId),
    finished: bool,
    /// Items already handed to the caller, so a multi-path failover replay
    /// ([`StreamItem::Restart`]) can skip the same deterministic prefix.
    consumed: u64,
    /// Items of the current replay still to swallow silently.
    skip: u64,
}

impl GtmStreamReader<'_> {
    /// The original sender of the stream.
    pub fn source(&self) -> NodeId {
        self.header.tag.src
    }

    /// True if the stream crossed at least one gateway.
    pub fn is_forwarded(&self) -> bool {
        !self.header.direct
    }

    /// The stream was cancelled in flight: drop its demux state, seal the
    /// reader (no end packet will ever come) and build the typed error.
    fn cancel_cleanup(&mut self, reason: CancelReason) -> MadError {
        self.finished = true;
        let mut d = self.vc.demux.lock().unwrap();
        d.asm.finish(self.key);
        d.via.remove(&self.key);
        cancel_error(reason, &self.header.tag)
    }

    /// Next item of this stream, pumping conduits as needed. Without a
    /// routing plane only the stream's via-conduit is pumped; with one,
    /// any ready conduit is (a failover replay arrives on a path other
    /// than the one the header came in on).
    fn next_item(&mut self) -> Result<StreamItem> {
        loop {
            let buffered = self.vc.demux.lock().unwrap().asm.next_item(self.key);
            if let Some(item) = buffered {
                match item {
                    StreamItem::Restart => {
                        // The sender re-issued the stream from scratch:
                        // swallow the prefix this reader already consumed
                        // (fragmentation is deterministic, so the replay's
                        // items line up one-to-one with the originals).
                        self.skip = self.consumed;
                        continue;
                    }
                    item @ StreamItem::Cancelled(_) => return Ok(item),
                    item => {
                        if self.skip > 0 {
                            self.skip -= 1;
                            continue;
                        }
                        self.consumed += 1;
                        return Ok(item);
                    }
                }
            }
            let (net, peer) = if self.vc.multipath.is_some() {
                self.vc.select_any()?
            } else {
                self.via
            };
            let channel = &self.vc.regular[&net];
            let packet = channel.lock_conduit(peer)?.recv_owned()?;
            channel.stats().on_recv(peer.0, packet.len());
            if packet.as_slice() == [NOTE_DIRECT] {
                // The via peer interleaves GTM packets (it is a gateway or a
                // gateway-resident sender); a raw note here is a bug.
                drop(self.vc.pool.adopt(packet));
                return Err(MadError::Protocol(
                    "plain direct note interleaved with GTM stream packets".into(),
                ));
            }
            self.vc.push_demux(net, peer, packet)?;
        }
    }

    /// Receive the next block into `dst`, validating the self-description
    /// against the caller's expectation. Data is valid on return (the GTM
    /// is eager, so express semantics hold for every block).
    pub fn unpack(&mut self, dst: &mut [u8], send: SendMode, recv: RecvMode) -> Result<()> {
        let _reassemble = trace_span!(
            self.vc.tracer,
            "vc",
            "reassemble",
            "src" = self.header.tag.src.0 as u64,
            "bytes" = dst.len() as u64,
        );
        let desc = match self.next_item()? {
            StreamItem::Part(d) => d,
            StreamItem::Cancelled(reason) => return Err(self.cancel_cleanup(reason)),
            other => {
                return Err(MadError::Protocol(format!(
                    "expected GTM part descriptor, got {other:?}"
                )))
            }
        };
        if desc.len != dst.len() as u64 {
            return Err(MadError::SequenceMismatch(format!(
                "forwarded block is {} bytes, unpack expected {}",
                desc.len,
                dst.len()
            )));
        }
        if desc.send != send || desc.recv != recv {
            return Err(MadError::SequenceMismatch(format!(
                "forwarded block flags ({:?},{:?}) != unpack flags ({:?},{:?})",
                desc.send, desc.recv, send, recv
            )));
        }
        let channel = &self.vc.regular[&self.via.0];
        let charge_copies = channel.caps().mode == BufferMode::Static;
        let mut cursor = 0;
        while cursor < dst.len() {
            let payload_pkt = match self.next_item()? {
                StreamItem::Frag(p) => p,
                StreamItem::Cancelled(reason) => return Err(self.cancel_cleanup(reason)),
                other => {
                    return Err(MadError::Protocol(format!(
                        "expected GTM fragment, got {other:?}"
                    )))
                }
            };
            let payload = gtm::frag_payload(&payload_pkt);
            let end = cursor + payload.len();
            if end > dst.len() {
                return Err(MadError::Protocol(format!(
                    "fragment overruns its block: {} > {}",
                    end,
                    dst.len()
                )));
            }
            dst[cursor..end].copy_from_slice(payload);
            if charge_copies {
                channel.runtime().charge_copy(payload.len());
            }
            cursor = end;
        }
        Ok(())
    }

    /// Consume the end packet and drop the stream's demux state. Only a
    /// real end marks the stream *delivered* (so the assembler can absorb
    /// an ack-lost replay as a ghost); cancelled streams stay replayable.
    pub fn end_unpacking(mut self) -> Result<()> {
        self.finished = true;
        let item = self.next_item()?;
        let mut d = self.vc.demux.lock().unwrap();
        d.via.remove(&self.key);
        match item {
            StreamItem::End => {
                d.asm.finish_delivered(self.key);
                Ok(())
            }
            // Dropping the demux state is all the cleanup a cancelled
            // stream needs here.
            StreamItem::Cancelled(reason) => {
                d.asm.finish(self.key);
                Err(cancel_error(reason, &self.header.tag))
            }
            other => {
                d.asm.finish(self.key);
                Err(MadError::Protocol(format!(
                    "expected GTM end, got {other:?}"
                )))
            }
        }
    }
}

impl Drop for GtmStreamReader<'_> {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            panic!("GtmStreamReader dropped without end_unpacking");
        }
    }
}

/// Reader over a virtual channel: plain or GTM decoding, per the framing.
pub enum VcReader<'c> {
    /// The message came straight from its sender as a plain body.
    Direct(MessageReader<'c>),
    /// The message is a GTM stream (forwarded, or direct-but-framed).
    Gtm(GtmStreamReader<'c>),
}

impl VcReader<'_> {
    /// The original sender (for GTM streams, from the stream header).
    pub fn source(&self) -> NodeId {
        match self {
            VcReader::Direct(r) => r.source(),
            VcReader::Gtm(r) => r.source(),
        }
    }

    /// True if this message crossed a gateway.
    pub fn is_forwarded(&self) -> bool {
        match self {
            VcReader::Direct(_) => false,
            VcReader::Gtm(r) => r.is_forwarded(),
        }
    }

    /// Receive the next block (`mad_unpack`), mirroring the sender's flags.
    pub fn unpack(&mut self, dst: &mut [u8], send: SendMode, recv: RecvMode) -> Result<()> {
        match self {
            VcReader::Direct(r) => r.unpack(dst, send, recv),
            VcReader::Gtm(r) => r.unpack(dst, send, recv),
        }
    }

    /// Finalize the message.
    pub fn end_unpacking(self) -> Result<()> {
        match self {
            VcReader::Direct(r) => r.end_unpacking(),
            VcReader::Gtm(r) => r.end_unpacking(),
        }
    }
}
