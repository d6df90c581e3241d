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
//! The receive side runs a small demultiplexer. Every packet a reader
//! receives lands, under its conduit's lock, at the back of a FIFO of
//! landed packets tagged with their conduit; a conduit whose peer is a
//! gateway of the channel gives its whole backlog in one receive
//! ([`crate::conduit::Conduit::recv_queued`]) when it is a queue of owned
//! packets and one is queued, every other conduit one packet a receive.
//! Readers take the FIFO in order into a [`StreamAssembler`], which hands
//! back whole streams in header-arrival order. While a reader drains its
//! stream, packets of other interleaved streams arriving on the same
//! conduit are buffered, not lost. A batch frame that is one whole stream
//! (every writer's small message, which each gateway passes on as it
//! landed) skips the assembler when no stream waits ahead of it, its key
//! is not open there and its header is not a retry: the reader keeps the
//! landed buffer and reads the stream from it in place, so the message is
//! not split, copied into pooled packets or queued. Fragment payloads are
//! copied out of the received packet, or the frame, into the application
//! buffer; the copy is charged to the cost model only on static-mode
//! networks (matching the old direct `recv_into` landing — on dynamic-mode
//! networks it models the NIC demultiplexing into a posted receive).

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mad_route::PathHop;
use mad_trace::{trace_count, trace_instant, trace_span, Tracer};
use mad_util::pool::PooledBuf;

use crate::channel::{Channel, Scan};
use crate::conduit::{BufferMode, Conduit};
use crate::control_plane::{recv_ready, ControlPlane, Dispatch};
use crate::credit::{cancel_error, FlowControl};
use crate::error::{MadError, Result};
use crate::flags::{RecvMode, SendMode};
use crate::gtm::{
    self, CancelReason, GtmHeader, GtmWriter, PacketBody, StreamAssembler, StreamItem, StreamKey,
    StreamTag, PRELUDE_LEN,
};
use crate::message::{MessageReader, MessageWriter};
use crate::multipath::MultiPath;
use crate::types::{NetworkId, NodeId};

/// Note byte announcing a plain direct message (non-gateway senders only).
const NOTE_DIRECT: u8 = 0;

/// A stream to start reading: its header, its conduit, and the frame it
/// is read from in place, if it is.
type NextStream = (GtmHeader, (NetworkId, NodeId), Option<Vec<u8>>);

/// Receive-side demultiplexing state: the assembler plus, per stream it
/// holds, the conduit it arrives on (so a reader knows where to pump for
/// more), and the packets received but not yet taken. A stream read in
/// place is in none of them once taken.
struct Demux {
    asm: StreamAssembler,
    via: BTreeMap<StreamKey, (NetworkId, NodeId)>,
    /// Received packets with their conduits, in arrival order. A packet
    /// enters under its conduit's lock, so each conduit's packets stand in
    /// conduit order; they leave from the front, or as the first of their
    /// conduit.
    landed: VecDeque<(Vec<u8>, (NetworkId, NodeId))>,
    /// Where a conduit's backlog is received before it moves to `landed`,
    /// kept so that a landing allocates nothing once warm.
    backlog: VecDeque<Vec<u8>>,
    /// Since the demultiplexer was last let go of through
    /// [`VirtualChannel::release`], a packet was landed, or a fed one
    /// opened a stream (was fed at all, with a routing plane).
    fresh: bool,
}

impl Demux {
    /// Land a packet received from `via` at the back of the FIFO.
    fn land(&mut self, packet: Vec<u8>, via: (NetworkId, NodeId)) {
        self.landed.push_back((packet, via));
        self.fresh = true;
    }

    /// Take the first landed packet that `from` accepts.
    fn take_landed(
        &mut self,
        from: impl Fn((NetworkId, NodeId)) -> bool,
    ) -> Option<(Vec<u8>, (NetworkId, NodeId))> {
        let at = self.landed.iter().position(|&(_, via)| from(via))?;
        self.landed.remove(at)
    }
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
    /// The channel's gateways. Everything one sends here is GTM-framed
    /// (never a [`NOTE_DIRECT`] and its raw body), so a reader may take
    /// a gateway's whole backlog at once.
    gateways: Vec<NodeId>,
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
        gateways: Vec<NodeId>,
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
            is_gateway: gateways.contains(&ctl.rank()),
            gateways,
            ctl,
            mtu,
            flow,
            multipath,
            next_msg_id: AtomicU32::new(0),
            demux: Mutex::new(Demux {
                asm: StreamAssembler::with_pool(pool.clone()),
                via: BTreeMap::new(),
                landed: VecDeque::new(),
                backlog: VecDeque::new(),
                fresh: false,
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
    ///
    /// It claims a ready stream first, then takes the landed packets in
    /// order, and receives only when none is left. A batch frame that is
    /// one whole stream ([`gtm::whole_stream`]) is read in place, past the
    /// assembler, when the assembler admits it
    /// ([`StreamAssembler::admits_in_place`]): the reader then owns the
    /// landed buffer and decodes the stream from it.
    pub fn begin_unpacking(&self) -> Result<VcReader<'_>> {
        loop {
            let mut d = self.demux.lock().unwrap();
            if let Some(next) = self.next_stream(&mut d)? {
                self.release(d, ());
                return Ok(self.stream_reader(next));
            }
            // Read before this reader lets go of the demultiplexer, where
            // it found nothing: a reader that leaves packets there after
            // it bumps the event past this.
            let seen = self.ctl.event().epoch();
            self.release(d, ());
            let Some((net, peer)) = self.select_any(seen)? else {
                continue;
            };
            let channel = &self.regular[&net];
            // Held until what it gives is in the demultiplexer, so that a
            // second reader cannot receive and land the next packet of the
            // same stream before it (lock order: conduit, then demux).
            let mut conduit = channel.lock_conduit(peer)?;
            let mut d = self.demux.lock().unwrap();
            // Packets another reader landed while this one waited are
            // taken before anything is received.
            if d.landed.is_empty() && !self.land_backlog(&mut d, net, peer, &mut **conduit)? {
                drop(d);
                // Another reader may have taken what the scan saw while
                // this one waited for the lock: scan again rather than
                // block here, for what this reader waits for may come on
                // another conduit.
                if !conduit.ready() {
                    continue;
                }
                let packet = conduit.recv_owned()?;
                channel.stats().on_recv(peer.0, packet.len());
                if packet.as_slice() == [NOTE_DIRECT] {
                    drop(conduit);
                    drop(self.pool.adopt(packet)); // spent note: recycle
                    return Ok(VcReader::Direct(channel.begin_unpacking_from(peer)?));
                }
                d = self.demux.lock().unwrap();
                d.land(packet, (net, peer));
            }
            // The demultiplexer is let go of before the conduit, whose
            // release bumps an event.
            let next = self.next_stream(&mut d);
            self.release(d, conduit);
            if let Some(next) = next? {
                return Ok(self.stream_reader(next));
            }
        }
    }

    /// The next stream to read: the oldest ready one, else the first
    /// landed packet that is a whole stream the assembler admits in place
    /// (with its frame), feeding every landed packet before it to the
    /// assembler in order. `None` once nothing is landed.
    fn next_stream(&self, d: &mut Demux) -> Result<Option<NextStream>> {
        loop {
            if let Some(key) = d.asm.pop_ready() {
                let header = d.asm.header(key).expect("ready stream has a header");
                return Ok(Some((header, d.via[&key], None)));
            }
            let Some((packet, (net, peer))) = d.take_landed(|_| true) else {
                return Ok(None);
            };
            if let Some(whole) = gtm::whole_stream(&packet) {
                if d.asm.admits_in_place(&whole.header) {
                    return Ok(Some((whole.header, (net, peer), Some(packet))));
                }
            }
            self.feed(d, net, peer, packet)?;
        }
    }

    /// The reader of a stream [`VirtualChannel::next_stream`] gave.
    fn stream_reader(&self, (header, via, frame): NextStream) -> VcReader<'_> {
        let frame = frame.map(|packet| {
            trace_count!(self.tracer, "gtm", "decode", 1);
            self.pool.adopt(packet)
        });
        VcReader::Gtm(GtmStreamReader::new(self, header, via, frame))
    }

    /// Land the whole backlog of the conduit to `peer` on `net` at the
    /// back of `d`'s FIFO, when that peer is one of the channel's gateways
    /// (whose every packet is GTM-framed), the conduit is a queue of owned
    /// packets and one is queued: the receive then cannot block, so it may
    /// run under the demultiplexer's lock. False, receiving nothing,
    /// otherwise. The caller holds the conduit's lock.
    fn land_backlog(
        &self,
        d: &mut Demux,
        net: NetworkId,
        peer: NodeId,
        conduit: &mut dyn Conduit,
    ) -> Result<bool> {
        if !(self.gateways.contains(&peer) && conduit.caps().queued_send && conduit.ready()) {
            return Ok(false);
        }
        let Demux {
            landed, backlog, ..
        } = d;
        // What was received is landed even when the receive then failed.
        let received = conduit.recv_queued(backlog);
        #[cfg(feature = "census")]
        crate::census::note_take(backlog.len());
        let stats = self.regular[&net].stats();
        for packet in backlog.drain(..) {
            stats.on_recv(peer.0, packet.len());
            landed.push_back((packet, (net, peer)));
        }
        d.fresh = true;
        received?;
        Ok(true)
    }

    /// Feed one received packet into the demultiplexer's assembler. Batch
    /// frames split into several packets and may open several streams at
    /// once.
    fn feed(&self, d: &mut Demux, net: NetworkId, peer: NodeId, packet: Vec<u8>) -> Result<()> {
        trace_count!(self.tracer, "gtm", "decode", 1);
        // With a routing plane each stream is pinned to the conduit its
        // header arrived on, so stale packets of a failed-over attempt
        // (still in flight on the old path) are dropped, not interleaved.
        let origin = if self.multipath.is_some() {
            ((net.0 as u64 + 1) << 32) | peer.0 as u64
        } else {
            0
        };
        let Demux {
            asm, via, fresh, ..
        } = d;
        let opened = asm.push_packet_from(origin, self.pool.adopt(packet))?;
        *fresh |= !opened.is_empty() || self.multipath.is_some();
        for key in opened.iter() {
            via.insert(key, (net, peer));
        }
        Ok(())
    }

    /// Let go of the demultiplexer, then of `also` (a conduit's lock, or
    /// `()`). When it is `fresh` and holds what another reader may take —
    /// a landed packet, a stream to claim, or with a routing plane any
    /// item, for its stream readers wait in [`VirtualChannel::select_any`]
    /// too — then bump the node's event: a reader asleep there scanned
    /// conduits that may be empty by now. A reader that goes on reading
    /// lets go with a plain drop and leaves the bump to its next release.
    fn release<T>(&self, mut d: MutexGuard<'_, Demux>, also: T) {
        let left = !d.landed.is_empty() || d.asm.has_ready() || self.multipath.is_some();
        let wake = std::mem::take(&mut d.fresh) && left;
        drop(d);
        drop(also);
        if wake {
            self.ctl.event().bump();
        }
    }

    /// A regular-channel conduit with a pending packet, scanning networks
    /// and peers in deterministic order. Reads readiness: locks no conduit
    /// ([`Channel::scan`]). While none has one, it waits once for the
    /// node's event to move past `seen`, which the caller read before it
    /// let go of the demultiplexer, where it found nothing to take, and
    /// scans again: `None` if still none has, for the bump may have been
    /// a reader's that left packets there ([`VirtualChannel::release`]),
    /// and the caller looks again.
    fn select_any(&self, seen: u64) -> Result<Option<(NetworkId, NodeId)>> {
        if let Some(ready) = self.scan_any()? {
            return Ok(Some(ready));
        }
        self.ctl.event().wait_past(seen);
        // Closed now is reported by the caller's next scan, once it has
        // looked at the demultiplexer again.
        Ok(self.scan_any().ok().flatten())
    }

    /// One scan of [`VirtualChannel::select_any`]: `Disconnected` when
    /// every conduit is closed.
    fn scan_any(&self) -> Result<Option<(NetworkId, NodeId)>> {
        let mut all_closed = true;
        for (&net, channel) in &self.regular {
            match channel.scan(None) {
                Scan::Ready(peer) => return Ok(Some((net, peer))),
                Scan::Idle => all_closed = false,
                Scan::Closed => {}
            }
        }
        if all_closed {
            return Err(MadError::Disconnected);
        }
        Ok(None)
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
        let selector = self.mp.selector();
        let Some(hop) = selector.choose(self.dest.0, &self.paths, &self.tried) else {
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
                    self.mp.selector().note_failover();
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
                self.mp.selector().complete(hop.node);
                Err(e)
            }
        }
    }

    /// The bound gateway died: retire it, re-issue the stream (retry
    /// header + replay of every packed block) on a surviving path.
    fn failover(&mut self) -> Result<()> {
        loop {
            // The failed inner writer sealed itself on its error path.
            self.inner = None;
            self.mp.selector().mark_dead(self.hop.node);
            self.mp.selector().complete(self.hop.node);
            self.tried.push(self.hop.node);
            self.start(true)?;
            match self.replay() {
                Err(e) if is_path_fault(&e) => continue,
                done => return done,
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
                    self.mp.selector().complete(self.hop.node);
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
                    self.mp.selector().complete(self.hop.node);
                    let bytes: u64 = self.packed.iter().map(|(d, _, _)| d.len() as u64).sum();
                    self.mp.note_bytes(self.hop.node, bytes);
                    return Ok(());
                }
                Err(e) if is_path_fault(&e) => self.failover()?,
                Err(e) => {
                    self.mp.selector().complete(self.hop.node);
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
/// A stream that arrived as one whole frame is read from that frame, in
/// place: nothing is pumped, split or copied before `unpack`.
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
    /// The whole-stream frame read in place, and the offset of its next
    /// packet's length prefix; `None` when the assembler holds the stream.
    frame: Option<(PooledBuf, usize)>,
}

/// One item of the stream a [`GtmStreamReader`] reads.
enum Item {
    /// As the assembler buffered it, or a descriptor or the end decoded
    /// from the frame read in place.
    Buffered(StreamItem),
    /// A fragment packet inside the frame read in place.
    InFrame(Range<usize>),
}

impl std::fmt::Debug for Item {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Item::Buffered(item) => item.fmt(f),
            Item::InFrame(at) => write!(f, "Frag({at:?})"),
        }
    }
}

impl<'c> GtmStreamReader<'c> {
    fn new(
        vc: &'c VirtualChannel,
        header: GtmHeader,
        via: (NetworkId, NodeId),
        frame: Option<PooledBuf>,
    ) -> Self {
        // A frame is read from the packet after its header.
        let frame = frame.map(|f| {
            let header = gtm::batch_entry(&f, PRELUDE_LEN).expect("a whole stream has a header");
            (f, header.end)
        });
        GtmStreamReader {
            vc,
            key: header.tag.key(),
            header,
            via,
            finished: false,
            consumed: 0,
            skip: 0,
            frame,
        }
    }
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
    /// than the one the header came in on). A frame read in place is
    /// decoded packet by packet; its end, the last, comes back every time
    /// it is asked for.
    fn next_item(&mut self) -> Result<Item> {
        if let Some((frame, at)) = &mut self.frame {
            let sub = gtm::batch_entry(frame, *at).expect("a whole stream ends in its frame");
            let (_, body) = gtm::decode_packet(&frame[sub.clone()])
                .expect("gtm::whole_stream decoded every packet");
            return Ok(match body {
                PacketBody::Part(d) => {
                    *at = sub.end;
                    Item::Buffered(StreamItem::Part(d))
                }
                PacketBody::Frag => {
                    *at = sub.end;
                    Item::InFrame(sub)
                }
                _ => Item::Buffered(StreamItem::End),
            });
        }
        loop {
            let mut d = self.vc.demux.lock().unwrap();
            while let Some(item) = self.buffered(&mut d)? {
                match item {
                    StreamItem::Restart => {
                        // The sender re-issued the stream from scratch:
                        // swallow the prefix this reader already consumed
                        // (fragmentation is deterministic, so the replay's
                        // items line up one-to-one with the originals).
                        self.skip = self.consumed;
                    }
                    item @ StreamItem::Cancelled(_) => {
                        self.vc.release(d, ());
                        return Ok(Item::Buffered(item));
                    }
                    _ if self.skip > 0 => self.skip -= 1,
                    item => {
                        self.vc.release(d, ());
                        self.consumed += 1;
                        return Ok(Item::Buffered(item));
                    }
                }
            }
            // With a routing plane this reader may wait in `select_any`
            // for items another lands: read as in `begin_unpacking`.
            let seen = self
                .vc
                .multipath
                .as_ref()
                .map(|_| self.vc.ctl.event().epoch());
            self.vc.release(d, ());
            let (net, peer) = match seen {
                Some(seen) => match self.vc.select_any(seen)? {
                    Some(ready) => ready,
                    None => continue,
                },
                None => self.via,
            };
            let channel = &self.vc.regular[&net];
            // Held across the landing, as in `begin_unpacking`.
            let mut conduit = channel.lock_conduit(peer)?;
            let mut d = self.vc.demux.lock().unwrap();
            // A second reader of this conduit may have landed its packets,
            // or this stream's next item, while this one waited for the
            // lock: take those before a receive, which would land the
            // conduit's next packets ahead of them or wait for a packet
            // that is already in. With a routing plane the scan chose
            // this conduit, and one that another reader emptied meanwhile
            // is scanned again, as in `begin_unpacking`.
            let waiting = d.landed.iter().any(|&(_, via)| via == (net, peer))
                || (!conduit.ready() && (seen.is_some() || d.asm.has_item(self.key)));
            if !waiting && !self.vc.land_backlog(&mut d, net, peer, &mut **conduit)? {
                drop(d);
                let packet = conduit.recv_owned()?;
                channel.stats().on_recv(peer.0, packet.len());
                if packet.as_slice() == [NOTE_DIRECT] {
                    // The via peer interleaves GTM packets (it is a gateway
                    // or a gateway-resident sender); a raw note here is a
                    // bug.
                    drop(self.vc.pool.adopt(packet));
                    return Err(MadError::Protocol(
                        "plain direct note interleaved with GTM stream packets".into(),
                    ));
                }
                d = self.vc.demux.lock().unwrap();
                d.land(packet, (net, peer));
            }
            drop(d);
            drop(conduit);
        }
    }

    /// This stream's next buffered item. While it has none, the landed
    /// packets of the conduit it arrives on (of any conduit, with a
    /// routing plane) are fed to the assembler, in order, until it has.
    fn buffered(&self, d: &mut Demux) -> Result<Option<StreamItem>> {
        loop {
            if let Some(item) = d.asm.next_item(self.key) {
                return Ok(Some(item));
            }
            let own = |via| self.vc.multipath.is_some() || via == self.via;
            let Some((packet, (net, peer))) = d.take_landed(own) else {
                return Ok(None);
            };
            self.vc.feed(d, net, peer, packet)?;
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
            Item::Buffered(StreamItem::Part(d)) => d,
            Item::Buffered(StreamItem::Cancelled(reason)) => {
                return Err(self.cancel_cleanup(reason))
            }
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
            let item = self.next_item()?;
            let payload = match &item {
                Item::Buffered(StreamItem::Frag(packet)) => gtm::frag_payload(packet),
                Item::InFrame(at) => {
                    let (frame, _) = self.frame.as_ref().expect("read in place from a frame");
                    gtm::frag_payload(&frame[at.clone()])
                }
                &Item::Buffered(StreamItem::Cancelled(reason)) => {
                    return Err(self.cancel_cleanup(reason))
                }
                other => {
                    return Err(MadError::Protocol(format!(
                        "expected GTM fragment, got {other:?}"
                    )))
                }
            };
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
    /// A stream read in place has no demux state; an acked one is still
    /// recorded as delivered.
    pub fn end_unpacking(mut self) -> Result<()> {
        self.finished = true;
        let item = self.next_item()?;
        if self.frame.is_some() {
            return match item {
                Item::Buffered(StreamItem::End) => {
                    // Only an acked stream is recorded: skip the lock.
                    if self.header.acked {
                        self.vc
                            .demux
                            .lock()
                            .unwrap()
                            .asm
                            .note_delivered(&self.header);
                    }
                    Ok(())
                }
                other => Err(MadError::Protocol(format!(
                    "expected GTM end, got {other:?}"
                ))),
            };
        }
        let mut d = self.vc.demux.lock().unwrap();
        d.via.remove(&self.key);
        match item {
            Item::Buffered(StreamItem::End) => {
                d.asm.finish_delivered(self.key);
                Ok(())
            }
            // Dropping the demux state is all the cleanup a cancelled
            // stream needs here.
            Item::Buffered(StreamItem::Cancelled(reason)) => {
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
