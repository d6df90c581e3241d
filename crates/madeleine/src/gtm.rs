//! The Generic Transmission Module (paper §2.2.1, §2.3).
//!
//! Every message that must travel through at least two different networks
//! is handled by this module on *both* endpoints, guaranteeing that buffers
//! are grouped identically on both sides regardless of which BMMs the
//! underlying networks prefer — the gateway never regroups anything.
//!
//! The GTM also makes messages **self-described**, which regular Madeleine
//! messages are not: a gateway knows nothing about the messages it relays,
//! so each forwarded message carries its destination, the route-wide MTU,
//! and per-block size/flag descriptors.
//!
//! ## Wire format (version 2)
//!
//! Version 2 extends the self-description from the *message* level down to
//! the *packet* level: every packet — control and fragment alike — opens
//! with a fixed 15-byte prelude identifying the stream it belongs to:
//!
//! ```text
//! offset 0   GTM_MAGIC (0xAD)
//! offset 1   GTM_VERSION (2)
//! offset 2   kind: 1 = header, 2 = part descriptor, 3 = end, 4 = fragment,
//!            5 = credit, 6 = cancel, 7 = batch, 9 = handoff ack
//!            (8 and 12 are retired and rejected as unknown)
//! offset 3   source rank       (u32 LE)
//! offset 7   destination rank  (u32 LE)
//! offset 11  message id        (u32 LE, per-source counter)
//! ```
//!
//! followed by a kind-specific body:
//!
//! * **header** — route-wide MTU (u32 LE) + a flags byte (bit 0: the
//!   message is a *direct* delivery from a gateway-resident sender and
//!   never crossed a gateway; bit 1: *retry*, the stream re-issues an
//!   earlier failed attempt with the same tag and replaces its partial
//!   state; bit 2 is retired and rejected; bit 3: *acked*, the origin
//!   wants a handoff acknowledgment);
//! * **part** — block length (u64 LE) + emission/reception constraint
//!   bytes;
//! * **fragment** — raw block bytes (at most MTU of them) at offset 15;
//! * **end** — nothing ("the description of an empty message").
//!
//! Because each packet names its stream, packets from concurrent messages
//! may interleave freely on a shared conduit: gateways forward at fragment
//! granularity instead of draining one message at a time, and the receive
//! side demultiplexes with [`StreamAssembler`]. The conduit-atomicity invariant
//! (DESIGN §8.3 rule 2) consequently shrinks from
//! hold-the-conduit-per-message to hold-per-packet — each packet is sent as a single gather operation
//! under a single conduit-lock hold.
//!
//! The stream tag rides *inside* the fragment packet (as a gather prelude)
//! rather than as a separate control packet: per-packet send overhead on
//! the modeled networks is 20–60 µs, so a tag packet per fragment would
//! nearly double forwarding cost, while 15 extra bytes in-packet are noise.
//! The tag is route-invariant, which lets gateways relay packets verbatim
//! — the zero-copy forwarding matrix of §2.3 is unchanged.
//!
//! ## Batch frames
//!
//! A **batch** packet (kind 7, zero stream tag) carries a train of complete
//! GTM packets, each prefixed by its u32 LE length:
//!
//! ```text
//! offset 0   common prelude, kind = 7, src = dest = msg_id = 0
//! offset 15  len₀ (u32 LE) ‖ packet₀ ‖ len₁ (u32 LE) ‖ packet₁ ‖ …
//! ```
//!
//! It amortizes the per-send buffer-switch overhead — the paper's reason
//! for aggregating small buffers (§2.1.1, §3.3.1) — at every hop. The
//! sender builds the first train itself: [`GtmWriter`] stages a stream's
//! header, descriptors, end and every fragment small enough, and puts them
//! on the wire as one frame, so a small message is one wire packet, not
//! four. A gateway takes a received train apart (every packet obeys the
//! per-packet rules) and forwards what leaves the same way as one frame
//! again, within its *outgoing* driver's budget; packets that arrived
//! separately leave separately. The final receiver reads a frame that is
//! one whole stream ([`whole_stream`]) in place, and has its
//! [`StreamAssembler`] split every other back into packets. Batches never
//! nest, and a frame is a transport-hop artifact: above the GTM, and in
//! every stream's packet sequence, it is invisible.

#![deny(clippy::redundant_clone, clippy::large_types_passed_by_value)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mad_trace::{trace_count, trace_span};
use mad_util::pool::PooledBuf;

use crate::channel::Channel;
use crate::conduit::DriverCaps;
use crate::credit::WriterFlow;
use crate::error::{MadError, Result};
use crate::flags::{RecvMode, SendMode};
use crate::plan;
use crate::types::NodeId;

/// First byte of every GTM packet.
const GTM_MAGIC: u8 = 0xAD;
/// Wire-format version emitted and accepted by this module.
const GTM_VERSION: u8 = 2;
/// Length of the common packet prelude; also the fragment payload offset.
pub const PRELUDE_LEN: usize = 15;

pub(crate) const KIND_HEADER: u8 = 1;
pub(crate) const KIND_PART: u8 = 2;
pub(crate) const KIND_END: u8 = 3;
pub(crate) const KIND_FRAG: u8 = 4;
pub(crate) const KIND_CREDIT: u8 = 5;
pub(crate) const KIND_CANCEL: u8 = 6;
pub(crate) const KIND_BATCH: u8 = 7;
pub(crate) const KIND_ACK: u8 = 9;
pub(crate) const KIND_METRICS: u8 = 10;
pub(crate) const KIND_MEMBER: u8 = 11;

/// Direction byte of a kind-10 metrics packet: a snapshot request.
const METRICS_REQUEST: u8 = 1;
/// Direction byte of a kind-10 metrics packet: a snapshot reply.
const METRICS_REPLY: u8 = 2;

/// Full length of a kind-11 membership packet: prelude, event byte,
/// subject node (u32 LE), membership epoch (u64 LE).
const MEMBER_PACKET_LEN: usize = PRELUDE_LEN + 1 + 4 + 8;

/// Byte budget for the encoded snapshot a metrics reply carries. Bounded
/// so one reply always fits a single packet on every driver (the gateway
/// landing buffer is sized to accept [`METRICS_PACKET_MAX`]); the
/// snapshot encoder truncates to fit and flags it in-band.
pub const METRICS_MAX: usize = 2048;

/// Largest kind-10 packet: prelude, direction byte, full reply payload.
const METRICS_PACKET_MAX: usize = PRELUDE_LEN + 1 + METRICS_MAX;

/// Per-sub-packet framing overhead inside a batch frame (the u32 length
/// prefix). `PRELUDE_LEN + Σ (BATCH_ENTRY_OVERHEAD + lenᵢ)` is the full
/// frame size — senders use this to respect the conduit's packet limit.
pub const BATCH_ENTRY_OVERHEAD: usize = 4;

const HEADER_LEN: usize = PRELUDE_LEN + 5;
const PART_LEN: usize = PRELUDE_LEN + 10;
const CREDIT_LEN: usize = PRELUDE_LEN + 4;
const CANCEL_LEN: usize = PRELUDE_LEN + 1;

/// Flag bit: the stream is a direct (zero-gateway) delivery.
const FLAG_DIRECT: u8 = 1;
/// Flag bit: the stream re-issues a failed earlier attempt (same tag).
const FLAG_RETRY: u8 = 2;
/// Flag bit: the origin wants a handoff acknowledgment — the first-hop
/// gateway sends an ack packet back upstream once it has retransmitted the
/// stream's end packet. Multi-path senders set this to close the silent
/// loss window of a gateway that dies *after* accepting a whole stream but
/// *before* relaying its tail; an ack that never comes is what triggers
/// failover for a fully-handed-off stream.
const FLAG_ACKED: u8 = 8;

/// Identity of one in-flight message stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StreamTag {
    /// Originating rank.
    pub src: NodeId,
    /// Final destination rank.
    pub dest: NodeId,
    /// Per-source message counter, unique among the source's live streams.
    pub msg_id: u32,
}

/// Demultiplexing key: `(source rank, message id)`. The destination is not
/// part of the key — at any given hop all streams from one source share a
/// message-id space, and the final receiver only sees its own.
pub type StreamKey = (u32, u32);

impl StreamTag {
    /// The demultiplexing key for this stream.
    pub fn key(&self) -> StreamKey {
        (self.src.0, self.msg_id)
    }
}

/// Message-level self-description carried by the header packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtmHeader {
    /// The stream this header opens.
    pub tag: StreamTag,
    /// Fragment size used for the whole route.
    pub mtu: u32,
    /// True for direct (zero-gateway) deliveries from gateway-resident
    /// senders; such streams never enter a forwarding engine.
    pub direct: bool,
    /// True when the stream re-issues a failed earlier attempt under the
    /// same tag: the receiver discards the partial first attempt and
    /// restarts the stream from scratch (multi-path failover).
    pub retry: bool,
    /// True when the origin wants a handoff acknowledgment from the
    /// first-hop gateway after the end packet is relayed (multi-path
    /// failover; see [`FLAG_ACKED`]).
    pub acked: bool,
}

impl GtmHeader {
    /// A plain single-path header (no retry, no ack).
    pub fn new(tag: StreamTag, mtu: u32, direct: bool) -> GtmHeader {
        GtmHeader {
            tag,
            mtu,
            direct,
            retry: false,
            acked: false,
        }
    }
}

/// Per-block self-description carried by a descriptor packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GtmPartDesc {
    /// Block length in bytes.
    pub len: u64,
    /// Emission constraint the sender packed with.
    pub send: SendMode,
    /// Reception constraint the receiver must unpack with.
    pub recv: RecvMode,
}

/// Why a stream was cancelled mid-flight, carried by the cancel packet so
/// every party drops the stream with the same typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// A hop toward the destination stopped responding (send failure).
    PeerUnreachable,
    /// A credit wait exceeded its deadline (downstream stalled).
    CreditTimeout,
}

impl CancelReason {
    pub(crate) fn to_wire(self) -> u8 {
        match self {
            CancelReason::PeerUnreachable => 1,
            CancelReason::CreditTimeout => 2,
        }
    }

    pub(crate) fn from_wire(b: u8) -> Option<Self> {
        match b {
            1 => Some(CancelReason::PeerUnreachable),
            2 => Some(CancelReason::CreditTimeout),
            _ => None,
        }
    }
}

/// The kind-specific body of a decoded packet. Fragment payload bytes stay
/// in the packet buffer (from offset [`PRELUDE_LEN`]); use
/// [`frag_payload`] to borrow them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketBody {
    /// Start of a stream.
    Header(GtmHeader),
    /// Descriptor of the next block.
    Part(GtmPartDesc),
    /// One MTU-bounded slice of block data.
    Frag,
    /// End of the stream.
    End,
    /// Flow control: the downstream end of a conduit has retransmitted this
    /// many of the stream's fragments and grants the sender the right to
    /// emit as many more. Flows *against* the stream direction.
    Credit(u32),
    /// The stream is dead and will never deliver its end packet; every
    /// holder of its state must drop it and surface the typed reason.
    Cancel(CancelReason),
    /// A length-prefixed train of complete packets sent as one conduit
    /// operation; split with [`batch_packets`]. Carries no stream tag of
    /// its own.
    Batch,
    /// Handoff acknowledgment: the first-hop gateway has retransmitted the
    /// stream's end packet (the whole stream left the gateway). Flows
    /// *against* the stream direction, like credits, and only for streams
    /// whose header set the acked flag.
    Ack,
    /// In-band metrics pull, request direction: `tag.src` asks `tag.dest`
    /// for its live metrics snapshot. Carries no payload; `tag.msg_id` is
    /// the requester's pull sequence, echoed by the reply. Routed hop by
    /// hop over special channels like any forwarded stream, but
    /// stateless — no stream is opened.
    MetricsRequest,
    /// In-band metrics pull, reply direction: `tag.src` (the replier)
    /// returns its encoded [`mad_metrics::Snapshot`] to `tag.dest`.
    /// Borrow the payload with [`metrics_payload`].
    MetricsReply,
    /// In-band membership control (kind 11): one event of the dynamic
    /// membership protocol, carrying the subject node and its
    /// epoch-stamped incarnation. Routed hop by hop over the special
    /// channels like metrics packets; stateless at every relay.
    Member(MemberMsg),
}

/// One membership-protocol event on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEvent {
    /// `tag.src` (a joiner or rejoiner) asks `tag.dest` to admit
    /// `node` at incarnation `epoch` and reply with its recorded view.
    JoinRequest,
    /// Reply to a join request: `tag.src` (the responder) echoes the
    /// subject `node` with the highest epoch it has recorded for it —
    /// the joiner's verify phase cross-checks this against its own.
    JoinAck,
    /// `node` leaves gracefully at `epoch`: receivers retire its paths.
    Leave,
    /// Activation broadcast: `node` is active at incarnation `epoch`;
    /// receivers readmit its paths and update their views.
    Announce,
}

impl MemberEvent {
    fn to_wire(self) -> u8 {
        match self {
            MemberEvent::JoinRequest => 1,
            MemberEvent::JoinAck => 2,
            MemberEvent::Leave => 3,
            MemberEvent::Announce => 4,
        }
    }

    fn from_wire(b: u8) -> Option<MemberEvent> {
        match b {
            1 => Some(MemberEvent::JoinRequest),
            2 => Some(MemberEvent::JoinAck),
            3 => Some(MemberEvent::Leave),
            4 => Some(MemberEvent::Announce),
            _ => None,
        }
    }
}

/// Payload of a kind-11 membership packet: the event, the subject node
/// (usually but not necessarily `tag.src` — acks echo the joiner), and
/// the epoch-stamped incarnation the event talks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberMsg {
    /// Which protocol step this is.
    pub event: MemberEvent,
    /// The node the event is about.
    pub node: u32,
    /// The incarnation the event asserts (or echoes) for `node`.
    pub epoch: u64,
}

/// The common prelude of a `kind` packet of stream `tag`, on the stack.
fn prelude(kind: u8, tag: &StreamTag) -> [u8; PRELUDE_LEN] {
    let mut p = [0u8; PRELUDE_LEN];
    p[0] = GTM_MAGIC;
    p[1] = GTM_VERSION;
    p[2] = kind;
    p[3..7].copy_from_slice(&tag.src.0.to_le_bytes());
    p[7..11].copy_from_slice(&tag.dest.0.to_le_bytes());
    p[11..15].copy_from_slice(&tag.msg_id.to_le_bytes());
    p
}

fn prelude_into(v: &mut Vec<u8>, kind: u8, tag: &StreamTag) {
    v.extend_from_slice(&prelude(kind, tag));
}

/// Encode a header packet into `v` (cleared first). The `_into` encoders
/// exist so hot paths can stage control packets in recycled buffers
/// instead of allocating a fresh `Vec` per packet.
pub fn encode_header_into(v: &mut Vec<u8>, h: &GtmHeader) {
    v.clear();
    put_header(v, h);
}

/// Append a header packet to `v`. The `put_*` functions are the encoders
/// proper; [`GtmWriter`] appends with them straight into its staged train.
fn put_header(v: &mut Vec<u8>, h: &GtmHeader) {
    v.reserve(HEADER_LEN);
    prelude_into(v, KIND_HEADER, &h.tag);
    v.extend_from_slice(&h.mtu.to_le_bytes());
    let mut flags = 0u8;
    if h.direct {
        flags |= FLAG_DIRECT;
    }
    if h.retry {
        flags |= FLAG_RETRY;
    }
    if h.acked {
        flags |= FLAG_ACKED;
    }
    v.push(flags);
}

/// Encode a header packet.
pub fn encode_header(h: &GtmHeader) -> Vec<u8> {
    let mut v = Vec::with_capacity(HEADER_LEN);
    encode_header_into(&mut v, h);
    v
}

/// Encode a block-descriptor packet into `v` (cleared first).
pub fn encode_part_into(v: &mut Vec<u8>, tag: &StreamTag, d: &GtmPartDesc) {
    v.clear();
    put_part(v, tag, d);
}

fn put_part(v: &mut Vec<u8>, tag: &StreamTag, d: &GtmPartDesc) {
    v.reserve(PART_LEN);
    prelude_into(v, KIND_PART, tag);
    v.extend_from_slice(&d.len.to_le_bytes());
    v.push(d.send.to_wire());
    v.push(d.recv.to_wire());
}

/// Encode a block-descriptor packet.
pub fn encode_part(tag: &StreamTag, d: &GtmPartDesc) -> Vec<u8> {
    let mut v = Vec::with_capacity(PART_LEN);
    encode_part_into(&mut v, tag, d);
    v
}

/// Encode the end-of-stream packet into `v` (cleared first).
pub fn encode_end_into(v: &mut Vec<u8>, tag: &StreamTag) {
    v.clear();
    put_end(v, tag);
}

fn put_end(v: &mut Vec<u8>, tag: &StreamTag) {
    v.reserve(PRELUDE_LEN);
    prelude_into(v, KIND_END, tag);
}

/// Encode the end-of-stream packet.
pub fn encode_end(tag: &StreamTag) -> Vec<u8> {
    let mut v = Vec::with_capacity(PRELUDE_LEN);
    encode_end_into(&mut v, tag);
    v
}

/// Encode a credit grant of `count` fragments for a stream into `v`
/// (cleared first). Credits travel hop-by-hop on the same (bidirectional)
/// conduit as the stream, in the opposite direction.
fn encode_credit_into(v: &mut Vec<u8>, tag: &StreamTag, count: u32) {
    v.clear();
    v.extend_from_slice(&credit_packet(tag, count));
}

/// A credit grant on the stack: what a forwarding engine sends back after
/// every train — too small and too frequent to stage through the pool.
pub(crate) fn credit_packet(tag: &StreamTag, count: u32) -> [u8; CREDIT_LEN] {
    assert!(count > 0, "a credit grant must carry at least one credit");
    let mut p = [0u8; CREDIT_LEN];
    p[..PRELUDE_LEN].copy_from_slice(&prelude(KIND_CREDIT, tag));
    p[PRELUDE_LEN..].copy_from_slice(&count.to_le_bytes());
    p
}

/// Encode a credit grant of `count` fragments for a stream.
pub fn encode_credit(tag: &StreamTag, count: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(CREDIT_LEN);
    encode_credit_into(&mut v, tag, count);
    v
}

/// Encode a stream-cancel packet into `v` (cleared first).
pub fn encode_cancel_into(v: &mut Vec<u8>, tag: &StreamTag, reason: CancelReason) {
    v.clear();
    put_cancel(v, tag, reason);
}

fn put_cancel(v: &mut Vec<u8>, tag: &StreamTag, reason: CancelReason) {
    v.reserve(CANCEL_LEN);
    prelude_into(v, KIND_CANCEL, tag);
    v.push(reason.to_wire());
}

/// Encode a stream-cancel packet.
pub fn encode_cancel(tag: &StreamTag, reason: CancelReason) -> Vec<u8> {
    let mut v = Vec::with_capacity(CANCEL_LEN);
    encode_cancel_into(&mut v, tag, reason);
    v
}

/// Encode a handoff-acknowledgment packet into `v` (cleared first). Like
/// credits, acks travel hop-by-hop against the stream direction; the
/// packet is the bare prelude — the tag identifies the acked stream.
pub fn encode_ack_into(v: &mut Vec<u8>, tag: &StreamTag) {
    v.clear();
    v.reserve(PRELUDE_LEN);
    prelude_into(v, KIND_ACK, tag);
}

/// Encode a handoff-acknowledgment packet.
pub fn encode_ack(tag: &StreamTag) -> Vec<u8> {
    let mut v = Vec::with_capacity(PRELUDE_LEN);
    encode_ack_into(&mut v, tag);
    v
}

/// Encode a metrics-pull request into `v` (cleared first): `tag.src`
/// asks `tag.dest` for a snapshot, `tag.msg_id` names the pull.
fn encode_metrics_request_into(v: &mut Vec<u8>, tag: &StreamTag) {
    v.clear();
    v.reserve(PRELUDE_LEN + 1);
    prelude_into(v, KIND_METRICS, tag);
    v.push(METRICS_REQUEST);
}

/// Encode a metrics-pull request.
pub fn encode_metrics_request(tag: &StreamTag) -> Vec<u8> {
    let mut v = Vec::with_capacity(PRELUDE_LEN + 1);
    encode_metrics_request_into(&mut v, tag);
    v
}

/// Encode a metrics-pull reply into `v` (cleared first): `tag.src` (the
/// replier) carries its encoded snapshot back to `tag.dest`, echoing the
/// request's `msg_id`. The payload must respect [`METRICS_MAX`].
fn encode_metrics_reply_into(v: &mut Vec<u8>, tag: &StreamTag, payload: &[u8]) {
    assert!(
        payload.len() <= METRICS_MAX,
        "metrics reply payload over budget"
    );
    v.clear();
    v.reserve(PRELUDE_LEN + 1 + payload.len());
    prelude_into(v, KIND_METRICS, tag);
    v.push(METRICS_REPLY);
    v.extend_from_slice(payload);
}

/// Encode a metrics-pull reply.
pub fn encode_metrics_reply(tag: &StreamTag, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(PRELUDE_LEN + 1 + payload.len());
    encode_metrics_reply_into(&mut v, tag, payload);
    v
}

/// Borrow the encoded snapshot of a metrics reply packet.
pub fn metrics_payload(packet: &[u8]) -> &[u8] {
    &packet[PRELUDE_LEN + 1..]
}

/// Encode a membership packet into `v` (cleared first): `tag.src` sends
/// one protocol event toward `tag.dest`; `tag.msg_id` is the sender's
/// membership sequence number (idempotent re-runs reuse it).
fn encode_member_into(v: &mut Vec<u8>, tag: &StreamTag, msg: &MemberMsg) {
    v.clear();
    v.reserve(MEMBER_PACKET_LEN);
    prelude_into(v, KIND_MEMBER, tag);
    v.push(msg.event.to_wire());
    v.extend_from_slice(&msg.node.to_le_bytes());
    v.extend_from_slice(&msg.epoch.to_le_bytes());
}

/// Encode a membership packet.
pub fn encode_member(tag: &StreamTag, msg: &MemberMsg) -> Vec<u8> {
    let mut v = Vec::with_capacity(MEMBER_PACKET_LEN);
    encode_member_into(&mut v, tag, msg);
    v
}

/// The constant prelude of a batch frame. A batch carries no stream of its
/// own, so the tag fields are zero; the sub-packet train follows as a
/// gather send `[prelude, len₀, packet₀, len₁, packet₁, …]`.
pub fn batch_prelude() -> [u8; PRELUDE_LEN] {
    let no_stream = StreamTag {
        src: NodeId(0),
        dest: NodeId(0),
        msg_id: 0,
    };
    prelude(KIND_BATCH, &no_stream)
}

/// Assemble a batch frame from complete packets. Test/diagnostic helper —
/// hot paths gather the identical layout wire-side with
/// [`crate::conduit::Conduit::send_batch`] instead of staging a frame.
pub fn encode_batch(packets: &[&[u8]]) -> Vec<u8> {
    assert!(!packets.is_empty(), "a batch carries at least one packet");
    let total = PRELUDE_LEN
        + packets
            .iter()
            .map(|p| BATCH_ENTRY_OVERHEAD + p.len())
            .sum::<usize>();
    let mut v = Vec::with_capacity(total);
    v.extend_from_slice(&batch_prelude());
    for p in packets {
        v.extend_from_slice(&(p.len() as u32).to_le_bytes());
        v.extend_from_slice(p);
    }
    v
}

/// Iterate the complete sub-packets of a validated batch frame, in order.
/// Fails if `frame` is not a well-formed batch packet.
pub fn batch_packets(frame: &[u8]) -> Result<BatchPackets<'_>> {
    match decode_packet(frame)? {
        (_, PacketBody::Batch) => Ok(BatchPackets {
            frame,
            at: PRELUDE_LEN,
        }),
        _ => Err(MadError::Protocol(
            "batch_packets on a non-batch GTM packet".into(),
        )),
    }
}

/// Iterator over the sub-packet slices of a batch frame; see
/// [`batch_packets`]. Infallible because the frame was validated whole at
/// decode time.
#[derive(Clone)]
pub struct BatchPackets<'a> {
    frame: &'a [u8],
    /// Offset of the next packet's length prefix.
    at: usize,
}

impl<'a> Iterator for BatchPackets<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let packet = batch_entry(self.frame, self.at)?;
        self.at = packet.end;
        Some(&self.frame[packet])
    }
}

/// The sub-packet of a batch frame whose length prefix starts at `at`, as
/// a range of `frame`; `None` past the last one. For a frame already
/// validated by [`decode_packet`].
pub(crate) fn batch_entry(frame: &[u8], at: usize) -> Option<std::ops::Range<usize>> {
    let prefix = frame.get(at..at + BATCH_ENTRY_OVERHEAD)?;
    let start = at + BATCH_ENTRY_OVERHEAD;
    Some(start..start + u32::from_le_bytes(prefix.try_into().unwrap()) as usize)
}

/// A batch frame that is exactly one whole stream, as [`whole_stream`]
/// reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WholeStream {
    /// The stream's header, the frame's first packet.
    pub(crate) header: GtmHeader,
    /// Packets in the frame, the header and the end included.
    pub(crate) packets: usize,
    /// Its fragments, their payload bytes and their packet bytes.
    pub(crate) frags: u64,
    pub(crate) payload: u64,
    pub(crate) held: usize,
}

/// Is `frame` a batch frame that is one whole stream: its header first,
/// its end last, and only that stream's descriptors and fragments between?
/// Every writer's small message is one. A gateway passes such a frame on
/// as the buffer it landed in, and a receiver reads it in place. `None`
/// for anything else; the kind byte is read before any decode, so a
/// packet that is not a batch costs nothing. Reads the frame; changes
/// nothing.
pub(crate) fn whole_stream(frame: &[u8]) -> Option<WholeStream> {
    if frame.get(2) != Some(&KIND_BATCH) {
        return None;
    }
    let mut packets = batch_packets(frame).ok()?;
    let (tag, PacketBody::Header(header)) = decode_packet(packets.next()?).ok()? else {
        return None;
    };
    let mut whole = WholeStream {
        header,
        packets: 1,
        frags: 0,
        payload: 0,
        held: 0,
    };
    let mut ended = false;
    for sub in packets {
        let (sub_tag, body) = decode_packet(sub).ok()?;
        if ended || sub_tag != tag {
            return None;
        }
        match body {
            PacketBody::Part(_) => {}
            PacketBody::Frag => {
                whole.frags += 1;
                whole.payload += (sub.len() - PRELUDE_LEN) as u64;
                whole.held += sub.len();
            }
            PacketBody::End => ended = true,
            _ => return None,
        }
        whole.packets += 1;
    }
    ended.then_some(whole)
}

/// The constant fragment prelude for a stream. Senders emit each fragment
/// as one gather send `[prelude, chunk]`, so the tag costs no extra packet.
pub fn frag_prelude(tag: &StreamTag) -> [u8; PRELUDE_LEN] {
    prelude(KIND_FRAG, tag)
}

/// Borrow the payload bytes of a fragment packet.
pub fn frag_payload(packet: &[u8]) -> &[u8] {
    &packet[PRELUDE_LEN..]
}

/// Decode any GTM packet into its stream tag and body. Fails on anything
/// that is not well-formed version-2 framing.
pub fn decode_packet(packet: &[u8]) -> Result<(StreamTag, PacketBody)> {
    let err = |msg: &str| MadError::Protocol(format!("GTM packet: {msg}"));
    if packet.len() < PRELUDE_LEN || packet[0] != GTM_MAGIC {
        return Err(err("bad magic"));
    }
    if packet[1] != GTM_VERSION {
        return Err(err("unsupported version"));
    }
    let tag = StreamTag {
        src: NodeId(u32::from_le_bytes(packet[3..7].try_into().unwrap())),
        dest: NodeId(u32::from_le_bytes(packet[7..11].try_into().unwrap())),
        msg_id: u32::from_le_bytes(packet[11..15].try_into().unwrap()),
    };
    let body = match packet[2] {
        KIND_HEADER => {
            if packet.len() != HEADER_LEN {
                return Err(err("header length"));
            }
            let mtu = u32::from_le_bytes(packet[15..19].try_into().unwrap());
            if mtu == 0 {
                return Err(err("zero MTU"));
            }
            let flags = packet[19];
            if flags & !(FLAG_DIRECT | FLAG_RETRY | FLAG_ACKED) != 0 {
                return Err(err("unknown header flags"));
            }
            PacketBody::Header(GtmHeader {
                tag,
                mtu,
                direct: flags & FLAG_DIRECT != 0,
                retry: flags & FLAG_RETRY != 0,
                acked: flags & FLAG_ACKED != 0,
            })
        }
        KIND_PART => {
            if packet.len() != PART_LEN {
                return Err(err("descriptor length"));
            }
            let len = u64::from_le_bytes(packet[15..23].try_into().unwrap());
            let send = SendMode::from_wire(packet[23]).ok_or_else(|| err("send mode"))?;
            let recv = RecvMode::from_wire(packet[24]).ok_or_else(|| err("recv mode"))?;
            PacketBody::Part(GtmPartDesc { len, send, recv })
        }
        KIND_END => {
            if packet.len() != PRELUDE_LEN {
                return Err(err("end length"));
            }
            PacketBody::End
        }
        KIND_FRAG => {
            if packet.len() == PRELUDE_LEN {
                return Err(err("empty fragment"));
            }
            PacketBody::Frag
        }
        KIND_CREDIT => {
            if packet.len() != CREDIT_LEN {
                return Err(err("credit length"));
            }
            let count = u32::from_le_bytes(packet[15..19].try_into().unwrap());
            if count == 0 {
                return Err(err("zero credit grant"));
            }
            PacketBody::Credit(count)
        }
        KIND_CANCEL => {
            if packet.len() != CANCEL_LEN {
                return Err(err("cancel length"));
            }
            let reason = CancelReason::from_wire(packet[15]).ok_or_else(|| err("cancel reason"))?;
            PacketBody::Cancel(reason)
        }
        KIND_BATCH => {
            // Validate the whole train up front so the sub-packet iterator
            // can be infallible: every length prefix must delimit a
            // plausibly-framed, non-nested packet.
            let mut rest = &packet[PRELUDE_LEN..];
            if rest.is_empty() {
                return Err(err("empty batch"));
            }
            while !rest.is_empty() {
                if rest.len() < 4 {
                    return Err(err("truncated batch length prefix"));
                }
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                rest = &rest[4..];
                if len < PRELUDE_LEN || len > rest.len() {
                    return Err(err("batch entry length"));
                }
                if rest[2] == KIND_BATCH {
                    return Err(err("nested batch"));
                }
                rest = &rest[len..];
            }
            PacketBody::Batch
        }
        KIND_ACK => {
            if packet.len() != PRELUDE_LEN {
                return Err(err("ack length"));
            }
            PacketBody::Ack
        }
        KIND_METRICS => {
            if packet.len() < PRELUDE_LEN + 1 {
                return Err(err("metrics packet length"));
            }
            match packet[PRELUDE_LEN] {
                METRICS_REQUEST => {
                    if packet.len() != PRELUDE_LEN + 1 {
                        return Err(err("metrics request length"));
                    }
                    PacketBody::MetricsRequest
                }
                METRICS_REPLY => {
                    if packet.len() > METRICS_PACKET_MAX {
                        return Err(err("metrics reply over budget"));
                    }
                    PacketBody::MetricsReply
                }
                _ => return Err(err("metrics direction")),
            }
        }
        KIND_MEMBER => {
            if packet.len() != MEMBER_PACKET_LEN {
                return Err(err("member packet length"));
            }
            let event =
                MemberEvent::from_wire(packet[PRELUDE_LEN]).ok_or_else(|| err("member event"))?;
            let node =
                u32::from_le_bytes(packet[PRELUDE_LEN + 1..PRELUDE_LEN + 5].try_into().unwrap());
            let epoch = u64::from_le_bytes(
                packet[PRELUDE_LEN + 5..PRELUDE_LEN + 13]
                    .try_into()
                    .unwrap(),
            );
            if epoch == 0 {
                return Err(err("zero member epoch"));
            }
            PacketBody::Member(MemberMsg { event, node, epoch })
        }
        _ => Err(err("unknown kind"))?,
    };
    Ok((tag, body))
}

/// Number of fragments a `len`-byte block occupies at a given MTU.
pub fn fragment_count(len: u64, mtu: u32) -> u64 {
    if len == 0 {
        0
    } else {
        len.div_ceil(mtu as u64)
    }
}

/// Landing-buffer size for packets of a stream fragmented at `mtu`: the
/// tagged fragment itself, floored so every control packet fits too —
/// including a full-size in-band metrics reply (kind 10).
pub fn landing_size_for(mtu: usize) -> usize {
    (PRELUDE_LEN + mtu).max(256).max(METRICS_PACKET_MAX)
}

/// What one batch frame may hold on a given driver — the one budget the
/// writer's staged train and the gateway's transmit trains share, so a
/// frame a writer builds is a frame a gateway on the same driver could
/// have built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameBudget {
    /// Never exceed what the driver performs best with: a route-MTU bulk
    /// fragment fails this check alone and travels singly, keeping its
    /// zero-copy path.
    bytes: usize,
    /// A gathered frame is the prelude plus a length prefix and a body per
    /// packet, within the driver's gather limit.
    packets: usize,
}

impl FrameBudget {
    pub(crate) fn of(caps: &DriverCaps) -> Self {
        FrameBudget {
            bytes: caps.preferred_mtu.min(caps.max_packet),
            packets: caps.max_gather.saturating_sub(1) / 2,
        }
    }

    /// Would a `len`-byte packet still fit a frame of `frame` bytes that
    /// already holds `packets` packets? (An empty frame is its prelude.)
    pub(crate) fn admits(&self, frame: usize, packets: usize, len: usize) -> bool {
        self.holds(
            frame
                .saturating_add(BATCH_ENTRY_OVERHEAD)
                .saturating_add(len),
            packets + 1,
        )
    }

    /// Does a whole frame of `frame` bytes and `packets` packets fit?
    pub(crate) fn holds(&self, frame: usize, packets: usize) -> bool {
        packets <= self.packets && frame <= self.bytes
    }
}

/// Sender side of the GTM: writes a self-described, MTU-fragmented stream
/// toward the first hop (a gateway over a *special* channel, or — for
/// direct streams from gateway-resident senders — the destination itself
/// over the *regular* channel).
///
/// The writer *aggregates*, the way the paper's BMMs do (§2.1.1): header,
/// descriptors, end, and every fragment small enough are staged into one
/// train and leave as one batch frame — one buffer switch at every hop
/// instead of one per packet. The train leaves when the writer can see it
/// must: it is full, the block's flags say the receiver needs it now
/// ([`plan::flush_after`]), the stream ends, or the writer is about to
/// wait for something only the next hop can send (a credit) — which it
/// can only earn with what is staged. A fragment too big for any frame
/// (every route-MTU bulk fragment) leaves alone, straight from user
/// memory. The conduit is held per send, never across the message: every
/// packet is self-described, so trains of concurrent streams interleave
/// freely on shared conduits.
///
/// A message pays only for what it needs. The train is staged in a pool
/// buffer drawn when the first block arrives (the header waits in the
/// writer until then), sized for what is in sight — the header, that
/// block's packets and the end, within the frame budget. Toward a driver
/// whose send is a queue push
/// ([`DriverCaps::queued_send`](crate::conduit::DriverCaps::queued_send))
/// a frame of two packets or more is handed over whole
/// ([`Conduit::send_owned`](crate::conduit::Conduit::send_owned)): the
/// buffer staged into is the buffer the peer receives. Any other driver
/// copies what it sends, and so does a lone packet: there the stage is
/// sent by copy and kept for the next train, so a stream holds one stage
/// from its first block to its end. A stage that must
/// grow moves to a larger pool buffer, never to a heap reallocation, whose
/// buffer would come back to a pool class no stream draws from. And a
/// flow-controlled stream counts its window itself until its first train
/// leaves ahead of the end: only then does it open a
/// [`CreditLedger`](crate::credit::CreditLedger) account, with what is
/// left of the window, for the grants that train earns. A stream whose one
/// frame carries its end never touches the ledger.
pub struct GtmWriter<'c> {
    channel: &'c Channel,
    first_hop: NodeId,
    tag: StreamTag,
    frag_prelude: [u8; PRELUDE_LEN],
    mtu: usize,
    /// Sealed: ended, or dead after a failed `pack`.
    finished: bool,
    flow: Option<WriterFlow>,
    /// The header, until the first block or the end stages it.
    header: Option<GtmHeader>,
    /// The train being staged, already in wire form: the batch prelude,
    /// then `len ‖ packet` per staged packet. Empty, holding no buffer,
    /// until a packet draws one from the pool and after a train was handed
    /// to the driver in it.
    stage: PooledBuf,
    /// The first hop's send is a queue push that takes the buffer it is
    /// given: a train of two packets or more is handed over in `stage`.
    hand_over: bool,
    /// Packets in `stage`.
    staged: usize,
    /// Room in a train that the packets in sight still take, the header
    /// if it waits and the end included: what a drawn stage holds beyond
    /// the packet that draws it.
    ahead: usize,
    /// Fragments in `stage` that each took a credit from the window.
    paid: u32,
    /// What a frame toward the first hop may hold.
    budget: FrameBudget,
    /// Whether anything of the stream has reached the first hop. Until
    /// then no hop holds state for it, and a failure needs no cancel.
    on_wire: bool,
    /// The origin waits for a handoff ack after the end, reading the
    /// conduit itself (and looking for this stream's cancel on it).
    acked: bool,
}

/// Room one packet of `len` bytes takes in a batch frame.
const fn entry(len: usize) -> usize {
    BATCH_ENTRY_OVERHEAD + len
}

impl<'c> GtmWriter<'c> {
    /// Start a stream. When `flow` is given the stream is
    /// credit-controlled: each fragment consumes one credit from the
    /// stream's window before it may be staged, and the wait is
    /// deadline-bounded (see [`crate::credit`]). Nothing is staged or
    /// touches the wire yet, so a dead first hop surfaces at the first
    /// flush.
    pub fn begin(
        channel: &'c Channel,
        first_hop: NodeId,
        tag: StreamTag,
        mtu: usize,
        direct: bool,
        flow: Option<WriterFlow>,
    ) -> Result<Self> {
        Self::begin_attempt(channel, first_hop, tag, mtu, direct, false, false, flow)
    }

    /// Like [`GtmWriter::begin`], but with control over the header's retry
    /// and acked flags — set by the multi-path layer when re-issuing a
    /// failed stream on a surviving route (retry: the receiver discards the
    /// partial first attempt instead of rejecting the duplicate header) and
    /// when requesting a handoff acknowledgment from the first-hop gateway
    /// (acked: the sender can detect a gateway that dies after accepting
    /// the whole stream but before relaying it).
    #[allow(clippy::too_many_arguments)]
    pub fn begin_attempt(
        channel: &'c Channel,
        first_hop: NodeId,
        tag: StreamTag,
        mtu: usize,
        direct: bool,
        retry: bool,
        acked: bool,
        flow: Option<WriterFlow>,
    ) -> Result<Self> {
        assert!(mtu > 0, "GTM MTU must be positive");
        let caps = channel.caps();
        assert!(
            mtu.saturating_add(PRELUDE_LEN) <= caps.max_packet,
            "GTM MTU plus fragment prelude exceeds the first hop's max packet size"
        );
        Ok(GtmWriter {
            channel,
            first_hop,
            tag,
            frag_prelude: frag_prelude(&tag),
            mtu,
            finished: false,
            flow,
            header: Some(GtmHeader {
                tag,
                mtu: mtu as u32,
                direct,
                retry,
                acked,
            }),
            stage: PooledBuf::default(),
            hand_over: caps.queued_send,
            staged: 0,
            ahead: 0,
            paid: 0,
            budget: FrameBudget::of(&caps),
            on_wire: false,
            acked,
        })
    }

    /// Append a block: descriptor packet, then tagged MTU-sized fragments.
    /// What of it fits the staged train rides it; the block is on the wire
    /// when `pack` returns only if its flags ask for that.
    ///
    /// On error the stream is dead: the writer seals itself (no further
    /// packets, dropping it is fine), the stream's credit account is
    /// released, and — if the stream was cancelled (credit timeout or
    /// unreachable peer) after some hop had seen it — a best-effort cancel
    /// packet chases the stream so downstream hops can release its state
    /// instead of waiting for an end that will never come.
    pub fn pack(&mut self, data: &[u8], send: SendMode, recv: RecvMode) -> Result<()> {
        match self.pack_inner(data, send, recv) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.abort(&e);
                Err(e)
            }
        }
    }

    fn pack_inner(&mut self, data: &[u8], send: SendMode, recv: RecvMode) -> Result<()> {
        let _pack = trace_span!(
            self.channel.tracer(),
            "gtm",
            "pack",
            "dest" = self.tag.dest.0 as u64,
            "bytes" = data.len() as u64,
        );
        let tag = self.tag;
        let desc = GtmPartDesc {
            len: data.len() as u64,
            send,
            recv,
        };
        // In sight: the descriptor and every fragment a frame holds, then
        // the end. Fragments that leave alone take no room.
        let budget = self.budget;
        let frags: usize = data
            .chunks(self.mtu)
            .map(|chunk| PRELUDE_LEN + chunk.len())
            .filter(|&len| budget.admits(PRELUDE_LEN, 0, len))
            .map(entry)
            .sum();
        self.expect(entry(PART_LEN) + frags);
        self.stage_header()?;
        self.stage(PART_LEN, |v| put_part(v, &tag, &desc))?;
        for chunk in data.chunks(self.mtu) {
            self.take_credit()?;
            self.stage_fragment(chunk)?;
        }
        if plan::flush_after(send, recv) {
            self.flush()?;
        }
        Ok(())
    }

    /// Pay one window credit for the next fragment of a flow-controlled
    /// stream, flushing the staged train first when that keeps both ends
    /// of the first hop busy.
    fn take_credit(&mut self) -> Result<()> {
        let tag = self.tag;
        let window = match &self.flow {
            Some(flow) => flow.window(),
            None => return Ok(()),
        };
        // Two trains to the window, the paper's double buffering: a train
        // that took the whole window would leave the first hop nothing to
        // forward while the next one is staged, and this writer nothing to
        // stage until that whole train has been forwarded and granted —
        // stop-and-wait, no overlap.
        if 2 * self.paid >= window {
            self.flush()?;
        }
        if let Some(flow) = &mut self.flow {
            if !flow.try_take(&tag)? {
                // A dry window means a wait for grants the first hop
                // returns only for fragments it has seen: everything
                // staged — the header before all — goes out first.
                self.flush()?;
                if let Some(flow) = &mut self.flow {
                    flow.take(self.channel, self.first_hop, &tag)?;
                }
            }
        }
        self.paid += 1;
        Ok(())
    }

    /// Note the room the packets now in sight take in a train: `block`,
    /// behind the header if it still waits, and the end.
    fn expect(&mut self, block: usize) {
        let header = match self.header {
            Some(_) => entry(HEADER_LEN),
            None => 0,
        };
        self.ahead = header + block + entry(PRELUDE_LEN);
    }

    /// Stage the header if it still waits, ahead of the first block or of
    /// the end.
    fn stage_header(&mut self) -> Result<()> {
        match self.header.take() {
            Some(header) => self.stage(HEADER_LEN, |v| put_header(v, &header)),
            None => Ok(()),
        }
    }

    /// Stage one `len`-byte packet, written by `put`, behind whatever is
    /// staged — flushing that first when the frame is full.
    fn stage(&mut self, len: usize, put: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        if self.staged > 0 && !self.budget.admits(self.stage.len(), self.staged, len) {
            self.flush()?;
        }
        self.ahead = self.ahead.saturating_sub(entry(len));
        self.make_room(entry(len));
        let v = self.stage.vec();
        v.extend_from_slice(&(len as u32).to_le_bytes());
        let at = v.len();
        put(v);
        debug_assert_eq!(v.len() - at, len, "staged packet length");
        self.staged += 1;
        trace_count!(self.channel.tracer(), "gtm", "encode", 1);
        Ok(())
    }

    /// Make room for `need` more bytes in the stage: draw it from the pool
    /// with room for what is in sight too, within the frame budget, or
    /// move what is staged to a larger pool buffer.
    fn make_room(&mut self, need: usize) {
        let v = self.stage.vec();
        if v.capacity() - v.len() >= need {
            return;
        }
        let len = v.len().max(PRELUDE_LEN);
        let size = (len + need + self.ahead)
            .min(self.budget.bytes)
            .max(len + need);
        let mut fresh = self.channel.runtime().pool().get(size);
        if v.is_empty() {
            fresh.vec().extend_from_slice(&batch_prelude());
        } else {
            fresh.vec().extend_from_slice(v);
        }
        // The old stage, if any, goes back to its pool class.
        self.stage = fresh;
    }

    /// One fragment: into the train if a frame can hold it at all, else
    /// out on its own as a zero-copy `[prelude, chunk]` gather, after what
    /// was staged ahead of it.
    fn stage_fragment(&mut self, chunk: &[u8]) -> Result<()> {
        let len = PRELUDE_LEN + chunk.len();
        if self.budget.admits(PRELUDE_LEN, 0, len) {
            let prelude = self.frag_prelude;
            return self.stage(len, |v| {
                v.extend_from_slice(&prelude);
                v.extend_from_slice(chunk);
            });
        }
        self.flush()?;
        self.channel
            .send_packet(self.first_hop, &[&self.frag_prelude, chunk])?;
        self.on_wire = true;
        trace_count!(self.channel.tracer(), "gtm", "encode", 1);
        Ok(())
    }

    /// Put the staged train on the wire ahead of more of the stream. A
    /// flow-controlled stream's credit account opens first, with what is
    /// left of its window, so the grants this train — or the lone fragment
    /// behind it — earns find it.
    fn flush(&mut self) -> Result<()> {
        if let Some(flow) = &mut self.flow {
            flow.open_account(self.tag.key());
        }
        self.send_train()
    }

    /// Put the staged train on the wire: a batch frame, or the packet
    /// itself when only one is staged. A batch frame toward a queue-push
    /// driver is handed over in the stage itself; anything else is copied
    /// and the stage kept. Whatever the outcome, nothing stays staged —
    /// after a failed send the stream is dead.
    fn send_train(&mut self) -> Result<()> {
        // A fragment about to leave alone comes through here as well, with
        // nothing staged: its credit is not the next train's.
        self.paid = 0;
        let sent = match self.staged {
            0 => return Ok(()),
            1 => {
                let packet = &self.stage[PRELUDE_LEN + BATCH_ENTRY_OVERHEAD..];
                let sent = self.channel.send_packet(self.first_hop, &[packet]);
                self.stage.vec().truncate(PRELUDE_LEN);
                sent
            }
            _ if self.hand_over => {
                let frame = std::mem::take(&mut self.stage);
                self.channel.send_owned_packet(self.first_hop, frame)
            }
            _ => {
                let sent = self.channel.send_packet(self.first_hop, &[&self.stage]);
                self.stage.vec().truncate(PRELUDE_LEN);
                sent
            }
        };
        self.staged = 0;
        sent?;
        self.on_wire = true;
        Ok(())
    }

    /// Seal a failed stream: release its credit account, forget what was
    /// staged and — when some hop has seen the stream and the failure is
    /// one the protocol names — tell downstream hops to drop it.
    fn abort(&mut self, cause: &MadError) {
        self.finished = true;
        if let Some(flow) = self.flow.take() {
            flow.close(self.tag.key());
        }
        self.stage.vec().truncate(PRELUDE_LEN);
        self.staged = 0;
        let reason = match cause {
            MadError::CreditTimeout { .. } => Some(CancelReason::CreditTimeout),
            MadError::PeerUnreachable(_) => Some(CancelReason::PeerUnreachable),
            _ => None,
        };
        if let (Some(reason), true) = (reason, self.on_wire) {
            // Best effort — the first hop may itself be unreachable.
            let tag = self.tag;
            let _ = self
                .stage(CANCEL_LEN, |v| put_cancel(v, &tag, reason))
                .and_then(|()| self.send_train());
        }
    }

    /// Finish the stream: stage the end packet and send the train. A
    /// stream that died before anything of it left has nothing to end. A
    /// writer that reads its own conduit (no engine does it for it, and no
    /// ack wait follows) then drains what is already pending there,
    /// without blocking — the grants that arrive after the last credit
    /// wait would otherwise sit in its receive queue until teardown.
    pub fn end_packing(mut self) -> Result<()> {
        if self.finished && !self.on_wire {
            return Ok(());
        }
        self.finished = true;
        let tag = self.tag;
        self.expect(0);
        // Staging may send a full train ahead of the end, which opens the
        // account: it closes once the end is staged, before it leaves.
        let staged = self
            .stage_header()
            .and_then(|()| self.stage(PRELUDE_LEN, |v| put_end(v, &tag)));
        let flow = self.flow.take();
        if let Some(flow) = &flow {
            flow.close(tag.key());
        }
        staged?;
        self.send_train()?;
        match flow {
            Some(flow) if !self.acked => flow.drain(self.channel, self.first_hop),
            _ => Ok(()),
        }
    }
}

impl Drop for GtmWriter<'_> {
    fn drop(&mut self) {
        if !self.finished && !std::thread::panicking() {
            panic!("GtmWriter dropped without end_packing");
        }
    }
}

/// One buffered item of a partially received stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamItem {
    /// Descriptor of the next block.
    Part(GtmPartDesc),
    /// A fragment packet, stored verbatim (payload at [`PRELUDE_LEN`]).
    /// Pool-backed when the assembler has a pool, so consuming a fragment
    /// recycles its landing buffer.
    Frag(PooledBuf),
    /// End of the stream.
    End,
    /// The stream was cancelled upstream and will never end normally.
    Cancelled(CancelReason),
    /// The sender re-issued the stream from scratch on another path
    /// (multi-path failover): everything buffered before this point was
    /// discarded, and the items that follow replay the stream from its
    /// first block. Readers that already consumed a prefix skip the same
    /// prefix of the replay — fragmentation is deterministic, so the
    /// replayed items line up one-to-one with the originals.
    Restart,
}

struct PendingStream {
    header: GtmHeader,
    items: VecDeque<StreamItem>,
    /// Conduit the stream's header arrived on (0 = unconstrained). Body
    /// packets from other origins are stale leftovers of a failed-over
    /// path and are dropped silently.
    origin: u64,
    /// A ghost stream is the retry of a stream that was already delivered
    /// (the handoff ack was lost, not the stream). It is never surfaced to
    /// the application: its body packets are swallowed and the stream is
    /// dropped when its end or cancel arrives.
    ghost: bool,
}

/// Receive-side demultiplexer: turns an interleaved sequence of version-2
/// packets (from any number of conduits) back into per-stream item queues.
///
/// Purely computational — no I/O, no locking — so the interleave/reassemble
/// logic is testable in isolation. Streams become *ready* in header-arrival
/// order; [`StreamAssembler::pop_ready`] hands them out FIFO, which is what
/// preserves per-sender delivery order end to end.
#[derive(Default)]
pub struct StreamAssembler {
    streams: BTreeMap<StreamKey, PendingStream>,
    ready: VecDeque<StreamKey>,
    /// When present, fragments split out of batch frames are copied into
    /// recycled buffers instead of fresh heap allocations.
    pool: Option<std::sync::Arc<mad_util::pool::BufferPool>>,
    /// Acked streams whose end packet was consumed successfully (recorded
    /// by [`StreamAssembler::finish_delivered`]), per source no further
    /// than [`DELIVERED_SPAN`] ids behind the newest. A retry header for
    /// such a stream means only the sender's handoff ack was lost — the
    /// replay is absorbed as a ghost instead of delivered twice.
    delivered: BTreeSet<StreamKey>,
}

/// How far behind a source's newest delivered `msg_id` a delivered stream
/// is still remembered. A retry header can only come from a writer still
/// inside `end_packing`, and `msg_id` is one counter per source, so an id
/// this far back belongs to a writer that returned long ago.
const DELIVERED_SPAN: u32 = 1024;

/// What an assembler holds under one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Nothing,
    Live,
    Ghost,
}

/// The streams one received packet opened, in header-arrival order: the
/// tail of the ready queue they joined, borrowed, so reporting them
/// allocates nothing. A batch frame may open several.
pub struct Opened<'a> {
    ready: &'a VecDeque<StreamKey>,
    from: usize,
}

impl Opened<'_> {
    /// The opened streams' keys.
    pub fn iter(&self) -> impl Iterator<Item = StreamKey> + '_ {
        self.ready.range(self.from..).copied()
    }

    /// True when the packet opened no stream.
    pub fn is_empty(&self) -> bool {
        self.from == self.ready.len()
    }
}

impl<T: AsRef<[StreamKey]>> PartialEq<T> for Opened<'_> {
    fn eq(&self, keys: &T) -> bool {
        self.iter().eq(keys.as_ref().iter().copied())
    }
}

impl std::fmt::Debug for Opened<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl StreamAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty assembler drawing batch-split fragment copies from `pool`.
    pub fn with_pool(pool: std::sync::Arc<mad_util::pool::BufferPool>) -> Self {
        StreamAssembler {
            pool: Some(pool),
            ..Self::default()
        }
    }

    /// Feed one received packet — possibly a batch frame, which is split
    /// into its sub-packets in order. Reports the streams the packet opened
    /// (headers that just arrived); empty for anything else. A packet the
    /// assembler refuses changes nothing: a batch frame is checked whole
    /// before any of its packets is applied.
    pub fn push_packet(&mut self, packet: impl Into<PooledBuf>) -> Result<Opened<'_>> {
        self.push_packet_from(0, packet)
    }

    /// Like [`StreamAssembler::push_packet`], naming the conduit the packet
    /// arrived on (any non-zero token; 0 means "unconstrained"). Multi-path
    /// receivers pass distinct origins per conduit: a single-path stream is
    /// pinned to the conduit its header came from, so stale packets of a
    /// failed-over (dead) path are dropped silently instead of corrupting
    /// the replayed stream.
    pub fn push_packet_from(
        &mut self,
        origin: u64,
        packet: impl Into<PooledBuf>,
    ) -> Result<Opened<'_>> {
        let packet = packet.into();
        let (tag, body) = decode_packet(&packet)?;
        let from = self.ready.len();
        if matches!(body, PacketBody::Batch) {
            self.check_frame(&packet)?;
            for sub in batch_packets(&packet)? {
                let (tag, body) = decode_packet(sub)?;
                // Only fragments are kept as bytes; every other kind is
                // spent once decoded.
                let buf = match (&body, &self.pool) {
                    (PacketBody::Frag, Some(pool)) => {
                        let mut b = pool.get(sub.len());
                        b.vec().extend_from_slice(sub);
                        b
                    }
                    (PacketBody::Frag, None) => sub.to_vec().into(),
                    _ => PooledBuf::default(),
                };
                self.apply(origin, buf, tag.key(), body);
            }
        } else {
            let key = tag.key();
            self.admit(key, &body, self.held(key))?;
            self.apply(origin, packet, key, body);
        }
        Ok(Opened {
            ready: &self.ready,
            from,
        })
    }

    /// Would every packet of a batch frame be accepted, in order? A packet
    /// naming a key other than the one before replays that key's earlier
    /// packets in the frame, so the check sees each key as the packets
    /// ahead of it left it.
    fn check_frame(&self, frame: &[u8]) -> Result<()> {
        let mut last: Option<(StreamKey, Held)> = None;
        for (i, sub) in batch_packets(frame)?.enumerate() {
            let (tag, body) = decode_packet(sub)?;
            let key = tag.key();
            let held = match last {
                Some((k, held)) if k == key => held,
                _ => {
                    let mut held = self.held(key);
                    for earlier in batch_packets(frame)?.take(i) {
                        let (t, b) = decode_packet(earlier)?;
                        if t.key() == key {
                            held = self.admit(key, &b, held)?;
                        }
                    }
                    held
                }
            };
            last = Some((key, self.admit(key, &body, held)?));
        }
        Ok(())
    }

    fn held(&self, key: StreamKey) -> Held {
        match self.streams.get(&key) {
            None => Held::Nothing,
            Some(s) if s.ghost => Held::Ghost,
            Some(_) => Held::Live,
        }
    }

    /// Does a packet of `key`, which holds `held`, belong in an assembler?
    /// What the key holds after it, or why not. Decides; changes nothing.
    fn admit(&self, key: StreamKey, body: &PacketBody, held: Held) -> Result<Held> {
        match body {
            PacketBody::Batch => Err(MadError::Protocol(
                "nested batch frame reached a stream assembler".into(),
            )),
            PacketBody::Credit(_) => {
                // Credits are hop-by-hop flow control consumed by writers
                // and gateway engines; one surviving to an assembler means
                // a routing layer leaked it.
                Err(MadError::Protocol(format!(
                    "credit packet for stream {key:?} reached a stream assembler"
                )))
            }
            PacketBody::Ack => {
                // Acks flow toward stream origins and are consumed by the
                // multi-path writer's pump, never by a receiving assembler.
                Err(MadError::Protocol(format!(
                    "handoff ack for stream {key:?} reached a stream assembler"
                )))
            }
            PacketBody::MetricsRequest | PacketBody::MetricsReply | PacketBody::Member(_) => {
                // Metrics pulls and membership events are served by their
                // planes (gateway engines and endpoint responders) on
                // special channels and open no stream; one here means a
                // routing layer leaked it.
                Err(MadError::Protocol(format!(
                    "control-plane packet for {key:?} reached a stream assembler"
                )))
            }
            PacketBody::Header(header) => match held {
                // The retry of a stream that already arrived in full opens
                // a ghost (see `push_header`).
                Held::Nothing if header.retry && self.delivered.contains(&key) => Ok(Held::Ghost),
                Held::Nothing => Ok(Held::Live),
                // A retry grafts over a live stream or keeps a ghost one.
                _ if header.retry => Ok(held),
                _ => Err(MadError::Protocol(format!(
                    "duplicate GTM header for stream {key:?}"
                ))),
            },
            _ => match held {
                Held::Nothing => Err(MadError::Protocol(format!(
                    "GTM packet for unknown stream {key:?}"
                ))),
                Held::Ghost if matches!(body, PacketBody::End | PacketBody::Cancel(_)) => {
                    Ok(Held::Nothing)
                }
                _ => Ok(held),
            },
        }
    }

    /// Apply one packet [`StreamAssembler::admit`] accepted.
    fn apply(&mut self, origin: u64, packet: PooledBuf, key: StreamKey, body: PacketBody) {
        if let PacketBody::Header(header) = body {
            return self.push_header(origin, key, header);
        }
        let Some(stream) = self.streams.get_mut(&key) else {
            unreachable!("admitted packet for unknown stream {key:?}")
        };
        if stream.ghost {
            // Replay of an already-delivered stream: swallow the body and
            // drop the ghost once its terminator arrives.
            if matches!(body, PacketBody::End | PacketBody::Cancel(_)) {
                self.streams.remove(&key);
            }
            return;
        }
        if stream.origin != 0 && origin != 0 && origin != stream.origin {
            // Stale leftover of a path the stream failed away from.
            return;
        }
        stream.items.push_back(match body {
            PacketBody::Part(d) => StreamItem::Part(d),
            PacketBody::Frag => StreamItem::Frag(packet),
            PacketBody::End => StreamItem::End,
            PacketBody::Cancel(reason) => StreamItem::Cancelled(reason),
            PacketBody::Header(_)
            | PacketBody::Credit(_)
            | PacketBody::Batch
            | PacketBody::Ack
            | PacketBody::MetricsRequest
            | PacketBody::MetricsReply
            | PacketBody::Member(_) => {
                unreachable!()
            }
        });
    }

    fn push_header(&mut self, origin: u64, key: StreamKey, header: GtmHeader) {
        match self.streams.get_mut(&key) {
            None => {
                // The stream already arrived in full on its first attempt
                // when a retry finds it delivered — only the sender's
                // handoff ack was lost. Open a ghost: absorb the replay
                // without surfacing a second copy to the application.
                let ghost = header.retry && self.delivered.contains(&key);
                self.streams.insert(
                    key,
                    PendingStream {
                        header,
                        items: VecDeque::new(),
                        origin,
                        ghost,
                    },
                );
                if !ghost {
                    self.ready.push_back(key);
                }
            }
            Some(stream) => {
                stream.origin = origin;
                stream.items.clear();
                if !stream.ghost {
                    // Failover graft: the sender re-issues the stream from
                    // scratch on a surviving path. Unconsumed buffered
                    // items (including a queued cancel) are superseded by
                    // the replay; the restart marker tells the reader to
                    // resynchronize. A ghost keeps absorbing on the new
                    // path.
                    stream.header = header;
                    stream.items.push_back(StreamItem::Restart);
                }
            }
        }
    }

    /// May a whole-stream frame ([`whole_stream`]) with this header be read
    /// in place, past the assembler? Only when no stream waits to be
    /// claimed (which keeps header-arrival order), the key is not open here
    /// (an open key's packets must meet the rules for it) and the header is
    /// not a retry (which grafts or opens a ghost).
    pub fn admits_in_place(&self, header: &GtmHeader) -> bool {
        self.ready.is_empty() && !self.streams.contains_key(&header.tag.key()) && !header.retry
    }

    /// True if a stream waits to be claimed, without claiming it.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Next unclaimed stream, in header-arrival order.
    pub fn pop_ready(&mut self) -> Option<StreamKey> {
        self.ready.pop_front()
    }

    /// The header of a known stream.
    pub fn header(&self, key: StreamKey) -> Option<GtmHeader> {
        self.streams.get(&key).map(|s| s.header)
    }

    /// Pop the next buffered item of a stream, if any.
    pub fn next_item(&mut self, key: StreamKey) -> Option<StreamItem> {
        self.streams.get_mut(&key)?.items.pop_front()
    }

    /// True if a stream has a buffered item, without taking it.
    pub fn has_item(&self, key: StreamKey) -> bool {
        self.streams.get(&key).is_some_and(|s| !s.items.is_empty())
    }

    /// Drop a fully consumed stream.
    pub fn finish(&mut self, key: StreamKey) {
        self.streams.remove(&key);
    }

    /// Like [`StreamAssembler::finish`], for a stream whose end packet was
    /// consumed successfully. Streams that requested a handoff ack are
    /// remembered so a later retry — meaning the ack, not the stream, was
    /// lost — is absorbed as a ghost instead of delivered twice. Recording
    /// one forgets what its source delivered `DELIVERED_SPAN` ids ago.
    pub fn finish_delivered(&mut self, key: StreamKey) {
        if let Some(header) = self.header(key) {
            self.note_delivered(&header);
        }
        self.finish(key);
    }

    /// Record the stream `header` opens as delivered, when it asked for a
    /// handoff ack, as [`StreamAssembler::finish_delivered`] does: for a
    /// stream read in place, which this assembler never held.
    pub fn note_delivered(&mut self, header: &GtmHeader) {
        if !header.acked {
            return;
        }
        let key = header.tag.key();
        self.delivered.insert(key);
        let (src, id) = key;
        if let Some(stale) = id.checked_sub(DELIVERED_SPAN) {
            while let Some(&old) = self.delivered.range((src, 0)..=(src, stale)).next() {
                self.delivered.remove(&old);
            }
        }
    }

    /// True when no stream state is held at all.
    pub fn is_idle(&self) -> bool {
        self.streams.is_empty() && self.ready.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn tag(src: u32, dest: u32, msg_id: u32) -> StreamTag {
        StreamTag {
            src: NodeId(src),
            dest: NodeId(dest),
            msg_id,
        }
    }

    /// The packets on the wire toward node 1, frames split into their
    /// members, in order — and how many wire packets carried them.
    fn drain_wire(peer: &Channel) -> (Vec<Vec<u8>>, usize) {
        let mut conduit = peer.lock_conduit(NodeId(0)).unwrap();
        let (mut packets, mut sends) = (Vec::new(), 0);
        while conduit.ready() {
            let wire = conduit.recv_owned().unwrap();
            sends += 1;
            match decode_packet(&wire).unwrap().1 {
                PacketBody::Batch => {
                    packets.extend(batch_packets(&wire).unwrap().map(<[u8]>::to_vec))
                }
                _ => packets.push(wire),
            }
        }
        (packets, sends)
    }

    fn kinds(packets: &[Vec<u8>]) -> Vec<u8> {
        packets.iter().map(|p| p[2]).collect()
    }

    /// A flow-controlled writer's credit account on a plane with nothing
    /// behind it: the peer never grants.
    fn silent_flow(window: u32, timeout_ns: u64) -> (crate::credit::FlowControl, WriterFlow) {
        let plane = crate::control_plane::ControlPlane::bare(NodeId(0));
        let flow = crate::credit::FlowControl::new(plane, window, timeout_ns);
        let writer = flow.writer(true);
        (flow, writer)
    }

    #[test]
    fn small_message_leaves_as_one_frame_at_end_packing() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 1);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, None).unwrap();
        w.pack(&[7u8; 64], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        w.pack(&[8u8; 32], SendMode::Cheaper, RecvMode::Cheaper)
            .unwrap();
        assert_eq!(drain_wire(&b).1, 0, "deferred blocks wait for the end");
        w.end_packing().unwrap();
        let (packets, sends) = drain_wire(&b);
        assert_eq!(
            sends, 1,
            "header, descriptors, fragments and end share a frame"
        );
        assert_eq!(
            kinds(&packets),
            [
                KIND_HEADER,
                KIND_PART,
                KIND_FRAG,
                KIND_PART,
                KIND_FRAG,
                KIND_END
            ]
        );
    }

    #[test]
    fn express_block_is_on_the_wire_when_pack_returns() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 1);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, None).unwrap();
        w.pack(&[1u8; 16], SendMode::Later, RecvMode::Express)
            .unwrap();
        let (packets, sends) = drain_wire(&b);
        assert_eq!(sends, 1);
        assert_eq!(kinds(&packets), [KIND_HEADER, KIND_PART, KIND_FRAG]);
        // `Safer` flushes too: the caller may reuse its buffer right away.
        w.pack(&[2u8; 16], SendMode::Safer, RecvMode::Cheaper)
            .unwrap();
        assert_eq!(kinds(&drain_wire(&b).0), [KIND_PART, KIND_FRAG]);
        w.end_packing().unwrap();
        let (packets, sends) = drain_wire(&b);
        assert_eq!(sends, 1);
        assert_eq!(packets, [encode_end(&t)], "a lone packet leaves unframed");
    }

    #[test]
    fn bulk_fragments_leave_alone_between_the_trains() {
        use crate::testutil::{channel_pair, MockDriver};
        // Frame budget 4096: a 4096-byte fragment plus its prelude never
        // fits, a 100-byte tail does.
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 1);
        let data = vec![5u8; 2 * 4096 + 100];
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 4096, false, None).unwrap();
        w.pack(&data, SendMode::Later, RecvMode::Cheaper).unwrap();
        w.end_packing().unwrap();
        let mut conduit = b.lock_conduit(NodeId(0)).unwrap();
        let mut wire = Vec::new();
        while conduit.ready() {
            wire.push(conduit.recv_owned().unwrap());
        }
        let wire_kinds: Vec<u8> = wire.iter().map(|p| p[2]).collect();
        assert_eq!(wire_kinds, [KIND_BATCH, KIND_FRAG, KIND_FRAG, KIND_BATCH]);
        let inner =
            |frame: &[u8]| -> Vec<u8> { batch_packets(frame).unwrap().map(|p| p[2]).collect() };
        assert_eq!(inner(&wire[0]), [KIND_HEADER, KIND_PART]);
        assert_eq!(inner(&wire[3]), [KIND_FRAG, KIND_END]);
    }

    /// More fragments than the window, and a first hop that never grants.
    /// A train holds half a window, so the hop has one to forward while
    /// the next is staged; and whatever is staged when the window runs
    /// dry — on a shorter stream, the header before all — is on the wire
    /// before the writer starts waiting, and the wait ends typed.
    #[test]
    fn trains_are_half_windows_and_a_dry_window_flushes_before_waiting() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 9);
        let (_flow, writer) = silent_flow(3, 20_000_000);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, Some(writer)).unwrap();
        let block = [3u8; 8];
        let pack = |w: &mut GtmWriter| w.pack(&block, SendMode::Later, RecvMode::Cheaper);
        pack(&mut w).unwrap();
        pack(&mut w).unwrap();
        assert_eq!(
            drain_wire(&b).1,
            0,
            "within the window nothing has to leave"
        );
        pack(&mut w).unwrap();
        let (packets, sends) = drain_wire(&b);
        assert_eq!(sends, 1, "the third fragment sends the first two ahead");
        assert_eq!(
            kinds(&packets),
            [
                KIND_HEADER,
                KIND_PART,
                KIND_FRAG,
                KIND_PART,
                KIND_FRAG,
                KIND_PART
            ]
        );
        let err = pack(&mut w).unwrap_err();
        assert!(matches!(err, MadError::CreditTimeout { .. }), "{err:?}");
        let (packets, sends) = drain_wire(&b);
        assert_eq!(sends, 2, "what was staged, then the cancel that chases it");
        assert_eq!(kinds(&packets), [KIND_FRAG, KIND_PART, KIND_CANCEL]);
        // Hops hold state for the stream, so a sealed writer still ends it.
        w.end_packing().unwrap();
        assert_eq!(kinds(&drain_wire(&b).0), [KIND_END]);
    }

    /// Bulk fragments leave alone and take their credits with them: the
    /// small block behind them starts a fresh train, descriptor included.
    #[test]
    fn small_block_after_a_bulk_block_rides_one_train() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 5);
        let (_flow, writer) = silent_flow(8, 20_000_000);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 4096, false, Some(writer)).unwrap();
        // Five lone fragments. The first flushes the header's train ahead
        // of it; were the other four counted as staged, they would make
        // half a window and send the next descriptor off on its own.
        w.pack(&vec![5u8; 5 * 4096], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        w.pack(&[6u8; 8], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        w.end_packing().unwrap();
        let mut conduit = b.lock_conduit(NodeId(0)).unwrap();
        let mut wire = Vec::new();
        while conduit.ready() {
            wire.push(conduit.recv_owned().unwrap());
        }
        let wire_kinds: Vec<u8> = wire.iter().map(|p| p[2]).collect();
        assert_eq!(
            wire_kinds,
            [KIND_BATCH, KIND_FRAG, KIND_FRAG, KIND_FRAG, KIND_FRAG, KIND_FRAG, KIND_BATCH]
        );
        let inner =
            |frame: &[u8]| -> Vec<u8> { batch_packets(frame).unwrap().map(|p| p[2]).collect() };
        assert_eq!(inner(&wire[0]), [KIND_HEADER, KIND_PART]);
        assert_eq!(inner(&wire[6]), [KIND_PART, KIND_FRAG, KIND_END]);
    }

    /// A cancel reaches a writer only through its ledger account, which
    /// opens as the first train leaves: before that no hop knows the
    /// stream. After it, the cancel fails the next `pack`, a cancel packet
    /// chases the stream and the account is released.
    #[test]
    fn abort_after_the_account_opens_releases_it() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let t = tag(0, 2, 4);
        let (flow, writer) = silent_flow(4, 20_000_000);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, Some(writer)).unwrap();
        w.pack(&[1u8; 8], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        assert!(
            !flow
                .ledger()
                .cancel_existing(t.key(), CancelReason::PeerUnreachable),
            "nothing has left: no account for a cancel to mark"
        );
        // An express block puts the train on the wire, the account first.
        w.pack(&[1u8; 8], SendMode::Later, RecvMode::Express)
            .unwrap();
        assert_eq!(flow.ledger().available(t.key()), Some(2));
        assert_eq!(drain_wire(&b).1, 1);
        // The stream dies: a downstream cancel reached the ledger.
        flow.ledger().cancel(t.key(), CancelReason::PeerUnreachable);
        let err = w
            .pack(&[1u8; 8], SendMode::Later, RecvMode::Cheaper)
            .unwrap_err();
        assert_eq!(err, MadError::PeerUnreachable(NodeId(2)));
        assert!(flow.ledger().is_idle(), "the account is released");
        assert_eq!(
            kinds(&drain_wire(&b).0),
            [KIND_CANCEL],
            "the staged descriptor is forgotten"
        );
        w.end_packing().unwrap();
        assert_eq!(kinds(&drain_wire(&b).0), [KIND_END]);
        assert!(flow.ledger().is_idle());
    }

    /// The credits a stream's ledger account held as each packet reached
    /// the wire; `None` when it had no account.
    type Seen = std::sync::Arc<mad_util::sync::Mutex<Vec<Option<u64>>>>;

    /// A flow-controlled writer's credit account, and a driver whose every
    /// send records it in [`Seen`].
    fn watched_flow(
        window: u32,
        t: StreamTag,
    ) -> (
        crate::credit::FlowControl,
        WriterFlow,
        std::sync::Arc<crate::testutil::MockDriver>,
        Seen,
    ) {
        let (flow, writer) = silent_flow(window, 20_000_000);
        let seen = std::sync::Arc::new(mad_util::sync::Mutex::new(Vec::new()));
        let (ledger, at_send) = (flow.ledger().clone(), seen.clone());
        let driver = crate::testutil::MockDriver::at_send(move || {
            at_send.lock().push(ledger.available(t.key()))
        });
        (flow, writer, driver, seen)
    }

    /// A stream whose one frame carries its end pays its credits from its
    /// own count: no ledger account opens at any point.
    #[test]
    fn a_one_frame_stream_never_opens_an_account() {
        use crate::testutil::channel_pair;
        let t = tag(0, 2, 6);
        let (flow, writer, driver, seen) = watched_flow(8, t);
        let (a, b) = channel_pair(driver);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, Some(writer)).unwrap();
        assert_eq!(flow.ledger().available(t.key()), None);
        for block in [[1u8; 64], [2u8; 64], [3u8; 64]] {
            w.pack(&block, SendMode::Later, RecvMode::Cheaper).unwrap();
            assert_eq!(flow.ledger().available(t.key()), None);
        }
        w.end_packing().unwrap();
        assert_eq!(*seen.lock(), [None], "one frame, sent with no account");
        assert!(flow.ledger().is_idle());
        assert_eq!(drain_wire(&b).1, 1);
    }

    /// A stream that sends a train ahead of its end opens its account
    /// before that train reaches the conduit, with the window less what
    /// the train's fragments took, and closes it before the end leaves.
    #[test]
    fn a_multi_train_stream_opens_its_account_before_the_first_train() {
        use crate::testutil::channel_pair;
        let t = tag(0, 2, 7);
        let (flow, writer, driver, seen) = watched_flow(8, t);
        let (a, b) = channel_pair(driver);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, Some(writer)).unwrap();
        // Half a window is four fragments: the fifth sends them ahead.
        for _ in 0..5 {
            w.pack(&[4u8; 8], SendMode::Later, RecvMode::Cheaper)
                .unwrap();
        }
        assert_eq!(*seen.lock(), [Some(4)], "8 credits less the train's 4");
        assert_eq!(flow.ledger().available(t.key()), Some(3));
        w.end_packing().unwrap();
        assert_eq!(*seen.lock(), [Some(4), None], "closed before the end");
        assert!(flow.ledger().is_idle());
        assert_eq!(drain_wire(&b).1, 2);
    }

    /// A 64 B message stages into one pool buffer, drawn for it, and a
    /// queue-push driver queues that buffer itself: the peer receives the
    /// very allocation the writer staged into.
    #[test]
    fn a_small_message_is_one_pool_buffer_handed_to_the_peer() {
        use crate::testutil::{channel_pair, MockDriver};
        let driver = MockDriver::queued();
        let (a, b) = channel_pair(driver.clone());
        let pool = a.runtime().pool().clone();
        let t = tag(0, 2, 8);
        let gets = pool.stats().gets;
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, None).unwrap();
        w.pack(&[9u8; 64], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        w.end_packing().unwrap();
        assert_eq!(pool.stats().gets - gets, 1, "one draw for the message");
        let handed = driver.owned_sends();
        assert_eq!(handed.len(), 1, "the frame is handed over whole");
        let wire = b.lock_conduit(NodeId(0)).unwrap().recv_owned().unwrap();
        assert_eq!(wire.as_ptr() as usize, handed[0], "the staged allocation");
        assert_eq!(
            batch_packets(&wire)
                .unwrap()
                .map(|p| p[2])
                .collect::<Vec<_>>(),
            [KIND_HEADER, KIND_PART, KIND_FRAG, KIND_END]
        );
    }

    /// A driver that copies what it sends is never handed the stage: each
    /// train is sent by copy and the stage is kept for the next one, so
    /// how a stream splits into trains does not change what it draws.
    #[test]
    fn a_copying_driver_leaves_the_stage_with_the_writer() {
        use crate::testutil::{channel_pair, MockDriver};
        let driver = MockDriver::dynamic();
        let (a, b) = channel_pair(driver.clone());
        let pool = a.runtime().pool().clone();
        let t = tag(0, 2, 9);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, None).unwrap();
        // An express block puts the first train on the wire.
        w.pack(&[9u8; 64], SendMode::Later, RecvMode::Express)
            .unwrap();
        let gets = pool.stats().gets;
        w.pack(&[9u8; 64], SendMode::Later, RecvMode::Cheaper)
            .unwrap();
        w.end_packing().unwrap();
        assert_eq!(
            pool.stats().gets,
            gets,
            "the second train stages in the first one's buffer"
        );
        assert!(driver.owned_sends().is_empty(), "nothing handed over");
        assert_eq!(drain_wire(&b).1, 2);
    }

    #[test]
    fn dead_first_hop_surfaces_at_the_first_flush() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        drop(b);
        let t = tag(0, 2, 4);
        let mut w = GtmWriter::begin(&a, NodeId(1), t, 1024, false, None)
            .expect("beginning a stream touches no wire");
        w.pack(&[1u8; 8], SendMode::Later, RecvMode::Cheaper)
            .expect("a deferred block is only staged");
        assert_eq!(w.end_packing(), Err(MadError::Disconnected));
    }

    #[test]
    fn member_packets_round_trip_and_validate() {
        let t = tag(4, 9, 17);
        for event in [
            MemberEvent::JoinRequest,
            MemberEvent::JoinAck,
            MemberEvent::Leave,
            MemberEvent::Announce,
        ] {
            let msg = MemberMsg {
                event,
                node: 4,
                epoch: 3,
            };
            let pkt = encode_member(&t, &msg);
            assert_eq!(pkt.len(), MEMBER_PACKET_LEN);
            assert_eq!(decode_packet(&pkt), Ok((t, PacketBody::Member(msg))));
        }
        // Truncation, unknown events, and epoch 0 (epochs start at 1 —
        // a zero can only be a corrupted packet) are all rejected.
        let good = encode_member(
            &t,
            &MemberMsg {
                event: MemberEvent::Announce,
                node: 4,
                epoch: 1,
            },
        );
        assert!(decode_packet(&good[..good.len() - 1]).is_err());
        let mut bad_event = good.clone();
        bad_event[PRELUDE_LEN] = 9;
        assert!(decode_packet(&bad_event).is_err());
        let mut zero_epoch = good;
        zero_epoch[PRELUDE_LEN + 5..PRELUDE_LEN + 13].fill(0);
        assert!(decode_packet(&zero_epoch).is_err());
    }

    /// What the retired kinds looked like on the wire while they existed,
    /// written out by hand — no encoder is kept. Kind 12: prelude,
    /// direction byte (1 = the former rendezvous RTS, 2 = its CTS), block
    /// length, MTU and window. Kind 8: prelude, a `u32` sequence number and
    /// one whole fragment packet of the same stream (the former stripe
    /// envelope).
    pub(crate) fn retired_kinds(t: &StreamTag) -> Vec<Vec<u8>> {
        let mut packets = Vec::new();
        for direction in [1u8, 2] {
            let mut v = prelude(12, t).to_vec();
            v.push(direction);
            v.extend_from_slice(&(1u64 << 20).to_le_bytes());
            v.extend_from_slice(&8192u32.to_le_bytes());
            v.extend_from_slice(&128u32.to_le_bytes());
            packets.push(v);
        }
        let mut v = prelude(8, t).to_vec();
        v.extend_from_slice(&0u32.to_le_bytes());
        v.extend_from_slice(&frag_prelude(t));
        v.extend_from_slice(b"data");
        packets.push(v);
        packets
    }

    /// A retired kind is hostile bytes, not a crash: a well-formed former
    /// RTS, CTS or stripe envelope is an unknown kind to the decoder, never
    /// reaches a control plane (so no ledger account can come of it) and is
    /// refused by a receiving assembler, whose stream goes on.
    #[test]
    fn retired_kinds_are_rejected() {
        let t = tag(2, 7, 33);
        let mut asm = StreamAssembler::new();
        asm.push_packet(encode_header(&GtmHeader::new(t, 8, false)))
            .unwrap();
        for pkt in retired_kinds(&t) {
            assert!(matches!(decode_packet(&pkt), Err(MadError::Protocol(_))));
            assert_eq!(crate::control_plane::fuzz_dispatch(&pkt), None);
            assert!(matches!(asm.push_packet(pkt), Err(MadError::Protocol(_))));
        }
        asm.push_packet(encode_end(&t)).unwrap();
        let k = asm.pop_ready().unwrap();
        assert_eq!(asm.next_item(k), Some(StreamItem::End));
    }

    #[test]
    fn landing_floor_covers_every_control_packet() {
        // Tiny MTUs still land a full metrics reply; bulk MTUs are sized
        // by the tagged fragment itself.
        assert_eq!(landing_size_for(1), METRICS_PACKET_MAX);
        assert_eq!(landing_size_for(64), METRICS_PACKET_MAX);
        let bulk = 64 * 1024;
        assert_eq!(landing_size_for(bulk), PRELUDE_LEN + bulk);
        // Every fixed-size packet this module can emit fits the floor.
        for fixed in [
            HEADER_LEN,
            PART_LEN,
            CREDIT_LEN,
            CANCEL_LEN,
            MEMBER_PACKET_LEN,
            METRICS_PACKET_MAX,
        ] {
            assert!(
                landing_size_for(1) >= fixed,
                "floor misses {fixed}-byte packet"
            );
        }
    }

    #[test]
    fn control_round_trips() {
        let h = GtmHeader::new(tag(3, 7, 41), 16384, false);
        assert_eq!(
            decode_packet(&encode_header(&h)),
            Ok((h.tag, PacketBody::Header(h)))
        );
        let hd = GtmHeader::new(tag(2, 5, 0), 1, true);
        assert_eq!(
            decode_packet(&encode_header(&hd)),
            Ok((hd.tag, PacketBody::Header(hd)))
        );
        let d = GtmPartDesc {
            len: 123456789,
            send: SendMode::Later,
            recv: RecvMode::Cheaper,
        };
        let t = tag(1, 2, 3);
        assert_eq!(
            decode_packet(&encode_part(&t, &d)),
            Ok((t, PacketBody::Part(d)))
        );
        assert_eq!(decode_packet(&encode_end(&t)), Ok((t, PacketBody::End)));
        let mut frag = frag_prelude(&t).to_vec();
        frag.extend_from_slice(b"abc");
        assert_eq!(decode_packet(&frag), Ok((t, PacketBody::Frag)));
        assert_eq!(frag_payload(&frag), b"abc");
        assert_eq!(
            decode_packet(&encode_credit(&t, 1)),
            Ok((t, PacketBody::Credit(1)))
        );
        assert_eq!(
            decode_packet(&encode_credit(&t, u32::MAX)),
            Ok((t, PacketBody::Credit(u32::MAX)))
        );
        for reason in [CancelReason::PeerUnreachable, CancelReason::CreditTimeout] {
            assert_eq!(
                decode_packet(&encode_cancel(&t, reason)),
                Ok((t, PacketBody::Cancel(reason)))
            );
        }
        assert_eq!(decode_packet(&encode_ack(&t)), Ok((t, PacketBody::Ack)));
        let mut acked = GtmHeader::new(t, 4096, false);
        acked.acked = true;
        assert_eq!(
            decode_packet(&encode_header(&acked)),
            Ok((t, PacketBody::Header(acked)))
        );
        let mut acked_retry = acked;
        acked_retry.retry = true;
        assert_eq!(
            decode_packet(&encode_header(&acked_retry)),
            Ok((t, PacketBody::Header(acked_retry)))
        );
    }

    #[test]
    fn malformed_packets_rejected() {
        assert!(decode_packet(&[]).is_err());
        assert!(decode_packet(&[0x00; PRELUDE_LEN]).is_err());
        // Version 1 framing must be rejected, not misparsed.
        let mut v1ish = encode_end(&tag(0, 1, 0));
        v1ish[1] = 1;
        assert!(decode_packet(&v1ish).is_err());
        // Unknown kind.
        let mut bad = encode_end(&tag(0, 1, 0));
        bad[2] = 99;
        assert!(decode_packet(&bad).is_err());
        // Truncated header.
        let h = encode_header(&GtmHeader::new(tag(0, 1, 0), 64, false));
        assert!(decode_packet(&h[..h.len() - 1]).is_err());
        // Zero MTU.
        let mut z = h.clone();
        z[15..19].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_packet(&z).is_err());
        // Unknown flag bits.
        let mut f = h;
        f[19] = 0xF0;
        assert!(decode_packet(&f).is_err());
        // Bad flag bytes in a descriptor.
        let mut d = encode_part(
            &tag(0, 1, 0),
            &GtmPartDesc {
                len: 1,
                send: SendMode::Safer,
                recv: RecvMode::Express,
            },
        );
        d[23] = 77;
        assert!(decode_packet(&d).is_err());
        // A fragment must carry at least one payload byte.
        assert!(decode_packet(&frag_prelude(&tag(0, 1, 0))).is_err());
        // A zero-count credit grant is meaningless and must be rejected.
        let mut c = encode_credit(&tag(0, 1, 0), 1);
        c[15..19].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_packet(&c).is_err());
        // Truncated credit.
        let c2 = encode_credit(&tag(0, 1, 0), 3);
        assert!(decode_packet(&c2[..c2.len() - 1]).is_err());
        // Unknown cancel reason byte.
        let mut k = encode_cancel(&tag(0, 1, 0), CancelReason::PeerUnreachable);
        k[15] = 0;
        assert!(decode_packet(&k).is_err());
        // An ack is the bare prelude — trailing bytes are a framing error.
        let mut a = encode_ack(&tag(0, 1, 0));
        a.push(0);
        assert!(decode_packet(&a).is_err());
    }

    /// The handoff-ack dedup: a retry of a stream finished via
    /// `finish_delivered` is absorbed as a ghost (never surfaced), while a
    /// retry of a *cancelled* stream replays normally.
    #[test]
    fn retry_of_delivered_stream_is_absorbed_as_ghost() {
        let t = tag(3, 9, 7);
        let mut h = GtmHeader::new(t, 8, false);
        h.acked = true;
        let desc = GtmPartDesc {
            len: 3,
            send: SendMode::Later,
            recv: RecvMode::Cheaper,
        };
        let mut frag = frag_prelude(&t).to_vec();
        frag.extend_from_slice(b"abc");

        // First attempt delivers in full.
        let mut asm = StreamAssembler::new();
        assert_eq!(
            asm.push_packet_from(1, encode_header(&h)).unwrap(),
            [t.key()]
        );
        asm.push_packet_from(1, encode_part(&t, &desc)).unwrap();
        asm.push_packet_from(1, frag.clone()).unwrap();
        asm.push_packet_from(1, encode_end(&t)).unwrap();
        let k = asm.pop_ready().unwrap();
        assert!(matches!(asm.next_item(k), Some(StreamItem::Part(_))));
        assert!(matches!(asm.next_item(k), Some(StreamItem::Frag(_))));
        assert_eq!(asm.next_item(k), Some(StreamItem::End));
        asm.finish_delivered(k);

        // The ack was lost: the sender re-issues the whole stream with the
        // retry flag. Nothing must surface a second time.
        let mut hr = h;
        hr.retry = true;
        assert!(asm
            .push_packet_from(2, encode_header(&hr))
            .unwrap()
            .is_empty());
        asm.push_packet_from(2, encode_part(&t, &desc)).unwrap();
        asm.push_packet_from(2, frag.clone()).unwrap();
        asm.push_packet_from(2, encode_end(&t)).unwrap();
        assert_eq!(asm.pop_ready(), None);
        assert!(asm.is_idle(), "ghost must be dropped once its end arrives");

        // A key finished WITHOUT delivery (cancelled) replays normally.
        let t2 = tag(3, 9, 8);
        let mut h2 = GtmHeader::new(t2, 8, false);
        h2.acked = true;
        asm.push_packet_from(1, encode_header(&h2)).unwrap();
        let k2 = asm.pop_ready().unwrap();
        asm.finish(k2); // plain finish: not delivered
        let mut h2r = h2;
        h2r.retry = true;
        assert_eq!(
            asm.push_packet_from(2, encode_header(&h2r)).unwrap(),
            [t2.key()],
            "retry of an undelivered stream must open normally"
        );
    }

    /// The delivered set holds one source's last `DELIVERED_SPAN` ids and
    /// no more, however long the channel lives: a recent id is still
    /// absorbed as a ghost, an id a span back opens as a new stream.
    #[test]
    fn delivered_set_is_bounded_per_source() {
        const STREAMS: u32 = 10_000;
        let mut asm = StreamAssembler::new();
        let acked = |id: u32, retry: bool| {
            let mut h = GtmHeader::new(tag(3, 9, id), 8, false);
            h.acked = true;
            h.retry = retry;
            encode_header(&h)
        };
        for id in 0..STREAMS {
            asm.push_packet_from(1, acked(id, false)).unwrap();
            let k = asm.pop_ready().unwrap();
            asm.finish_delivered(k);
            assert!(asm.delivered.len() <= DELIVERED_SPAN as usize);
        }
        assert!(asm
            .push_packet_from(2, acked(STREAMS - 1, true))
            .unwrap()
            .is_empty());
        assert_eq!(
            asm.push_packet_from(2, acked(0, true)).unwrap(),
            [(3, 0)],
            "an id a span behind the newest is forgotten"
        );
    }

    #[test]
    fn assembler_rejects_stray_credits_and_queues_cancels() {
        let t = tag(5, 6, 1);
        let mut asm = StreamAssembler::new();
        asm.push_packet(encode_header(&GtmHeader::new(t, 8, false)))
            .unwrap();
        // A credit must never reach an assembler, even for a live stream.
        assert!(asm.push_packet(encode_credit(&t, 2)).is_err());
        // A cancel ends the stream in-band, after already-buffered items.
        asm.push_packet(encode_cancel(&t, CancelReason::CreditTimeout))
            .unwrap();
        let k = asm.pop_ready().unwrap();
        assert_eq!(
            asm.next_item(k),
            Some(StreamItem::Cancelled(CancelReason::CreditTimeout))
        );
    }

    #[test]
    fn batch_round_trips() {
        let t = tag(1, 2, 3);
        let mut frag = frag_prelude(&t).to_vec();
        frag.extend_from_slice(b"payload");
        let end = encode_end(&t);
        let credit = encode_credit(&t, 4);
        let frame = encode_batch(&[&frag, &end, &credit]);
        assert_eq!(decode_packet(&frame).unwrap().1, PacketBody::Batch);
        let subs: Vec<&[u8]> = batch_packets(&frame).unwrap().collect();
        assert_eq!(subs, vec![&frag[..], &end[..], &credit[..]]);
    }

    #[test]
    fn malformed_batches_rejected() {
        let t = tag(0, 1, 0);
        let end = encode_end(&t);
        // An empty batch is meaningless.
        assert!(decode_packet(&batch_prelude()).is_err());
        // Truncated train: length prefix promises more than is there.
        let mut frame = encode_batch(&[&end]);
        frame.truncate(frame.len() - 1);
        assert!(decode_packet(&frame).is_err());
        // Nested batches are forbidden.
        let inner = encode_batch(&[&end]);
        assert!(decode_packet(&encode_batch(&[&inner])).is_err());
        // batch_packets refuses non-batch input.
        assert!(batch_packets(&end).is_err());
    }

    #[test]
    fn assembler_splits_batch_frames() {
        let t = tag(8, 9, 2);
        let header = encode_header(&GtmHeader::new(t, 4, false));
        let part = encode_part(
            &t,
            &GtmPartDesc {
                len: 3,
                send: SendMode::Later,
                recv: RecvMode::Cheaper,
            },
        );
        let mut frag = frag_prelude(&t).to_vec();
        frag.extend_from_slice(b"xyz");
        let end = encode_end(&t);
        let frame = encode_batch(&[&header, &part, &frag, &end]);

        let pool = mad_util::pool::BufferPool::new();
        let mut asm = StreamAssembler::with_pool(pool);
        let opened = asm.push_packet(frame).unwrap();
        assert_eq!(opened, vec![t.key()], "batch split reports opened streams");
        let k = asm.pop_ready().unwrap();
        assert!(matches!(asm.next_item(k), Some(StreamItem::Part(d)) if d.len == 3));
        match asm.next_item(k) {
            Some(StreamItem::Frag(f)) => assert_eq!(frag_payload(&f), b"xyz"),
            other => panic!("expected fragment, got {other:?}"),
        }
        assert_eq!(asm.next_item(k), Some(StreamItem::End));
        asm.finish(k);
        assert!(asm.is_idle());
    }

    #[test]
    fn fragment_counts() {
        assert_eq!(fragment_count(0, 1024), 0);
        assert_eq!(fragment_count(1, 1024), 1);
        assert_eq!(fragment_count(1024, 1024), 1);
        assert_eq!(fragment_count(1025, 1024), 2);
        assert_eq!(fragment_count(10 * 1024, 1024), 10);
    }

    #[test]
    fn assembler_demultiplexes_interleaved_streams() {
        let (ta, tb) = (tag(0, 9, 0), tag(4, 9, 7));
        let mut frag_a = frag_prelude(&ta).to_vec();
        frag_a.extend_from_slice(b"aaaa");
        let mut frag_b = frag_prelude(&tb).to_vec();
        frag_b.extend_from_slice(b"bb");
        let part = |t: &StreamTag, len: u64| {
            encode_part(
                t,
                &GtmPartDesc {
                    len,
                    send: SendMode::Later,
                    recv: RecvMode::Cheaper,
                },
            )
        };

        let mut asm = StreamAssembler::new();
        // Interleave two streams packet by packet.
        asm.push_packet(encode_header(&GtmHeader::new(ta, 4, false)))
            .unwrap();
        asm.push_packet(encode_header(&GtmHeader::new(tb, 4, true)))
            .unwrap();
        asm.push_packet(part(&ta, 4)).unwrap();
        asm.push_packet(part(&tb, 2)).unwrap();
        asm.push_packet(frag_b.clone()).unwrap();
        asm.push_packet(frag_a.clone()).unwrap();
        asm.push_packet(encode_end(&tb)).unwrap();
        asm.push_packet(encode_end(&ta)).unwrap();

        // Ready order follows header arrival.
        let ka = asm.pop_ready().unwrap();
        let kb = asm.pop_ready().unwrap();
        assert_eq!(ka, ta.key());
        assert_eq!(kb, tb.key());
        assert!(!asm.header(ka).unwrap().direct);
        assert!(asm.header(kb).unwrap().direct);
        // Each stream drains in its own order, unpolluted by the other.
        assert!(matches!(asm.next_item(ka), Some(StreamItem::Part(d)) if d.len == 4));
        assert_eq!(asm.next_item(ka), Some(StreamItem::Frag(frag_a.into())));
        assert_eq!(asm.next_item(ka), Some(StreamItem::End));
        assert!(matches!(asm.next_item(kb), Some(StreamItem::Part(d)) if d.len == 2));
        assert_eq!(asm.next_item(kb), Some(StreamItem::Frag(frag_b.into())));
        assert_eq!(asm.next_item(kb), Some(StreamItem::End));
        asm.finish(ka);
        asm.finish(kb);
        assert!(asm.is_idle());
    }

    #[test]
    fn assembler_rejects_protocol_violations() {
        let t = tag(1, 2, 3);
        let mut asm = StreamAssembler::new();
        // Body packet for a stream whose header never arrived.
        assert!(asm.push_packet(encode_end(&t)).is_err());
        let h = GtmHeader::new(t, 16, false);
        asm.push_packet(encode_header(&h)).unwrap();
        // Duplicate header for a live stream.
        assert!(asm.push_packet(encode_header(&h)).is_err());
    }

    #[test]
    fn retry_header_round_trips_and_the_retired_flag_is_rejected() {
        let t = tag(3, 9, 5);
        let mut retry = GtmHeader::new(t, 4096, false);
        retry.retry = true;
        let pkt = encode_header(&retry);
        assert_eq!(pkt.len(), HEADER_LEN);
        assert_eq!(decode_packet(&pkt), Ok((t, PacketBody::Header(retry))));

        // Flag bit 2 once meant "striped" and announced a path-count byte:
        // with or without that byte it is an unknown flag now.
        let mut striped = pkt;
        striped[19] |= 4;
        assert!(matches!(
            decode_packet(&striped),
            Err(MadError::Protocol(_))
        ));
        striped.push(2);
        assert!(matches!(
            decode_packet(&striped),
            Err(MadError::Protocol(_))
        ));
    }

    #[test]
    fn assembler_grafts_retry_and_drops_stale_origins() {
        let t = tag(6, 2, 9);
        let part = |len: u64| {
            encode_part(
                &t,
                &GtmPartDesc {
                    len,
                    send: SendMode::Later,
                    recv: RecvMode::Cheaper,
                },
            )
        };
        let mut asm = StreamAssembler::new();
        // First attempt arrives via origin 1 and stalls mid-stream.
        asm.push_packet_from(1, encode_header(&GtmHeader::new(t, 8, false)))
            .unwrap();
        asm.push_packet_from(1, part(8)).unwrap();
        // The failover re-issue arrives via origin 2 with the retry flag:
        // buffered items are superseded by a restart marker.
        let mut retry = GtmHeader::new(t, 8, false);
        retry.retry = true;
        asm.push_packet_from(2, encode_header(&retry)).unwrap();
        let k = asm.pop_ready().unwrap();
        assert_eq!(asm.next_item(k), Some(StreamItem::Restart));
        // Stale leftovers of the dead path are swallowed silently...
        asm.push_packet_from(1, part(8)).unwrap();
        assert_eq!(asm.next_item(k), None);
        // ...while the live path's replay flows through.
        asm.push_packet_from(2, part(8)).unwrap();
        asm.push_packet_from(2, encode_end(&t)).unwrap();
        assert!(matches!(asm.next_item(k), Some(StreamItem::Part(d)) if d.len == 8));
        assert_eq!(asm.next_item(k), Some(StreamItem::End));
        asm.finish(k);
        assert!(asm.is_idle());
    }

    /// The four packets of a one-fragment stream: header, descriptor,
    /// fragment, end.
    fn small_stream(t: &StreamTag) -> [Vec<u8>; 4] {
        let part = encode_part(
            t,
            &GtmPartDesc {
                len: 3,
                send: SendMode::Cheaper,
                recv: RecvMode::Cheaper,
            },
        );
        let mut frag = frag_prelude(t).to_vec();
        frag.extend_from_slice(b"abc");
        [
            encode_header(&GtmHeader::new(*t, 64, false)),
            part,
            frag,
            encode_end(t),
        ]
    }

    fn batch_of(packets: &[&Vec<u8>]) -> Vec<u8> {
        let packets: Vec<&[u8]> = packets.iter().map(|p| p.as_slice()).collect();
        encode_batch(&packets)
    }

    #[test]
    fn whole_stream_reads_a_frame_that_is_one_stream() {
        let t = tag(1, 2, 3);
        let [h, p, f, e] = small_stream(&t);
        let whole = whole_stream(&batch_of(&[&h, &p, &f, &e])).unwrap();
        assert_eq!(
            whole,
            WholeStream {
                header: GtmHeader::new(t, 64, false),
                packets: 4,
                frags: 1,
                payload: 3,
                held: PRELUDE_LEN + 3,
            }
        );
        // A stream of no block is a whole stream too.
        assert_eq!(whole_stream(&batch_of(&[&h, &e])).unwrap().packets, 2);
    }

    #[test]
    fn whole_stream_refuses_a_header_not_first() {
        let [h, p, f, e] = small_stream(&tag(1, 2, 3));
        assert_eq!(whole_stream(&batch_of(&[&p, &h, &f, &e])), None);
    }

    #[test]
    fn whole_stream_refuses_an_end_not_last() {
        let [h, p, f, _] = small_stream(&tag(1, 2, 3));
        assert_eq!(whole_stream(&batch_of(&[&h, &p, &f])), None);
    }

    #[test]
    fn whole_stream_refuses_a_packet_after_the_end() {
        let [h, p, f, e] = small_stream(&tag(1, 2, 3));
        assert_eq!(whole_stream(&batch_of(&[&h, &p, &e, &f])), None);
        assert_eq!(whole_stream(&batch_of(&[&h, &p, &f, &e, &e])), None);
    }

    #[test]
    fn whole_stream_refuses_two_tags() {
        let [h, p, f, e] = small_stream(&tag(1, 2, 3));
        let [_, other, _, _] = small_stream(&tag(1, 2, 4));
        assert_eq!(whole_stream(&batch_of(&[&h, &other, &f, &e])), None);
        let [_, _, _, other_end] = small_stream(&tag(7, 2, 3));
        assert_eq!(whole_stream(&batch_of(&[&h, &p, &f, &other_end])), None);
    }

    #[test]
    fn whole_stream_refuses_a_control_packet_inside() {
        let t = tag(1, 2, 3);
        let [h, p, f, e] = small_stream(&t);
        for control in [
            encode_credit(&t, 1),
            encode_cancel(&t, CancelReason::PeerUnreachable),
            encode_ack(&t),
        ] {
            assert_eq!(whole_stream(&batch_of(&[&h, &p, &control, &f, &e])), None);
        }
    }

    #[test]
    fn whole_stream_refuses_a_lone_header() {
        let [h, ..] = small_stream(&tag(1, 2, 3));
        assert_eq!(whole_stream(&batch_of(&[&h])), None);
    }

    #[test]
    fn whole_stream_refuses_a_packet_that_is_not_a_batch() {
        let [h, p, f, e] = small_stream(&tag(1, 2, 3));
        for packet in [&h, &p, &f, &e] {
            assert_eq!(whole_stream(packet), None);
        }
        assert_eq!(whole_stream(&[]), None);
        let mut frame = batch_of(&[&h, &p, &f, &e]);
        frame[0] = 0; // the kind byte says batch, the magic does not
        assert_eq!(whole_stream(&frame), None);
    }

    /// A batch frame the assembler refuses partway changes nothing: the
    /// packets ahead of the bad one are not applied, so the stream a
    /// header would have opened is neither ready nor open.
    #[test]
    fn a_refused_batch_frame_changes_nothing() {
        let t = tag(1, 2, 3);
        let [h, p, f, e] = small_stream(&t);
        let credit = encode_credit(&t, 1);
        let mut asm = StreamAssembler::new();
        for frame in [
            batch_of(&[&h, &credit]),
            batch_of(&[&h, &p, &f, &e, &h]),
            batch_of(&[&h, &p, &e, &encode_end(&tag(1, 2, 4))]),
        ] {
            assert!(matches!(asm.push_packet(frame), Err(MadError::Protocol(_))));
            assert_eq!(asm.pop_ready(), None);
            assert!(asm.is_idle());
        }
        // The key is still free: the well-formed stream opens.
        assert_eq!(
            asm.push_packet(batch_of(&[&h, &p, &f, &e])).unwrap(),
            [t.key()]
        );
    }

    /// The whole-frame check sees each key as the packets ahead of it in
    /// the frame left it: a ghost's end frees its key for a new header,
    /// and a stream opened earlier in the frame takes its body.
    #[test]
    fn batch_check_follows_each_key_through_the_frame() {
        let (a, b) = (tag(1, 2, 3), tag(5, 2, 8));
        let [ha, pa, fa, ea] = small_stream(&a);
        let [hb, pb, fb, eb] = small_stream(&b);
        let mut asm = StreamAssembler::new();
        let opened = asm
            .push_packet(batch_of(&[&ha, &hb, &pa, &pb, &fb, &fa, &eb, &ea]))
            .unwrap();
        assert_eq!(opened, [a.key(), b.key()]);

        // `a` delivered with an ack; its retry is a ghost, and once the
        // ghost's end is through, a fresh header for the key opens.
        let mut acked = GtmHeader::new(a, 64, false);
        acked.acked = true;
        asm.finish(a.key());
        asm.note_delivered(&acked);
        let mut retry = acked;
        retry.retry = true;
        let retry = encode_header(&retry);
        let frame = batch_of(&[&retry, &pa, &hb, &fa, &ea, &ha]);
        // `b` is still open, so its second header is a duplicate...
        assert!(asm.push_packet(frame).is_err());
        asm.finish(b.key());
        asm.pop_ready();
        asm.pop_ready();
        // ...and without it the frame goes through, opening `a` afresh.
        let frame = batch_of(&[&retry, &pa, &fa, &ea, &ha]);
        assert_eq!(asm.push_packet(frame).unwrap(), [a.key()]);
    }
}
