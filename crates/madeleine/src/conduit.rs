//! Transmission Modules: the protocol-facing bottom layer (paper §2.1.1).
//!
//! A [`Conduit`] virtualizes one reliable, in-order, packet-granular
//! point-to-point connection, the way a Madeleine Transmission Module wraps
//! BIP, SISCI or TCP. A [`Driver`] is the Protocol Management Module: a
//! factory of connected conduit pairs for one network.
//!
//! The static/dynamic buffer distinction (paper §2.1.1 and §2.3) is encoded
//! in the conduit operations themselves:
//!
//! * **dynamic** drivers transfer straight from/into user memory
//!   (`send` gathers without copying, `recv_into` lands data directly;
//!   one that must own what it queues takes a whole packet by value
//!   through [`Conduit::send_owned`] instead of staging it);
//! * **static** drivers require data to pass through driver-provided
//!   buffers: `send` must first copy into one (the driver charges that copy
//!   through the runtime), but [`Conduit::alloc_static`] +
//!   [`Conduit::send_static`] let a caller that *fills* such a buffer
//!   directly — the gateway receiving from another network — skip the copy.
//!   Symmetrically `recv_owned` surrenders the driver's receive buffer
//!   without copying, while `recv_into` pays a copy to user memory.
//!
//! The gateway's zero-copy handoff matrix (§2.3) is built purely from these
//! four operations, so it works for any driver pairing.

use std::sync::Arc;

use mad_util::sync::Readiness;

use crate::error::{MadError, Result};
use crate::runtime::RtEvent;
use crate::types::NodeId;

/// Buffer discipline of a driver (paper §2.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferMode {
    /// User-allocated blocks are referenced directly (zero-copy).
    Dynamic,
    /// Data must transit through driver-provided buffers.
    Static,
}

/// Capabilities a Transmission Module advertises to the layers above. The
/// layers read them rather than the driver's name: the GTM's frame budget
/// from `preferred_mtu` and `max_gather`, the gateway's landing policy
/// from `mode`, who transmits a forwarded unit from `queued_send`.
#[derive(Debug, Clone, Copy)]
pub struct DriverCaps {
    /// Protocol name (e.g. `"sim-myrinet/bip"`).
    pub name: &'static str,
    /// Buffer discipline.
    pub mode: BufferMode,
    /// Maximum number of gathered segments per packet (≥ 1).
    pub max_gather: usize,
    /// Largest packet the driver accepts, in bytes.
    pub max_packet: usize,
    /// The packet size this driver performs best with; the GTM picks the
    /// minimum across a route (paper §2.3: "an optimal packet size for every
    /// network they go through").
    pub preferred_mtu: usize,
    /// Every send is a push onto an in-memory queue: it never waits on the
    /// peer and is charged no modeled time. A gateway then has nothing to
    /// overlap a retransmission with, and sends on the thread that received
    /// (`gateway::dispatch`); a driver whose send takes time keeps the
    /// paper's two-stage pipeline.
    pub queued_send: bool,
}

/// A driver-owned buffer for zero-copy staging on static-buffer networks.
///
/// The bytes live in a [`mad_util::pool::PooledBuf`], so a buffer landed
/// from recycled pool memory returns to the pool when it is dropped
/// without being sent (e.g. a gateway item cancelled mid-flight, or one
/// whose bytes were gathered into a batch frame). [`StaticBuf::into_vec`]
/// detaches instead — those bytes leave on the wire and are adopted back
/// by the receiving side.
#[derive(Debug)]
pub struct StaticBuf {
    owner: &'static str,
    data: mad_util::pool::PooledBuf,
}

impl StaticBuf {
    /// Create a buffer owned by driver `owner` (driver-internal use).
    pub fn new(owner: &'static str, len: usize) -> Self {
        StaticBuf {
            owner,
            data: vec![0u8; len].into(),
        }
    }

    /// Wrap pool-backed bytes as a buffer owned by `owner`. The gateway
    /// and the drivers land packets into recycled pool memory this way
    /// instead of allocating a fresh buffer per receive.
    pub fn from_pooled(owner: &'static str, data: mad_util::pool::PooledBuf) -> Self {
        StaticBuf { owner, data }
    }

    /// The driver this buffer belongs to.
    pub fn owner(&self) -> &'static str {
        self.owner
    }

    /// Writable view of the buffer.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Readable view of the buffer.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Shrink to `len` bytes, keeping ownership. Receivers that land
    /// variable-sized packets into an oversized buffer (the gateway's
    /// fragment-granular forwarding path) trim it to the received length
    /// before handing it on.
    pub fn truncate(&mut self, len: usize) {
        self.data.vec().truncate(len);
    }

    /// Consume into the raw bytes (driver-internal use). Detaches from
    /// the pool: callers put the bytes on the wire, and the receiving
    /// side adopts them back.
    pub fn into_vec(self) -> Vec<u8> {
        self.data.detach()
    }

    /// Check this buffer belongs to `user`, for `send_static` preconditions.
    pub fn check_owner(&self, user: &'static str) -> Result<()> {
        if self.owner == user {
            Ok(())
        } else {
            Err(MadError::ForeignStaticBuffer {
                owner: self.owner,
                user,
            })
        }
    }
}

/// One side of a reliable, in-order, packet-granular connection.
///
/// All methods take `&mut self`; a conduit is owned by one logical user at a
/// time (the channel wraps it in a lock when threads share it).
pub trait Conduit: Send {
    /// Advertised capabilities (constant for the conduit's lifetime).
    fn caps(&self) -> DriverCaps;

    /// Send one packet assembled from `parts` (scatter/gather). Static
    /// drivers copy the parts into a driver buffer first and charge that
    /// copy. Total length must be ≤ `caps().max_packet` and
    /// `parts.len()` ≤ `caps().max_gather`.
    fn send(&mut self, parts: &[&[u8]]) -> Result<()>;

    /// Send several complete GTM packets as one batch frame (one wire
    /// packet, one per-send overhead). The default implementation gathers
    /// the batch prelude, a u32 LE length prefix per packet, and the
    /// packet bytes through [`Conduit::send`], so drivers inherit their
    /// usual staging/copy accounting; a driver with native multi-packet
    /// submission may override. The caller keeps the framing within
    /// `caps().max_packet` and `1 + 2 × packets.len()` ≤
    /// `caps().max_gather`.
    fn send_batch(&mut self, packets: &[&[u8]]) -> Result<()> {
        let prelude = crate::gtm::batch_prelude();
        let lens: Vec<[u8; 4]> = packets
            .iter()
            .map(|p| (p.len() as u32).to_le_bytes())
            .collect();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(1 + 2 * packets.len());
        parts.push(&prelude);
        for (len, p) in lens.iter().zip(packets) {
            parts.push(len);
            parts.push(p);
        }
        self.send(&parts)
    }

    /// Send one complete packet the caller gives up: the by-value form of
    /// [`Conduit::send`], for a buffer that has no use after the send — the
    /// gateway's landed packet above all. The default gathers it through
    /// `send`, so a driver that stages every send copies and charges
    /// exactly as it does for a borrowed packet; a driver that queues owned
    /// buffers (shared memory) overrides it to put *this* buffer on the
    /// wire, which is what makes "any → dynamic: 0 copies" (paper §2.3)
    /// true of the driver as well as of the engine above it. A wrapper
    /// conduit that does not forward this call falls back to the default —
    /// correct, and one silent copy per packet slower.
    fn send_owned(&mut self, packet: mad_util::pool::PooledBuf) -> Result<()> {
        self.send(&[&packet])
    }

    /// Send every packet of `packets`, in order, each as a wire packet of
    /// its own, leaving `packets` empty (its room is the caller's to
    /// reuse): the run form of [`Conduit::send_owned`], for a gateway that
    /// hands on a turn's packets together. The default sends them one
    /// `send_owned` at a time and stops at the first failure, dropping the
    /// rest; a driver that queues owned buffers overrides it to queue the
    /// whole run at once. A wrapper conduit must forward it as it forwards
    /// `send_owned`.
    fn send_owned_run(&mut self, packets: &mut Vec<mad_util::pool::PooledBuf>) -> Result<()> {
        packets
            .drain(..)
            .try_for_each(|packet| self.send_owned(packet))
    }

    /// Send a driver-allocated buffer as one packet without any copy.
    /// The buffer must come from this conduit's [`Conduit::alloc_static`].
    fn send_static(&mut self, buf: StaticBuf) -> Result<()>;

    /// Allocate a `len`-byte driver buffer for zero-copy fill-then-send;
    /// `None` if this is a dynamic driver (no static buffers to offer).
    fn alloc_static(&mut self, len: usize) -> Option<StaticBuf>;

    /// Receive the next packet into `dst`, returning its length. Fails with
    /// [`MadError::BufferTooSmall`] if the packet exceeds `dst`. Dynamic
    /// drivers land data directly; static drivers charge one copy.
    fn recv_into(&mut self, dst: &mut [u8]) -> Result<usize>;

    /// Receive the next packet in the driver's least-copy owned form:
    /// dynamic drivers hand over the landed buffer, static drivers surrender
    /// their receive buffer — both copy-free.
    fn recv_owned(&mut self) -> Result<Vec<u8>>;

    /// Receive every packet queued now, in order, appended to `out` in
    /// the form [`Conduit::recv_owned`] gives: at least one, blocking as
    /// `recv_owned` does while none is. The default is one `recv_owned`;
    /// a driver whose receive side is a queue of owned packets overrides
    /// it to take the whole backlog under one lock. A wrapper conduit must
    /// forward it, or a gateway behind it takes one packet a turn.
    fn recv_queued(&mut self, out: &mut std::collections::VecDeque<Vec<u8>>) -> Result<()> {
        out.push_back(self.recv_owned()?);
        Ok(())
    }

    /// True if a packet is already queued (never blocks).
    fn ready(&self) -> bool;

    /// True if a packet is queued or still waiting inside the transport —
    /// received by the kernel, not yet read (never blocks). Defaults to
    /// [`Conduit::ready`]; a driver whose receive queue is filled by
    /// whoever sleeps on its event (TCP) reads what the transport holds
    /// first. Teardown's quiescence scan asks this rather than `ready`,
    /// which runs on every receive scan and so must not read.
    fn pending(&self) -> bool {
        self.ready()
    }

    /// True if a packet is awaiting service *right now* (never blocks).
    /// Defaults to [`Conduit::ready`]; drivers whose transport models
    /// in-flight delivery delay (the simulated NICs) override this to
    /// exclude packets still on the wire in modeled time — `ready` sees
    /// those as soon as the sender runs ahead, but nothing is actually
    /// backlogged at this end yet. The gateway's copy-placement
    /// accounting uses this to decide whether a receive-side copy
    /// delayed real work.
    fn backlog(&self) -> bool {
        self.ready()
    }

    /// True once the peer is gone *and* no queued packet remains: no data
    /// will ever arrive again. Lets multiplexed receivers terminate cleanly
    /// at session teardown.
    fn closed(&self) -> bool;

    /// The counts behind [`Conduit::ready`] and [`Conduit::closed`],
    /// readable without this conduit: its channel takes the handle once,
    /// at assembly, and a receive scan then asks every peer with one
    /// atomic load instead of locking its conduit. Every driver of the
    /// workspace returns its receive queue's. `None`, the default, leaves
    /// the channel to lock the conduit and ask it, as a conduit whose
    /// readiness is not a queue's count must.
    fn readiness(&self) -> Option<Arc<Readiness>> {
        None
    }

    /// Event bumped whenever a packet arrives for this conduit. Several
    /// conduits of one channel may share an event (multiplexed receive).
    fn recv_event(&self) -> Arc<dyn RtEvent>;
}

/// A Protocol Management Module: creates the connected conduit pairs of one
/// network. In this in-process reproduction, both ends are built centrally
/// at session bootstrap.
pub trait Driver: Send + Sync {
    /// Capabilities shared by every conduit of this driver.
    fn caps(&self) -> DriverCaps;

    /// Create a connected pair of conduits between ranks `a` and `b`.
    /// `ev_a`/`ev_b` are the arrival events of each side (typically one
    /// shared event per node per channel).
    fn connect(
        &self,
        a: NodeId,
        b: NodeId,
        ev_a: Arc<dyn RtEvent>,
        ev_b: Arc<dyn RtEvent>,
    ) -> (Box<dyn Conduit>, Box<dyn Conduit>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_buf_ownership_check() {
        let b = StaticBuf::new("sci", 16);
        assert!(b.check_owner("sci").is_ok());
        assert_eq!(
            b.check_owner("myri"),
            Err(MadError::ForeignStaticBuffer {
                owner: "sci",
                user: "myri"
            })
        );
    }

    #[test]
    fn static_buf_views() {
        let mut b = StaticBuf::new("x", 4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        b.as_mut_slice().copy_from_slice(&[1, 2, 3, 4]);
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(b.into_vec(), vec![1, 2, 3, 4]);
    }
}
