//! The communicator: ranks, envelopes, tag matching, eager buffering.

use std::sync::Arc;

use mad_util::sync::Mutex;
use madeleine::error::{MadError, Result};
use madeleine::types::NodeId;
use madeleine::vchannel::VirtualChannel;
use madeleine::{RecvMode, SendMode};

/// Tags ≥ this value are reserved for the collective algorithms.
pub(crate) const INTERNAL_TAG_BASE: u32 = 0xFFFF_0000;

/// Completion record of a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Rank of the sender (communicator rank, not session node id).
    pub source: u32,
    /// Message tag.
    pub tag: u32,
    /// Payload length in bytes.
    pub len: usize,
}

#[derive(Debug)]
struct Buffered {
    source: u32,
    tag: u32,
    payload: Vec<u8>,
}

/// A group of ranks communicating over one virtual channel.
///
/// Ranks are the positions of the member node ids in ascending order — the
/// same on every member, so no exchange is needed to agree on them.
pub struct Communicator {
    vc: Arc<VirtualChannel>,
    /// Sorted member node ids; `world[rank] = node`.
    world: Vec<NodeId>,
    /// This process's communicator rank.
    rank: u32,
    /// Messages received while looking for a different match.
    unexpected: Mutex<Vec<Buffered>>,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.world.len())
            .finish()
    }
}

impl Communicator {
    /// Build the communicator of every rank reachable over `vc` (plus this
    /// node itself).
    pub fn new(vc: Arc<VirtualChannel>) -> Self {
        let mut world = vc.destinations();
        world.push(vc.rank());
        world.sort_unstable();
        world.dedup();
        let rank = world
            .iter()
            .position(|&n| n == vc.rank())
            .expect("own rank in world") as u32;
        Communicator {
            vc,
            world,
            rank,
            unexpected: Mutex::new(Vec::new()),
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.world.len() as u32
    }

    /// The session node id of a communicator rank.
    fn node_of(&self, rank: u32) -> NodeId {
        self.world[rank as usize]
    }

    fn rank_of(&self, node: NodeId) -> Result<u32> {
        self.world
            .iter()
            .position(|&n| n == node)
            .map(|i| i as u32)
            .ok_or(MadError::UnknownPeer(node))
    }

    /// Send `payload` to `dest` with `tag`. Eager and blocking-local: the
    /// call returns once the message is handed to the network.
    pub fn send(&self, dest: u32, tag: u32, payload: &[u8]) -> Result<()> {
        assert!(
            tag < INTERNAL_TAG_BASE,
            "tags ≥ {INTERNAL_TAG_BASE:#x} are reserved for collectives"
        );
        self.send_raw(dest, tag, payload)
    }

    pub(crate) fn send_raw(&self, dest: u32, tag: u32, payload: &[u8]) -> Result<()> {
        assert!(dest < self.size(), "rank {dest} out of range");
        assert_ne!(dest, self.rank, "self-sends are not supported");
        let envelope = encode_envelope(tag, payload.len());
        let mut msg = self.vc.begin_packing(self.node_of(dest))?;
        msg.pack(&envelope, SendMode::Safer, RecvMode::Express)?;
        msg.pack(payload, SendMode::Later, RecvMode::Cheaper)?;
        msg.end_packing()
    }

    /// Receive a message matching `source` and `tag` (`None` = any),
    /// returning its payload and completion status. Non-matching messages
    /// arriving in between are buffered and served to later receives.
    pub fn recv(&self, source: Option<u32>, tag: Option<u32>) -> Result<(Vec<u8>, Status)> {
        // Serve from the unexpected queue first, oldest match wins.
        {
            let mut q = self.unexpected.lock();
            if let Some(pos) = q.iter().position(|b| {
                source.is_none_or(|s| s == b.source) && tag.is_none_or(|t| t == b.tag)
            }) {
                let b = q.remove(pos);
                let status = Status {
                    source: b.source,
                    tag: b.tag,
                    len: b.payload.len(),
                };
                return Ok((b.payload, status));
            }
        }
        loop {
            let (buffered, matches) = self.pull_one(source, tag)?;
            if matches {
                let status = Status {
                    source: buffered.source,
                    tag: buffered.tag,
                    len: buffered.payload.len(),
                };
                return Ok((buffered.payload, status));
            }
            self.unexpected.lock().push(buffered);
        }
    }

    /// Pull the next wire message; report whether it matches.
    fn pull_one(&self, source: Option<u32>, tag: Option<u32>) -> Result<(Buffered, bool)> {
        let mut reader = self.vc.begin_unpacking()?;
        let src_rank = self.rank_of(reader.source())?;
        let mut envelope = [0u8; 12];
        reader.unpack(&mut envelope, SendMode::Safer, RecvMode::Express)?;
        let (msg_tag, len) = decode_envelope(&envelope);
        let mut payload = vec![0u8; len];
        reader.unpack(&mut payload, SendMode::Later, RecvMode::Cheaper)?;
        reader.end_unpacking()?;
        let matches = source.is_none_or(|s| s == src_rank) && tag.is_none_or(|t| t == msg_tag);
        Ok((
            Buffered {
                source: src_rank,
                tag: msg_tag,
                payload,
            },
            matches,
        ))
    }

    /// Exchange: send to `dest` and receive from `source` concurrently
    /// safe (send is eager, so a symmetric sendrecv cannot deadlock).
    pub fn sendrecv(
        &self,
        dest: u32,
        send_tag: u32,
        payload: &[u8],
        source: u32,
        recv_tag: u32,
    ) -> Result<Vec<u8>> {
        self.send_raw(dest, send_tag, payload)?;
        Ok(self.recv(Some(source), Some(recv_tag))?.0)
    }
}

pub(crate) fn encode_envelope(tag: u32, len: usize) -> [u8; 12] {
    let mut e = [0u8; 12];
    e[0..4].copy_from_slice(&tag.to_le_bytes());
    e[4..12].copy_from_slice(&(len as u64).to_le_bytes());
    e
}

pub(crate) fn decode_envelope(e: &[u8; 12]) -> (u32, usize) {
    (
        u32::from_le_bytes(e[0..4].try_into().unwrap()),
        u64::from_le_bytes(e[4..12].try_into().unwrap()) as usize,
    )
}
