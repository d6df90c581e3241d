//! Error type shared across the library.

use std::fmt;

use crate::types::NodeId;

/// Errors surfaced by the Madeleine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MadError {
    /// The connection's peer is gone (session teardown or peer exit).
    Disconnected,
    /// A received packet did not fit the destination buffer.
    BufferTooSmall {
        /// Bytes available in the destination.
        have: usize,
        /// Bytes required by the incoming packet or part.
        need: usize,
    },
    /// A packet longer than the driver's `max_packet` was offered to
    /// `Conduit::send`; nothing of it was written.
    PacketTooLarge {
        /// Bytes offered.
        len: usize,
        /// The driver's limit.
        max: usize,
    },
    /// Unpack sequence diverged from the pack sequence (Madeleine messages
    /// are not self-described: order, sizes, and flags must match).
    SequenceMismatch(String),
    /// A malformed or unexpected control packet (GTM framing violation).
    Protocol(String),
    /// The destination rank is not reachable on this channel.
    UnknownPeer(NodeId),
    /// No route exists to the destination over this virtual channel.
    Unroutable(NodeId),
    /// A static buffer from one driver was handed to another.
    ForeignStaticBuffer {
        /// Driver the buffer belongs to.
        owner: &'static str,
        /// Driver it was offered to.
        user: &'static str,
    },
    /// The message was not finalized (missing `end_packing`/`end_unpacking`).
    NotFinalized,
    /// A peer stopped responding mid-stream (hard fault, not an orderly
    /// teardown): a send toward it failed or its stream was cancelled by a
    /// gateway that could no longer reach it.
    PeerUnreachable(NodeId),
    /// A credit-flow-controlled stream made no progress within its
    /// deadline: the downstream gateway stopped granting credits (stalled
    /// or dead) and the wait timed out.
    CreditTimeout {
        /// Originating rank of the starved stream.
        src: NodeId,
        /// Final destination of the starved stream.
        dest: NodeId,
        /// Per-source message id of the starved stream.
        msg_id: u32,
    },
}

impl fmt::Display for MadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MadError::Disconnected => write!(f, "connection closed by peer"),
            MadError::BufferTooSmall { have, need } => {
                write!(f, "destination buffer too small: have {have}, need {need}")
            }
            MadError::PacketTooLarge { len, max } => {
                write!(f, "packet of {len} bytes exceeds the driver limit of {max}")
            }
            MadError::SequenceMismatch(s) => write!(f, "pack/unpack sequence mismatch: {s}"),
            MadError::Protocol(s) => write!(f, "protocol violation: {s}"),
            MadError::UnknownPeer(n) => write!(f, "peer {n} is not part of this channel"),
            MadError::Unroutable(n) => write!(f, "no route to {n} on this virtual channel"),
            MadError::ForeignStaticBuffer { owner, user } => {
                write!(
                    f,
                    "static buffer of driver `{owner}` offered to driver `{user}`"
                )
            }
            MadError::NotFinalized => write!(f, "message dropped before end of packing/unpacking"),
            MadError::PeerUnreachable(n) => write!(f, "peer {n} stopped responding mid-stream"),
            MadError::CreditTimeout { src, dest, msg_id } => write!(
                f,
                "credit wait timed out for stream {src}->{dest}#{msg_id} (downstream stalled)"
            ),
        }
    }
}

impl std::error::Error for MadError {}

/// Library-wide result alias.
pub type Result<T> = std::result::Result<T, MadError>;
