//! # madeleine — a multi-device message-passing library with transparent
//! inter-device forwarding
//!
//! This crate reproduces, in Rust, the system described in *"Efficient
//! Inter-Device Data-Forwarding in the Madeleine Communication Library"*
//! (Aumage, Eyraud, Namyst; 2001): a communication library able to drive
//! several high-speed networks within one session and to forward messages
//! across networks on gateway nodes — transparently, with zero-copy buffer
//! handoff and a pipelined retransmission engine.
//!
//! ## Layering (paper §2.1)
//!
//! ```text
//!        application
//!   ┌────────────────────┐
//!   │  virtual channels  │  route selection, forwarding notes     (§2.2)
//!   ├────────────────────┤
//!   │  buffer management │  pack/unpack grouping, flag semantics  (§2.1.1)
//!   ├────────────────────┤
//!   │  generic TM (GTM)  │  self-described, MTU-fragmented msgs   (§2.2.1)
//!   ├────────────────────┤
//!   │ transmission mods  │  one [`Conduit`] per connection         (§2.1.1)
//!   └────────────────────┘
//!        drivers: shared-memory, TCP, simulated Myrinet/SCI/Ethernet
//! ```
//!
//! * [`channel::Channel`] — a closed communication world over one network
//!   (paper's *channel* object), holding in-order point-to-point
//!   *connections*.
//! * [`message::MessageWriter`] / [`message::MessageReader`] — incremental
//!   message construction (`mad_begin_packing` / `mad_pack` /
//!   `mad_end_packing` and their unpacking mirrors), including the
//!   [`SendMode`]/[`RecvMode`] flag semantics and deterministic buffer
//!   grouping shared by both sides.
//! * [`gtm`] — the Generic Transmission Module: the self-describing,
//!   MTU-fragmented wire format used by every message that crosses at least
//!   two networks.
//! * [`vchannel::VirtualChannel`] — a set of real channels (two per device:
//!   *regular* and *special*) plus a routing table; messages are
//!   transparently forwarded through gateway nodes when the destination is
//!   on another network.
//! * [`gateway`] — the forwarding engine running on gateway nodes: one
//!   receiving and one sending thread per direction, a multi-buffer
//!   pipeline, and the zero-copy static/dynamic buffer handoff matrix.
//! * [`session::SessionBuilder`] — in-process bootstrap: declares networks,
//!   nodes, channels and virtual channels, spawns one thread per node, and
//!   wires the gateways.
//!
//! The library is hardware-agnostic: all timing, blocking and cost
//! accounting go through the [`runtime::Runtime`] trait, so the same code
//! runs on real threads (shared-memory or TCP drivers) and on the virtual
//! clock of the `simnet` hardware model.

#![warn(missing_docs)]

#[cfg(feature = "census")]
mod census;
pub mod channel;
pub mod conduit;
mod control_plane;
pub mod credit;
pub mod error;
pub mod flags;
pub mod gateway;
pub mod gtm;
pub mod membership;
pub mod message;
pub mod metrics_plane;
pub mod multipath;
pub mod plan;
pub mod runtime;
pub mod session;
#[cfg(test)]
mod testutil;
mod ticker;
pub mod types;
pub mod vchannel;

pub use channel::Channel;
pub use conduit::{BufferMode, Conduit, Driver, DriverCaps, StaticBuf};
#[doc(hidden)]
pub use control_plane::fuzz_dispatch;
pub use credit::{CreditLedger, FlowControl};
pub use error::{MadError, Result};
pub use flags::{RecvMode, SendMode};
pub use mad_route;
pub use mad_trace;
pub use membership::{JoinPhase, MemberState, MembershipPlane};
pub use message::{MessageReader, MessageWriter};
pub use metrics_plane::{MetricsOptions, MetricsPlane};
pub use multipath::MultiPath;
pub use runtime::{Runtime, StdRuntime};
pub use session::{Node, SessionBuilder};
pub use types::{ChannelId, NetworkId, NodeId};
pub use vchannel::VirtualChannel;
