//! The gateway forwarding engine (paper §2.2.2, Fig. 4).
//!
//! On a gateway node, every network of a virtual channel gets a *polling*
//! thread listening on that network's special channel, and every (in, out)
//! pair of networks a *sink*. A sink whose send may take time or wait for
//! a credit is *piped*: a *forwarding* thread of its own, coupled to the
//! polling thread by a bounded pipeline of buffers (two by default, the
//! paper's double-buffering), retransmits packet *k* on the other network
//! while the polling thread receives packet *k+1*. A sink that can never
//! wait is a *run* sink and has no forwarding thread.
//!
//! ## Who transmits
//!
//! The second thread exists to overlap that receive with that
//! retransmission, and the hand-off to it costs a wake-up. A sink can
//! never wait when every send on the way out is a push onto an in-memory
//! queue that takes no time ([`DriverCaps::queued_send`]: shared memory)
//! and no packet bound onto its network consumes a credit — flow control
//! is off, or every hop onto it is a last hop. That is known at spawn from
//! the routing plan, so such a sink is a run sink: the polling thread
//! transmits every unit itself, and what it transmits in a turn leaves as
//! one run at the turn's end (see "Turns and runs"). On a piped sink the
//! polling thread transmits a unit itself only when it is a whole message
//! (no packet *k+1*), the flush side has nothing in hand or queued, and the
//! credit it needs first is there — under the lock the forwarding thread
//! holds from pop to last send, so arrival order stays wire order
//! (`dispatch`, `Sink`). Everything else crosses the two-stage pipeline;
//! `pipeline_depth: 1`, which has no second stage, is the same rule with
//! nothing to hand over to. The choice is read from the unit, the
//! conduit's capabilities, the routing plan, the queue, the lock and the
//! ledger — there is no size threshold and no knob.
//!
//! ## Fragment-granular scheduling
//!
//! Since GTM wire-format version 2, every packet names its stream (source,
//! destination, message id), so the engine no longer drains one message at
//! a time. The polling thread round-robins across the inbound connections
//! ([`Channel::select_ready_after`]) and relays *one turn per connection*
//! — what that connection had queued when the turn began — keeping
//! per-stream state in a demultiplexing table. A 16 MB bulk transfer
//! therefore no longer stalls a 1 KB message from another peer crossing
//! the same gateway for longer than one turn — the head-of-line blocking
//! measured by the `ablation_hol_blocking` bench.
//! [`GatewayConfig::exclusive_streams`] restores the old message-at-a-time
//! discipline as that ablation's baseline.
//!
//! ## Turns and runs
//!
//! A turn takes what it receives in one piece: under an owned landing
//! every packet queued on the conduit ([`Conduit::recv_queued`], one lock
//! and one pop for the backlog), under a landing that copies one packet.
//! Each packet then meets the per-packet rules in arrival order. What the
//! turn accepts for a run sink goes straight into that sink's run, cut
//! into trains by the flush side's own join test, and the run leaves at
//! the turn's end with one lock and one [`Conduit::send_owned_run`] per
//! outgoing conduit; with no queue and no credit wait on that sink, nothing
//! can overtake it. Runs form only there: a send that takes time is worth
//! overlapping with the next receive, and holding it to the turn's end
//! would only delay it. Each train of a run
//! is still the one wire packet it would have been; a run amortises the
//! hand-offs, never the framing, and every item is settled once whatever
//! the run's fate.
//!
//! A turn also counts once. Its messages, fragments and held bytes gather
//! in plain integers (`Tally`) and reach the engine's counters in one
//! publication before anything is handed to a piped sink — whose
//! forwarding thread may settle it at once, so the held-bytes gauge never
//! reads below 0 — and one at the turn's end, before its runs leave. The
//! inbound channel counts the turn's receive once, and a run's settlement
//! counts its sends and its fall in held bytes once per outgoing conduit,
//! before any grant. Everything a turn lands stays resident until its run
//! leaves, so the gauge's peak is the true occupancy.
//!
//! Because the stream tag is route-invariant, packets are forwarded
//! verbatim: the engine never re-encodes anything.
//!
//! ## Frame in, frame out
//!
//! A slow outbound network pays a fixed per-send cost (protocol overhead,
//! staging) for every packet, and every hand-off between the polling and
//! the forwarding side costs a buffer switch. Senders therefore aggregate
//! a stream's small packets into one [`gtm`] batch frame, and the engine
//! keeps what arrived as one wire packet together: the packets of a frame
//! each go through the per-packet rules, then every run of consecutive
//! packets that leave on the same conduit travels as one unit — one
//! pipeline slot, one credit pass, one batch frame out, within the
//! *outgoing* driver's preferred packet size (so bulk fragments already at
//! the route MTU keep their single-packet zero-copy path). Credits are
//! still consumed per fragment *before* a packet joins a train (the
//! occupancy bound is unchanged) and grants are aggregated into one
//! credit packet per stream afterwards. That is the only batching rule:
//! packets that arrived separately leave separately, and
//! [`gtm::FrameBudget`] is the only bound on a frame — there is no knob
//! (EXPERIMENTS A7 has the counts behind that).
//!
//! A frame that is one whole stream — a writer's small message: header
//! first, end last, only that stream's descriptors and fragments between
//! — is not taken apart at all when the per-packet rules would relay all
//! of it as one train with every credit in hand: its key is neither open
//! nor tombstoned here, its header would be accepted (not direct, not for
//! this gateway, routed onto a network this gateway bridges), it fits the
//! outgoing driver's frame budget whole, and on a non-final hop under a
//! credit window the window covers every fragment. It becomes one
//! pipeline item that holds the landed buffer whole and leaves as a lone
//! packet does, so over shared memory the next hop receives the buffer
//! that landed here. The effects are the per-packet rules', once per
//! frame: those rules would open the stream and close it again within
//! the frame, so it is counted, traced and held against the drain but
//! never enters the stream table or the credit ledger (every take from
//! the window it would have opened succeeds at once); each fragment is
//! counted, charged its buffer switch and held until the send; no grant
//! goes back (the end is in the same frame); and a send that fails still
//! cancels upstream. Every other frame takes the per-packet path, which
//! also reports whatever is wrong with it.
//!
//! ## Credit-based flow control
//!
//! The paper names bandwidth control across the gateway as future work:
//! without it, a fast inbound network dumps a whole bulk message into the
//! gateway when the outbound network is slower. With
//! [`GatewayConfig::credit_window`] set, every *fragment* sent toward a
//! gateway consumes one credit from the stream's window, and the gateway
//! returns a credit upstream for each one it has finished *retransmitting*
//! — so at most `window` fragments of a stream are resident per gateway
//! and occupancy is bounded by `window × (MTU + prelude)` instead of the
//! message size. Credits travel hop-by-hop as [`gtm`] control packets on
//! the same conduits as the stream, in the opposite direction, half a
//! window to the packet: the fragment that completes a period carries the
//! stream's whole count back (`grant_period`), the others carry nothing.
//! The per-node accounting lives in a shared [`CreditLedger`].
//!
//! Every credit wait is deadline-bounded ([`GatewayConfig`]'s
//! `credit_timeout_ns`): a stalled or dead downstream degrades the
//! affected stream into a typed cancellation
//! ([`MadError::CreditTimeout`] / [`MadError::PeerUnreachable`]) that
//! propagates both ways as a cancel packet, while unrelated streams keep
//! flowing. Without a window there is no upstream backchannel, so a
//! cancelled stream is dropped silently at the gateway (its sender cannot
//! be told) — flow control is also what makes fault degradation loud.
//!
//! ## Zero-copy handoff (paper §2.3)
//!
//! The polling thread picks a per-connection landing policy from the
//! buffer disciplines of the outgoing drivers it feeds:
//!
//! | incoming   | outgoing  | behaviour                                        |
//! |------------|-----------|--------------------------------------------------|
//! | any        | dynamic   | take the incoming driver's own buffer, hand it on ([`Conduit::send_owned`]: 0 copies) |
//! | dynamic    | static    | receive *into* an outgoing-driver static buffer (0 copies)     |
//! | static     | static    | receive into an outgoing static buffer — one unavoidable copy  |
//!
//! A stream's packet size is not known before the receive, so static
//! landings use a buffer sized for the largest MTU announced by any open
//! stream's header (headers always precede fragments on a conduit) and
//! trim it afterwards. Setting [`GatewayConfig::zero_copy`] to `false`
//! forces the naive receive-then-copy path, which is the A2 ablation of
//! the benchmarks.
//!
//! The per-fragment software cost of exchanging pipeline buffers (§3.3.1
//! estimates it at ~40 µs on the paper's hardware) is charged through
//! [`Runtime::charge_overhead`], so the simulated gateway reproduces the
//! paper's pipeline-period analysis.
//!
//! ## Who waits how
//!
//! Every wait in the engine is a thread blocked on a runtime event. The
//! polling thread of a network waits for its next ready peer in
//! `select_ready_after`, on its special channel's own arrival event, with
//! the teardown drain's deadline as the wait's timeout; with its pipeline
//! slot full it waits on the bounded `RtQueue`. The forwarding thread
//! waits on that queue for a unit, and whoever transmits waits for a dry
//! window in `take_blocking`, up to the credit deadline. What a packet
//! means is decided once: `Inbound::serve` is the receive side (receive a
//! turn → count → demultiplex each packet into the pipeline items it
//! accepts, a received frame as one unit per outgoing conduit → degrade on
//! a fault → send the turn's runs → re-pin), `Train::admits` is the
//! transmit side's one batching rule, which a piped sink's
//! `Flush::build_train` and a run sink's `Run::take` both cut trains by,
//! `transmit_train` and `Run::send` put trains — of one packet or many —
//! on the wire and `settle_train` and `settle_sent` settle each, and every
//! control packet goes to the node's
//! `ControlPlane`. The price is threads: a gateway per virtual channel
//! spawns one per network and, at depth 2 or more, one per piped sink —
//! `nets` at depth 1 or when every sink is a run sink, `nets × nets` when
//! none is.
//!
//! ## Teardown
//!
//! Engines share a [`GatewayStop`]: the stop request only takes effect
//! once every accepted stream — across *all* gateways of the session — has
//! had its end packet retransmitted, closing the old teardown window in
//! which a multi-hop fragment could be dropped between two gateways. A
//! gateway whose outbound conduit dies mid-stream abandons its open
//! streams on exit so the rest of the session can still stop. The drain
//! itself is bounded by `drain_timeout_ns`: if a fault leaves a stream
//! that will never end (its source died silently), the engine abandons it
//! after the deadline instead of hanging the session forever.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::redundant_clone,
    clippy::large_types_passed_by_value
)]

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use mad_metrics::Gauge;
use mad_route::PathHop;
use mad_trace::{trace_instant, trace_span, Tracer};
use mad_util::pool::PooledBuf;
use mad_util::sync::Mutex;

use crate::channel::Channel;
use crate::conduit::{BufferMode, Conduit, DriverCaps, StaticBuf};
use crate::control_plane::{ControlPlane, Dispatch};
use crate::credit::{CreditLedger, TakeFailure, TakeOutcome};
use crate::error::{MadError, Result};
use crate::gtm::{self, CancelReason, PacketBody, StreamKey, StreamTag, PRELUDE_LEN};
use crate::metrics_plane::GwMetrics;
use crate::runtime::{RtEvent, RtQueue, RtReceiver, RtSender, Runtime, THREADS_SPAWNED};
use crate::types::{NetworkId, NodeId};

/// Live counters of one gateway's forwarding engine, updated by its
/// receive and flush sides with relaxed atomic adds — nothing here takes a
/// lock, on the per-packet path or off it. Read them after the session, at
/// any point through [`GatewayStats::totals`], or periodically through a
/// [`GatewayWindow`] of the reader's own.
#[derive(Debug, Default)]
pub struct GatewayStats {
    /// Complete messages relayed.
    messages: AtomicU64,
    /// Payload fragment bytes relayed (control packets excluded).
    fragment_bytes: AtomicU64,
    /// Payload fragments relayed.
    fragments: AtomicU64,
    /// Pipeline pushes that found the bounded queue full (backpressure).
    stalls: AtomicU64,
    /// Fragment handoffs through the pipeline: 0 at depth 1, and none for
    /// a unit the polling thread transmits itself.
    buffer_switches: AtomicU64,
    /// Credits returned upstream: one for every retransmitted fragment of
    /// a flow-controlled stream that a grant covered (the last fragments
    /// of a stream, short of a grant period, are never granted — their
    /// sender closed the account).
    credits_granted: AtomicU64,
    /// Credit packets (kind 5) those credits travelled in: one per grant
    /// period of a stream, not one per fragment.
    grants_sent: AtomicU64,
    /// Streams dropped mid-flight by a cancellation (either received from
    /// a neighbour hop or initiated here).
    cancelled: AtomicU64,
    /// Credit waits that hit their deadline on this gateway's outbound
    /// side (each one cancels its stream).
    credit_timeouts: AtomicU64,
    /// Non-fatal errors the engine degraded through instead of dying
    /// (failed sends, protocol violations on one conduit).
    errors: AtomicU64,
    /// Handoff acknowledgments sent back to multi-path stream origins
    /// (one per acked stream whose end packet this engine relayed).
    acks_sent: AtomicU64,
    /// Unavoidable relay staging copies performed on the receive stage.
    copies_recv: AtomicU64,
    /// Unavoidable relay staging copies deferred to the flush stage
    /// (the copy-placement scheduler found it idle).
    copies_flush: AtomicU64,
    /// Staging copies that landed on a stage that was idle at placement
    /// time — the E2 overlap win, measured.
    copy_idle_hits: AtomicU64,
    /// Flush stages currently mid-drain — the live busy signal the
    /// copy-placement scheduler reads at receive time.
    flush_active: AtomicU64,
    /// Dedicated OS threads this engine spawned, polling and forwarding —
    /// the per-gateway slice of the session thread budget.
    threads_spawned: AtomicU64,
    /// Packet bytes currently resident in this engine (received but not
    /// yet retransmitted or dropped) and their high-water mark — the
    /// occupancy the credit window bounds.
    held: Gauge,
    /// Streams this engine accepted (header or whole-stream frame) whose
    /// end or cancel is not yet retransmitted or dropped: moved by
    /// [`EngineLive`], which releases what is left from the session-wide
    /// drain count when the engine's last thread exits.
    open_streams: AtomicI64,
}

/// Activity of one gateway between two [`GatewayTotals`] snapshots of a
/// reader's own — every count covers only that window, so a long-running
/// session sees *current* load, not its lifetime average.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct GatewayDelta {
    /// Nanoseconds the window covers: since the reader's previous
    /// [`GatewayWindow::advance`], or since its [`GatewayWindow::open`] on
    /// the first.
    pub interval_ns: u64,
    /// Complete messages relayed in the window.
    pub messages: u64,
    /// Credit waits that hit their deadline in the window.
    pub credit_timeouts: u64,
    /// Payload fragments relayed in the window.
    pub fragments: u64,
    /// Payload fragment bytes relayed in the window.
    pub bytes: u64,
    /// Backpressure stalls in the window.
    pub stalls: u64,
    /// Payload throughput over the window in bytes per second (0 if the
    /// window is empty).
    pub bytes_per_sec: f64,
    /// Packet bytes resident in the engine at the window's end.
    pub occupancy_bytes: i64,
}

impl GatewayDelta {
    /// Queue saturation: at least `min_stalls` hand-offs in the window
    /// found the pipeline full (one-off blips stay below that), and they
    /// are at least `ratio` of all hand-offs attempted.
    pub fn saturated(&self, min_stalls: u64, ratio: f64) -> bool {
        let attempts = self.stalls + self.fragments;
        self.stalls >= min_stalls && attempts > 0 && self.stalls as f64 / attempts as f64 >= ratio
    }
}

/// A point-in-time copy of a gateway's total counters, safe to take
/// while the engine is running (each field is individually consistent
/// and monotone) — the mid-run snapshot API that flow-control decisions
/// and monitoring need.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GatewayTotals {
    /// Complete messages relayed.
    pub messages: u64,
    /// Payload fragments relayed.
    pub fragments: u64,
    /// Payload fragment bytes relayed.
    pub fragment_bytes: u64,
    /// Pipeline pushes that found the bounded queue full.
    pub stalls: u64,
    /// Fragment handoffs through the pipeline.
    pub buffer_switches: u64,
    /// Credits returned upstream.
    pub credits_granted: u64,
    /// Credit packets those credits travelled in.
    pub grants_sent: u64,
    /// Streams dropped mid-flight by a cancellation.
    pub cancelled: u64,
    /// Credit waits that hit their deadline here.
    pub credit_timeouts: u64,
    /// Non-fatal errors degraded through.
    pub errors: u64,
    /// Handoff acknowledgments sent back to stream origins.
    pub acks_sent: u64,
    /// Relay staging copies performed on the receive stage.
    pub copies_recv: u64,
    /// Relay staging copies deferred to the flush stage.
    pub copies_flush: u64,
    /// Staging copies placed on a stage that was idle at placement time.
    pub copy_idle_hits: u64,
    /// Dedicated OS threads the engine spawned.
    pub threads_spawned: u64,
    /// Packet bytes resident in the engine at snapshot time.
    pub held_bytes: i64,
    /// High-water mark of resident packet bytes.
    pub peak_held_bytes: i64,
}

impl GatewayTotals {
    /// Every total with its trace event name, in one place (a gauge is
    /// carried bit for bit: `as i64` gives it back).
    pub fn named(&self) -> [(&'static str, u64); 17] {
        [
            ("messages", self.messages),
            ("fragments", self.fragments),
            ("fragment_bytes", self.fragment_bytes),
            ("stalls", self.stalls),
            ("buffer_switches", self.buffer_switches),
            ("credits_granted", self.credits_granted),
            ("grants_sent", self.grants_sent),
            ("cancelled", self.cancelled),
            ("credit_timeouts", self.credit_timeouts),
            ("errors", self.errors),
            ("acks_sent", self.acks_sent),
            ("copies_recv", self.copies_recv),
            ("copies_flush", self.copies_flush),
            ("copy_idle_hits", self.copy_idle_hits),
            (THREADS_SPAWNED, self.threads_spawned),
            ("held_bytes", self.held_bytes as u64),
            ("peak_held_bytes", self.peak_held_bytes as u64),
        ]
    }

    /// What the engine did between `prev` and `self`, two snapshots of the
    /// same [`GatewayStats`] taken `interval_ns` apart. Counter reads are
    /// relaxed, so a window may attribute an in-flight update to the next
    /// one — harmless for load estimation, and nothing is counted twice or
    /// lost: a reader's windows sum to the lifetime totals.
    pub fn since(&self, prev: &GatewayTotals, interval_ns: u64) -> GatewayDelta {
        let bytes = self.fragment_bytes.saturating_sub(prev.fragment_bytes);
        let secs = interval_ns as f64 / 1e9;
        GatewayDelta {
            interval_ns,
            messages: self.messages.saturating_sub(prev.messages),
            credit_timeouts: self.credit_timeouts.saturating_sub(prev.credit_timeouts),
            fragments: self.fragments.saturating_sub(prev.fragments),
            bytes,
            stalls: self.stalls.saturating_sub(prev.stalls),
            bytes_per_sec: if secs > 0.0 { bytes as f64 / secs } else { 0.0 },
            occupancy_bytes: self.held_bytes,
        }
    }
}

/// One periodic reader's view of a gateway: the engine's counters plus the
/// baseline *this reader* took last. The multi-path selector's refresh and
/// the health watchdog each own one, so each sees every window exactly
/// once and the engine keeps no per-reader state.
#[derive(Debug)]
pub struct GatewayWindow {
    stats: Arc<GatewayStats>,
    prev: GatewayTotals,
    at_ns: u64,
}

impl GatewayWindow {
    /// Start reading `stats` at `now_ns`: the first window runs from here,
    /// whatever the engine did before and however long the clock has run.
    pub fn open(stats: Arc<GatewayStats>, now_ns: u64) -> Self {
        GatewayWindow {
            prev: stats.totals(),
            at_ns: now_ns,
            stats,
        }
    }

    /// The engine's live counters.
    pub fn stats(&self) -> &GatewayStats {
        &self.stats
    }

    /// Everything since the previous call (or [`GatewayWindow::open`]);
    /// the baseline moves to `now_ns`.
    pub fn advance(&mut self, now_ns: u64) -> GatewayDelta {
        let totals = self.stats.totals();
        let delta = totals.since(&self.prev, now_ns.saturating_sub(self.at_ns));
        self.prev = totals;
        self.at_ns = now_ns;
        delta
    }
}

impl GatewayStats {
    /// Cheap mid-run snapshot of every total (relaxed loads, no locks).
    pub fn totals(&self) -> GatewayTotals {
        GatewayTotals {
            messages: self.messages.load(Ordering::Relaxed),
            fragments: self.fragments.load(Ordering::Relaxed),
            fragment_bytes: self.fragment_bytes.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            buffer_switches: self.buffer_switches.load(Ordering::Relaxed),
            credits_granted: self.credits_granted.load(Ordering::Relaxed),
            grants_sent: self.grants_sent.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            credit_timeouts: self.credit_timeouts.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            acks_sent: self.acks_sent.load(Ordering::Relaxed),
            copies_recv: self.copies_recv.load(Ordering::Relaxed),
            copies_flush: self.copies_flush.load(Ordering::Relaxed),
            copy_idle_hits: self.copy_idle_hits.load(Ordering::Relaxed),
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            held_bytes: self.held.get(),
            peak_held_bytes: self.held.peak(),
        }
    }

    /// Streams currently open in the engine: accepted (a header, or a
    /// frame that is one whole stream), their end or cancel not yet
    /// retransmitted or dropped — the live companion of the windowed
    /// counters, read by the health watchdog's stalled-stream detector.
    pub fn open_streams(&self) -> i64 {
        self.open_streams.load(Ordering::Relaxed)
    }

    fn on_frags(&self, n: u64, bytes: u64) {
        self.fragments.fetch_add(n, Ordering::Relaxed);
        self.fragment_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn on_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    fn on_switch(&self, frags: u64) {
        self.buffer_switches.fetch_add(frags, Ordering::Relaxed);
    }

    fn on_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    fn on_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }
}

/// Tuning knobs of a gateway's forwarding engine.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Number of pipeline buffers per piped direction. `2` is the paper's
    /// double-buffering; `1` disables pipelining (the polling thread
    /// retransmits each packet itself before receiving the next). A run
    /// sink — one that can never wait — has no queue at any depth.
    pub pipeline_depth: usize,
    /// Software cost charged per fragment handoff (the paper's ~40 µs
    /// buffer-switch overhead). Only the simulated runtime turns this into
    /// time.
    pub switch_overhead_ns: u64,
    /// Use the zero-copy buffer handoff matrix; `false` forces the naive
    /// extra-copy path (ablation A2).
    pub zero_copy: bool,
    /// Pin the polling thread to one inbound peer until every stream it
    /// opened has ended — the pre-fragment-scheduling message-at-a-time
    /// discipline, kept as the head-of-line-blocking ablation baseline.
    pub exclusive_streams: bool,
    /// Per-stream credit window in fragments. `None` disables flow
    /// control (unbounded gateway occupancy, the pre-credit behaviour).
    /// Every node of the virtual channel must agree on this value — both
    /// ends of a conduit derive the same window from configuration, so no
    /// handshake is needed.
    pub credit_window: Option<u32>,
    /// Deadline for any single credit wait (sender side and gateway
    /// outbound side). A stream that makes no progress within it is
    /// cancelled with [`MadError::CreditTimeout`].
    pub credit_timeout_ns: u64,
    /// Deadline for the teardown drain: once a stop is requested, a
    /// polling thread waits at most this long for its in-flight streams
    /// to end before abandoning them (a fault may have killed a source
    /// that will never send its end packet).
    pub drain_timeout_ns: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            pipeline_depth: 2,
            switch_overhead_ns: 0,
            zero_copy: true,
            exclusive_streams: false,
            credit_window: None,
            credit_timeout_ns: 500_000_000,
            drain_timeout_ns: 2_000_000_000,
        }
    }
}

/// Session-wide shutdown coordinator shared by every gateway engine.
///
/// [`GatewayStop::request_stop`] alone does not stop the engines: a
/// polling thread only gives up once the whole session is quiescent — the
/// global count of accepted-but-not-fully-retransmitted streams is zero,
/// no engine is mid-relay, and no registered inbound conduit anywhere
/// still holds undelivered packets. The last clause is what makes the
/// drain multi-hop safe: a downstream gateway whose own pipeline is
/// momentarily idle must keep serving while an upstream gateway still has
/// backlog queued for it, or the backlog dies with the downstream
/// engine's conduits. [`GatewayStop::force`] (used when an application
/// thread panicked and may never finish a stream) waives the drain.
#[derive(Default)]
pub struct GatewayStop {
    stop: AtomicBool,
    forced: AtomicBool,
    open: AtomicU64,
    /// Packets popped from an inbound conduit but not yet demultiplexed
    /// (counted into `open`, forwarded, or consumed): the hidden station
    /// between the conduit scan and the stream accounting.
    busy: AtomicU64,
    /// Bumped on every station transition of an in-flight packet
    /// (conduit → relay → open stream → retransmitted). The quiescence
    /// check reads it seqlock-style around its scan: an unchanged count
    /// proves nothing moved between the stations while they were being
    /// inspected, so an all-empty scan cannot have raced a packet hop.
    transitions: AtomicU64,
    /// Inbound channels of every gateway engine in the session. Dead
    /// weak refs (engine exited, conduits dropped) are skipped.
    sources: Mutex<Vec<std::sync::Weak<Channel>>>,
    wakers: Mutex<Vec<Arc<dyn RtEvent>>>,
}

impl std::fmt::Debug for GatewayStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayStop")
            .field("stop", &self.stop.load(Ordering::Acquire))
            .field("forced", &self.forced.load(Ordering::Acquire))
            .field("open", &self.open.load(Ordering::Acquire))
            .finish()
    }
}

impl GatewayStop {
    /// A fresh coordinator (one per session).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the engines to stop once all in-flight streams are drained.
    ///
    /// The flag and the station counts `open` and `busy` are `SeqCst` on
    /// both sides — this store and the loads in `should_stop`, the
    /// decrements and the flag loads in `end_forwarded` and
    /// `BusyGuard::drop` — because the wake-up is split between them: a
    /// decrement that reaches zero wakes the engines only if it sees the
    /// flag, and this store wakes them itself. In one total order either
    /// the decrement sees the flag, or it precedes this store and every
    /// engine woken below reads the count it left.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Stop without waiting for open streams (some may never end because
    /// an application thread died mid-message).
    pub fn force(&self) {
        self.forced.store(true, Ordering::Release);
        self.wake_all();
    }

    /// True once a stop has been requested (the drain may still be going).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn should_stop(&self) -> bool {
        if !self.stop_requested() {
            return false;
        }
        if self.forced.load(Ordering::Acquire) {
            return true;
        }
        // Session-wide quiescence. A packet in flight is always visible at
        // exactly one station: an inbound conduit queue, the relay bracket
        // (`busy`), or an open stream (`open`, held until the end packet
        // is retransmitted). Scan them all, then confirm via the
        // transition count that no packet hopped stations mid-scan — if
        // one did, the scan may have looked at both its old and new
        // station while it was in neither, so the result is void.
        let before = self.transitions.load(Ordering::Acquire);
        if self.open.load(Ordering::SeqCst) != 0 || self.busy.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let pending = self
            .sources
            .lock()
            .iter()
            .any(|w| w.upgrade().is_some_and(|ch| ch.has_pending()));
        if pending {
            return false;
        }
        self.transitions.load(Ordering::Acquire) == before
    }

    fn opened(&self) {
        self.open.fetch_add(1, Ordering::AcqRel);
        self.transitions.fetch_add(1, Ordering::AcqRel);
    }

    /// A stream's end packet is on the wire. The last one wakes the
    /// engines only once a stop is requested: before that, an open count
    /// back at zero is nothing a polling thread waits for.
    fn end_forwarded(&self) {
        self.transitions.fetch_add(1, Ordering::AcqRel);
        if self.open.fetch_sub(1, Ordering::SeqCst) == 1 && self.stop_requested() {
            self.wake_all();
        }
    }

    fn abandon(&self, n: u64) {
        if n > 0 {
            self.transitions.fetch_add(1, Ordering::AcqRel);
            self.open.fetch_sub(n, Ordering::AcqRel);
            self.wake_all();
        }
    }

    fn register_waker(&self, ev: Arc<dyn RtEvent>) {
        self.wakers.lock().push(ev);
    }

    fn register_source(&self, ch: std::sync::Weak<Channel>) {
        self.sources.lock().push(ch);
    }

    fn wake_all(&self) {
        for ev in self.wakers.lock().iter() {
            ev.bump();
        }
    }
}

/// Per-engine liveness accounting: moves the engine's open-stream count
/// ([`GatewayStats::open_streams`]) with the session-wide drain count, so
/// the last thread out (normal exit or unwind) can release the streams
/// the engine accepted but never finished.
struct EngineLive {
    threads: AtomicUsize,
    stats: Arc<GatewayStats>,
    stopctl: Arc<GatewayStop>,
}

impl EngineLive {
    fn opened(&self) {
        self.stats.open_streams.fetch_add(1, Ordering::AcqRel);
        self.stopctl.opened();
    }

    fn stream_done(&self) {
        self.stats.open_streams.fetch_sub(1, Ordering::AcqRel);
        self.stopctl.end_forwarded();
    }
}

/// Armed at the top of every engine thread; its `Drop` runs even on panic,
/// so a dying engine cannot leave the rest of the session waiting on
/// streams it will never finish.
struct ThreadExitGuard {
    live: Arc<EngineLive>,
}

impl Drop for ThreadExitGuard {
    fn drop(&mut self) {
        if self.live.threads.fetch_sub(1, Ordering::AcqRel) == 1 {
            let leaked = self.live.stats.open_streams.swap(0, Ordering::AcqRel);
            self.live.stopctl.abandon(leaked.max(0) as u64);
        }
    }
}

/// RAII bracket around one receive + relay turn. While held, the packet
/// being moved is at the "hidden" station: already popped from its conduit
/// (invisible to [`Channel::has_pending`]) but not yet counted into the
/// open-stream drain count — without this bracket the quiescence check in
/// [`GatewayStop::should_stop`] could pass right through the gap and stop
/// a peer engine that the packet is about to be forwarded to.
struct BusyGuard<'a>(&'a GatewayStop);

impl<'a> BusyGuard<'a> {
    fn enter(stopctl: &'a GatewayStop) -> Self {
        stopctl.busy.fetch_add(1, Ordering::AcqRel);
        stopctl.transitions.fetch_add(1, Ordering::AcqRel);
        BusyGuard(stopctl)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.transitions.fetch_add(1, Ordering::AcqRel);
        // The same split wake-up as `GatewayStop::end_forwarded`.
        if self.0.busy.fetch_sub(1, Ordering::SeqCst) == 1 && self.0.stop_requested() {
            self.0.wake_all();
        }
    }
}

/// RAII bracket around one flush stage's busy period: it maintains the
/// live [`GatewayStats::flush_active`] count the copy-placement scheduler
/// reads at receive time.
struct StageBusy<'a>(&'a AtomicU64);

impl<'a> StageBusy<'a> {
    fn enter(active: &'a AtomicU64) -> Self {
        active.fetch_add(1, Ordering::Relaxed);
        StageBusy(active)
    }
}

impl Drop for StageBusy<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A buffer traveling through the gateway pipeline: one GTM packet, or a
/// batch frame that is one whole stream, forwarded verbatim.
enum FwdBuf {
    /// The incoming driver's own buffer (outgoing driver is dynamic),
    /// attached to the session pool so consuming it recycles the memory.
    Owned(PooledBuf),
    /// An outgoing-driver static buffer, filled by the receive.
    Static(StaticBuf),
    /// One packet of a received batch frame: a window onto the landed
    /// frame, which goes back to its pool when its last packet is consumed.
    Slice(Arc<FwdBuf>, std::ops::Range<usize>),
}

impl FwdBuf {
    fn bytes(&self) -> &[u8] {
        match self {
            FwdBuf::Owned(v) => v,
            FwdBuf::Static(sb) => sb.as_slice(),
            FwdBuf::Slice(frame, at) => &frame.bytes()[at.clone()],
        }
    }
}

/// One packet — or one whole-stream frame — on its way through the
/// pipeline, plus where it goes. Items of different streams interleave
/// freely in the queue.
struct FwdItem {
    out_net: NetworkId,
    to: NodeId,
    last_hop: bool,
    buf: FwdBuf,
    /// The stream the packet belongs to.
    tag: StreamTag,
    /// True for a stream's end-equivalent packet (real end or a cancel):
    /// consuming it — retransmitted or dropped — releases the stream from
    /// the session-wide drain count and closes its ledger account.
    end_of_stream: bool,
    /// The stream holds a ledger account on this node: one its header
    /// opened here (a non-final hop under a credit window), or one a
    /// cancel created. Only then does the end that leaves close one; a
    /// dropped end closes whatever is there, since a canceller may have
    /// created an account after this item was built.
    account: bool,
    /// Packet bytes counted in the held-bytes gauge (fragments only; 0
    /// for control packets).
    held_bytes: usize,
    /// Payload fragments the item carries: one for a fragment, all of
    /// them for a stream that crosses as the frame it arrived in, none for
    /// anything else. Each one is a buffer switch and a forward-latency
    /// sample.
    frags: u64,
    /// When the polling side received the packet (engine clock), or 0
    /// when telemetry is off or the item carries no payload fragment —
    /// the start of the per-fragment forward-latency measurement.
    recv_ns: u64,
    /// Consume one outbound credit before retransmitting (flow-controlled
    /// stream on a non-final hop); cleared once that credit is in hand.
    consume: bool,
    /// The upstream side of a flow-controlled fragment that earns its
    /// sender a credit: where the stream's grants go after a successful
    /// retransmission, and its cancel if it dies on the way out.
    upstream: Option<Upstream>,
    /// Send a handoff ack on this channel to this peer after the end
    /// packet is successfully retransmitted (an acked stream whose origin
    /// is our upstream neighbour). Never set together with a failed
    /// retransmission — on failure the origin's ack deadline fires
    /// instead and drives its failover.
    ack: Option<(Arc<Channel>, NodeId)>,
    /// The copy-placement scheduler deferred this packet's unavoidable
    /// staging copy: `buf` is the raw received buffer, and the flush
    /// stage restages it into this landing before transmitting.
    restage: Option<Restage>,
}

/// Where a fragment's stream arrives from, and what goes back there once
/// the fragment is retransmitted.
struct Upstream {
    channel: Arc<Channel>,
    peer: NodeId,
    /// Credits to return: the stream's whole count on the fragment that
    /// completes a grant period, 0 on every other one.
    credits: u32,
}

impl Upstream {
    /// Return `credits` upstream as one credit packet, if there are any: a
    /// train returns what all its fragments of a stream carry in one.
    fn grant_sum(&self, tag: &StreamTag, credits: u32, stats: &GatewayStats) {
        if credits == 0 {
            return;
        }
        let credit = gtm::credit_packet(tag, credits);
        if self.channel.send_packet(self.peer, &[&credit]).is_ok() {
            stats
                .credits_granted
                .fetch_add(credits as u64, Ordering::Relaxed);
            stats.grants_sent.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl FwdItem {
    /// The outgoing conduit: which network, which peer, and whether over
    /// the regular (last hop) or the special channel.
    fn conduit(&self) -> (NetworkId, NodeId, bool) {
        (self.out_net, self.to, self.last_hop)
    }

    /// The upstream side of a fragment that carries credits back.
    fn carrying(&self) -> Option<&Upstream> {
        self.upstream.as_ref().filter(|up| up.credits > 0)
    }
}

/// One pipeline slot: what one received wire packet turned into for one
/// outgoing conduit. A plain packet is a unit of one; the packets of a
/// batch frame that share a conduit stay together, in order, so the flush
/// side can put them back on the wire as one frame — a frame in costs one
/// queue hand-off and one send out, like the single packet it is on the
/// wire. `pipeline_depth` counts these (the paper's "buffers").
enum FwdUnit {
    One(FwdItem),
    Frame(Vec<FwdItem>),
}

impl FwdUnit {
    fn items(&self) -> &[FwdItem] {
        match self {
            FwdUnit::One(item) => std::slice::from_ref(item),
            FwdUnit::Frame(items) => items,
        }
    }

    /// Payload fragments in the unit — each one a pipeline hand-off.
    fn frags(&self) -> u64 {
        self.items().iter().map(|item| item.frags).sum()
    }

    /// The outbound network the unit leaves on (a unit is never empty).
    fn out_net(&self) -> Option<NetworkId> {
        self.items().first().map(|item| item.out_net)
    }

    /// A whole message: every stream the unit carries also ends in it, so
    /// once it is on the wire nothing of it is left to receive — there is
    /// no next packet whose receive a second thread could overlap with
    /// this one's retransmission.
    fn is_whole_message(&self) -> bool {
        let items = self.items();
        items.iter().all(|item| {
            items
                .iter()
                .any(|last| last.end_of_stream && last.tag.key() == item.tag.key())
        })
    }

    /// Take the credit of the unit's first flow-controlled packet if it is
    /// there now; `false` when that stream's window is dry. A stream that
    /// was cancelled counts as ready: the flush side finds that out
    /// without waiting.
    fn take_head_credit(&mut self, shared: &FwdShared) -> bool {
        let items = match self {
            FwdUnit::One(item) => std::slice::from_mut(item),
            FwdUnit::Frame(items) => items.as_mut_slice(),
        };
        let Some(head) = items.iter_mut().find(|item| item.consume) else {
            return true;
        };
        match shared.ledger().try_take(head.tag.key()) {
            TakeOutcome::Taken => {
                head.consume = false;
                if let Some(m) = &shared.metrics {
                    m.credit_wait_ns.record(0);
                }
                true
            }
            TakeOutcome::Cancelled(_) => true,
            TakeOutcome::Empty => false,
        }
    }

    /// Account every packet of a unit that will never be sent.
    fn drop_all(&self, shared: &FwdShared) {
        for item in self.items() {
            drop_item(item, shared);
        }
    }

    /// The unit's packets, in order.
    fn into_items(self) -> impl Iterator<Item = FwdItem> {
        let (one, frame) = match self {
            FwdUnit::One(item) => (Some(item), Vec::new()),
            FwdUnit::Frame(items) => (None, items),
        };
        one.into_iter().chain(frame)
    }
}

/// Where the polling thread hands the units of one outgoing network: the
/// way out, and one of two shapes chosen once at spawn ([`never_waits`]).
struct Sink {
    path: OutPath,
    shape: Shape,
}

enum Shape {
    /// A run sink, which can never wait: every send on the way out is a
    /// queue push ([`DriverCaps::queued_send`]) and no packet bound onto
    /// the network consumes a credit. There is nothing a second thread
    /// could overlap and nothing to wait for, so the sink is its [`Run`]:
    /// the polling thread puts every unit into it, cut into trains, and
    /// the run leaves at the turn's end. No flush side, no queue and no
    /// forwarding thread.
    Run(Run),
    /// A piped sink, whose send takes time or may wait for a credit: the
    /// flush side, shared with the forwarding thread that drains the
    /// bounded queue — no queue at `pipeline_depth` 1, where the polling
    /// thread transmits everything itself and may wait doing so.
    ///
    /// Whoever transmits holds the flush lock from taking a unit to its
    /// last send. The forwarding thread pops *under* it, so the lock free
    /// and the queue empty together mean the flush side has nothing in
    /// hand — which is what lets [`dispatch`] transmit a whole message on
    /// the polling thread without overtaking a unit that arrived before
    /// it. The lock is never waited on across a send: the polling thread
    /// only try-locks while a queue exists, and the forwarding thread
    /// locks only after it saw a unit queued, which the polling thread —
    /// the queue's one producer — cannot have pushed while it transmits.
    /// So a plain mutex is safe under the virtual clock.
    Piped(Arc<Mutex<Flush>>, Option<RtSender<FwdUnit>>),
}

impl Sink {
    /// Put a run sink's run on the wire; `false` on an orderly disconnect
    /// of an outbound conduit.
    fn send_run(&mut self, shared: &FwdShared) -> bool {
        match &mut self.shape {
            Shape::Run(run) => run.send(&self.path, shared),
            Shape::Piped(..) => true,
        }
    }
}

/// Can a sink onto `net` never wait? Both outgoing channels' sends must be
/// queue pushes, and no packet bound onto `net` may consume a credit: flow
/// control is off, or every hop onto `net` of the plan the engine routes
/// by ([`ControlPlane::hop`]) is a last hop — `consume`'s own rule
/// ([`InboundCtx::item`]), read once. Membership only retires and readmits
/// paths the plan already holds.
fn never_waits(net: NetworkId, path: &OutPath, ctl: &ControlPlane, cfg: &GatewayConfig) -> bool {
    let plan = ctl.plan();
    path.regular.caps().queued_send
        && path.special.caps().queued_send
        && (cfg.credit_window.is_none()
            || plan
                .destinations()
                .filter_map(|dest| plan.primary(dest))
                .all(|hop| NetworkId(hop.net) != net || hop.last))
}

/// The engine's sink set: one [`Sink`] per outbound network.
struct Sinks(BTreeMap<NetworkId, Sink>);

impl Sinks {
    /// Does this gateway bridge onto `net`?
    fn bridges(&self, net: NetworkId) -> bool {
        self.0.contains_key(&net)
    }

    /// Accept one unit — its packets all leave on the same conduit of the
    /// same outbound network. Failing with [`MadError::Disconnected`]
    /// shuts the inbound side down (the outbound consumer is gone); the
    /// unit's packets are accounted (via [`drop_item`]) before it fails,
    /// after the turn's `tally` is published.
    fn accept(&mut self, unit: FwdUnit, tally: &mut Tally, shared: &FwdShared) -> Result<()> {
        match unit.out_net().and_then(|net| self.0.get_mut(&net)) {
            Some(sink) => dispatch(sink, unit, tally, shared),
            None => {
                // `bridges` is checked before a stream is accepted.
                tally.publish(&shared.stats);
                unit.drop_all(shared);
                Err(MadError::Protocol("no sink for the unit's network".into()))
            }
        }
    }
}

/// The outgoing channels of one network direction.
#[derive(Clone)]
struct OutPath {
    regular: Arc<Channel>,
    special: Arc<Channel>,
}

impl OutPath {
    fn channel(&self, last_hop: bool) -> &Arc<Channel> {
        if last_hop {
            &self.regular
        } else {
            &self.special
        }
    }
}

/// State shared by everything that moves pipeline items: the receive and
/// the flush side each carry a clone.
#[derive(Clone)]
struct FwdShared {
    stats: Arc<GatewayStats>,
    live: Arc<EngineLive>,
    /// The node's control plane: its ledger (used even with flow control
    /// off, as the cancellation bus), its route table, and the dispatcher
    /// every control packet the engine reads is handed to.
    ctl: Arc<ControlPlane>,
    runtime: Arc<dyn Runtime>,
    credit_timeout_ns: u64,
    tracer: Tracer,
    /// Hot-path telemetry handles; `None` compiles the recording out of
    /// the forwarding path entirely (the metrics-off default).
    metrics: Option<GwMetrics>,
}

impl FwdShared {
    fn ledger(&self) -> &CreditLedger {
        self.ctl.ledger()
    }

    fn queue_depth(&self, delta: i64) {
        if let Some(m) = &self.metrics {
            m.queue_depth.add(delta);
        }
    }
}

/// How a polling thread lands incoming packets (fixed per inbound network,
/// derived from the outgoing drivers it can feed).
#[derive(Clone, Copy)]
enum Landing {
    /// Take the incoming driver's own buffer (some outgoing driver is
    /// dynamic, or the outgoing static drivers disagree on ownership).
    Owned,
    /// Receive into an oversized static buffer of the (single) outgoing
    /// driver and trim to the packet length.
    Static(&'static str),
    /// Naive extra-copy path (`zero_copy = false`).
    Tmp,
}

/// A staging copy the receive stage left to the flush stage: the landing to
/// rebuild, and the size the receive stage would have landed the packet in.
/// The copy draws on that size's pool class whichever stage makes it, so
/// the classes a warmed-up gateway needs do not depend on placement.
#[derive(Clone, Copy)]
struct Restage {
    landing: Landing,
    size: usize,
}

/// Running gateway engine; joining waits for clean shutdown (which happens
/// when every inbound special-channel peer has disconnected, or the
/// session's [`GatewayStop`] fires with no streams left to drain, or the
/// drain deadline expires on stuck streams).
pub struct GatewayHandles {
    threads: Vec<JoinHandle<()>>,
    stats: Arc<GatewayStats>,
}

impl GatewayHandles {
    /// Wait for all gateway threads to finish.
    pub fn join(self) {
        for t in self.threads {
            if let Err(e) = t.join() {
                std::panic::resume_unwind(e);
            }
        }
    }

    /// The engine's live counters.
    pub fn stats(&self) -> &Arc<GatewayStats> {
        &self.stats
    }
}

/// The outgoing channel pairs the inbound direction `net_in` feeds: every
/// bridged network but its own.
fn out_paths(
    net_in: NetworkId,
    regular: &BTreeMap<NetworkId, Arc<Channel>>,
    special: &BTreeMap<NetworkId, Arc<Channel>>,
) -> BTreeMap<NetworkId, OutPath> {
    special
        .iter()
        .filter(|(&net_out, _)| net_out != net_in)
        .map(|(&net_out, sp)| {
            let out_path = OutPath {
                regular: regular[&net_out].clone(),
                special: sp.clone(),
            };
            (net_out, out_path)
        })
        .collect()
}

/// Spawn the forwarding engine of one gateway node for one virtual channel.
///
/// `regular` holds this node's regular channel per network; the special
/// channels, the gateway's own routing table and the node's credit ledger
/// come with `ctl`, the node's control plane.
pub(crate) fn spawn_gateway(
    rank: NodeId,
    vc_name: &str,
    regular: BTreeMap<NetworkId, Arc<Channel>>,
    cfg: GatewayConfig,
    runtime: Arc<dyn Runtime>,
    stopctl: Arc<GatewayStop>,
    ctl: Arc<ControlPlane>,
) -> GatewayHandles {
    assert!(cfg.pipeline_depth >= 1, "pipeline depth must be at least 1");
    let nets: Vec<NetworkId> = ctl.special().keys().copied().collect();
    let stats = Arc::new(GatewayStats::default());
    let shared = FwdShared {
        stats: stats.clone(),
        live: Arc::new(EngineLive {
            threads: AtomicUsize::new(0),
            stats: stats.clone(),
            stopctl: stopctl.clone(),
        }),
        credit_timeout_ns: cfg.credit_timeout_ns,
        tracer: runtime.tracer(),
        metrics: ctl.metrics().map(|plane| GwMetrics::new(plane)),
        runtime: runtime.clone(),
        ctl,
    };
    let special = shared.ctl.special();
    // A polling thread per inbound network and, when pipelining is on, a
    // forwarding thread per piped sink: all counted before the first runs.
    let mut workers: Vec<(String, Box<dyn FnOnce() + Send>)> = Vec::new();
    for &net_in in &nets {
        let paths = out_paths(net_in, &regular, special);
        let in_channel = special[&net_in].clone();
        stopctl.register_waker(in_channel.recv_event().clone());
        stopctl.register_source(Arc::downgrade(&in_channel));
        let inbound = Inbound::new(rank, in_channel, paths.values(), cfg, shared.clone());
        let mut sinks: BTreeMap<NetworkId, Sink> = BTreeMap::new();
        for (net_out, path) in paths {
            if never_waits(net_out, &path, &shared.ctl, &cfg) {
                let shape = Shape::Run(Run::default());
                sinks.insert(net_out, Sink { path, shape });
                continue;
            }
            let flush = Arc::new(Mutex::new(Flush::default()));
            let queue = (cfg.pipeline_depth > 1).then(|| {
                let (tx, rx) = RtQueue::<FwdUnit>::with_capacity(&*runtime, cfg.pipeline_depth - 1);
                let name = format!("gw{}-{}-fwd-{}-{}", rank.0, vc_name, net_in, net_out);
                let (flush, path, shared) = (flush.clone(), path.clone(), shared.clone());
                workers.push((
                    name,
                    Box::new(move || forwarding_thread(rx, flush, path, shared)),
                ));
                tx
            });
            let shape = Shape::Piped(flush, queue);
            sinks.insert(net_out, Sink { path, shape });
        }
        let name = format!("gw{}-{}-in-{}", rank.0, vc_name, net_in);
        workers.push((
            name,
            Box::new(move || polling_thread(inbound, Sinks(sinks))),
        ));
    }
    shared.live.threads.store(workers.len(), Ordering::Relaxed);
    stats
        .threads_spawned
        .store(workers.len() as u64, Ordering::Relaxed);
    let threads = workers
        .into_iter()
        .map(|(name, worker)| runtime.spawn(name, worker))
        .collect();
    GatewayHandles { threads, stats }
}

/// Routing decision of one accepted stream, kept while it is in flight.
struct InStream {
    out_net: NetworkId,
    to: NodeId,
    last_hop: bool,
    tag: StreamTag,
    /// The inbound peer the stream arrives from (cancellations go back
    /// this way).
    upstream: NodeId,
    /// Its header opened a ledger account here, or a cancel created one
    /// ([`FwdItem::account`]).
    account: bool,
    /// The fragment MTU its header announced — the landing-buffer size is
    /// recomputed from the *open* streams' MTUs, so one bulk transfer no
    /// longer pins the static landing buffer at its high-water size
    /// forever.
    mtu: u32,
    /// The stream's header requested a handoff acknowledgment and this
    /// engine is its first hop (the inbound peer *is* the origin): once
    /// the end packet is retransmitted, send an ack back upstream.
    ack: bool,
    /// Fragments received since the last one that carried a grant: credits
    /// the sender is owed and no fragment has been told to return yet.
    /// `Cell` because the polling side counts per fragment while holding
    /// only `&InStream`.
    grant_due: Cell<u32>,
}

/// Size of the static/naive landing buffer, derived from the currently
/// open streams (headers always precede fragments on a conduit, so every
/// receivable packet fits). Recomputed on stream open *and* close: the
/// old monotone high-water grow leaked the largest MTU ever seen across
/// the rest of the session. A train always fits, stream or no stream:
/// writers and upstream gateways send whole trains — a stream's header
/// arrives *inside* one — bounded by their outgoing driver's frame budget,
/// and that driver is this side's inbound driver.
fn landing_size(streams: &BTreeMap<StreamKey, InStream>, caps: &DriverCaps) -> usize {
    let mut size = gtm::landing_size_for(0).max(caps.preferred_mtu);
    for s in streams.values() {
        size = size.max(gtm::landing_size_for(s.mtu as usize));
    }
    size.min(caps.max_packet)
}

/// How many fragments of a stream one credit packet answers for: half the
/// smallest window a sender on this channel can hold, and at least one.
///
/// A sender that ran dry has its whole window on the way through this
/// gateway — a full period, two for any window of 2 or more — and the
/// fragment that completes each period carries the grant, so no sender
/// waits for a credit no fragment will bring, with no timer and no flush.
/// Half, not whole: a window returned in one piece would make sender and
/// gateway take turns instead of overlapping. Both ends of a conduit read
/// the window from the same configuration.
fn grant_period(cfg: &GatewayConfig) -> u32 {
    (cfg.credit_window.unwrap_or(1) / 2).max(1)
}

/// The fixed facts of one inbound network direction.
struct InboundCtx {
    rank: NodeId,
    in_channel: Arc<Channel>,
    in_caps: DriverCaps,
    cfg: GatewayConfig,
    shared: FwdShared,
    landing: Landing,
    /// Whether a relay copy may be deferred to the flush stage: only to a
    /// real flush stage, and only when the raw receive is itself
    /// copy-free (dynamic inbound driver — a static inbound would pay the
    /// staging copy in `recv_owned` anyway).
    can_defer: bool,
    /// Fragments of a stream per credit packet returned upstream; see
    /// [`grant_period`].
    grant_period: u32,
}

/// The demultiplexing state of one inbound network direction.
struct Demux {
    /// Streams currently crossing this inbound network.
    streams: BTreeMap<StreamKey, InStream>,
    /// Streams cancelled here whose upstream may still be sending: their
    /// late packets are dropped silently until the end/cancel arrives.
    cancelled: BTreeSet<StreamKey>,
    /// Open-stream count per inbound peer (drives `exclusive_streams`).
    open_from: BTreeMap<NodeId, u64>,
    /// Largest possible packet, tracked from the MTUs of the *open*
    /// streams (every control packet fits the floor; a fragment is always
    /// preceded on its conduit by its stream's header).
    max_pkt: usize,
    /// What the turn in progress counted and has not published yet.
    tally: Tally,
}

/// What a polling turn counts as it relays, in plain integers: messages,
/// fragments and their payload bytes, and the packet bytes it landed and
/// now holds. Published to [`GatewayStats`] in one go: before a unit is
/// handed to a piped sink, whose forwarding thread may settle it at once —
/// so the held-bytes gauge never reads below 0 — and at the turn's end,
/// before its runs leave. What a turn lands stays resident until its run
/// leaves, so the gauge's peak is still the true occupancy.
#[derive(Default)]
struct Tally {
    messages: u64,
    frags: u64,
    frag_bytes: u64,
    held: usize,
}

impl Tally {
    /// Add what was counted since the last publication to `stats`.
    fn publish(&mut self, stats: &GatewayStats) {
        let t = std::mem::take(self);
        if t.frags > 0 {
            stats.on_frags(t.frags, t.frag_bytes);
        }
        if t.messages > 0 {
            stats.messages.fetch_add(t.messages, Ordering::Relaxed);
        }
        if t.held > 0 {
            stats.held.add(t.held as i64);
        }
    }
}

/// What [`Inbound::serve`] tells its polling thread.
enum Served {
    /// The turn is over; pick the next ready peer.
    Continue,
    /// The inbound or an outbound side is gone: shut this side down.
    Finished,
}

/// The receive side of one inbound network: receive one self-described
/// packet from a ready peer, count it, relay it — demultiplexing stream
/// state as it goes — and degrade, not die, on a fault. Conduits are
/// bidirectional, so the same side also receives the *returning* credit
/// grants and cancels of streams this gateway sends out on the network,
/// and hands them to the node's control plane. Its [`polling_thread`]
/// blocks in `select_ready_after` for the next ready peer.
struct Inbound {
    ctx: InboundCtx,
    demux: Demux,
    /// Peer this side is pinned to in `exclusive_streams` mode.
    pinned: Option<NodeId>,
    /// The packets an owned landing took this turn and has not relayed
    /// yet; empty between turns, kept for its room.
    landed: VecDeque<Vec<u8>>,
}

impl Inbound {
    fn new<'a>(
        rank: NodeId,
        in_channel: Arc<Channel>,
        paths: impl Iterator<Item = &'a OutPath>,
        cfg: GatewayConfig,
        shared: FwdShared,
    ) -> Inbound {
        let in_caps = in_channel.caps();
        let streams = BTreeMap::new();
        let max_pkt = landing_size(&streams, &in_caps);
        Inbound {
            ctx: InboundCtx {
                rank,
                landing: landing_policy(paths, cfg),
                can_defer: cfg.pipeline_depth > 1 && in_caps.mode == BufferMode::Dynamic,
                grant_period: grant_period(&cfg),
                in_channel,
                in_caps,
                cfg,
                shared,
            },
            demux: Demux {
                streams,
                cancelled: BTreeSet::new(),
                open_from: BTreeMap::new(),
                max_pkt,
                tally: Tally::default(),
            },
            pinned: None,
            landed: VecDeque::new(),
        }
    }

    /// One turn: receive what `peer` has queued — the whole backlog under
    /// an owned landing, one packet under a landing that copies — relay
    /// it packet by packet, then put each sink's run on the wire. All of
    /// it inside one busy bracket: a packet is never out of sight of the
    /// teardown's quiescence check.
    fn serve(&mut self, peer: NodeId, sinks: &mut Sinks) -> Served {
        let Inbound {
            ctx,
            demux,
            pinned,
            landed,
        } = self;
        let shared = &ctx.shared;
        let _busy = BusyGuard::enter(&shared.live.stopctl);
        let recv = trace_span!(shared.tracer, "gw", "recv", "peer" = peer.0 as u64);
        let received = receive_packets(
            &ctx.in_channel,
            peer,
            ctx.landing,
            demux.max_pkt,
            shared.runtime.pool(),
            ctx.can_defer,
            &shared.stats,
            landed,
        );
        let taken = landed.len() + usize::from(matches!(received, Ok(Some(_))));
        drop(recv.arg("packets", taken as u64));
        #[cfg(feature = "census")]
        if received.is_ok() {
            crate::census::note_take(taken);
        }
        let mut served = Served::Continue;
        match received {
            Ok(mut copied) => {
                let bytes = landed.iter().map(Vec::len).sum::<usize>()
                    + copied.as_ref().map_or(0, |(buf, _)| buf.bytes().len());
                if taken > 0 {
                    ctx.in_channel.stats().on_recvs(peer.0, taken as u64, bytes);
                }
                let pool = shared.runtime.pool();
                let next = |copied: &mut Option<_>, landed: &mut VecDeque<Vec<u8>>| {
                    copied.take().or_else(|| {
                        let packet = landed.pop_front()?;
                        Some((FwdBuf::Owned(pool.adopt(packet)), None))
                    })
                };
                while let Some((buf, restage)) = next(&mut copied, landed) {
                    let _relay = trace_span!(shared.tracer, "gw", "relay", "peer" = peer.0 as u64);
                    match ctx.relay(demux, peer, buf, restage, sinks) {
                        Ok(()) => {}
                        Err(MadError::Disconnected) => {
                            landed.clear();
                            served = Served::Finished;
                            break;
                        }
                        Err(_) => {
                            // A malformed or misrouted packet poisons only
                            // itself: count it, drop it, keep forwarding
                            // everything else.
                            shared.stats.on_error();
                            trace_instant!(
                                shared.tracer,
                                "gw",
                                "relay-error",
                                "peer" = peer.0 as u64
                            );
                        }
                    }
                }
                if ctx.cfg.exclusive_streams {
                    *pinned = match demux.open_from.get(&peer) {
                        Some(&n) if n > 0 => Some(peer),
                        _ => None,
                    };
                }
            }
            Err(MadError::Disconnected) => served = Served::Finished,
            Err(_) => {
                // A broken receive loses the packet, and with it the
                // framing of every stream on this conduit: degrade by
                // cancelling this peer's streams, keep serving others.
                shared.stats.on_error();
                trace_instant!(shared.tracer, "gw", "recv-error", "peer" = peer.0 as u64);
                ctx.cancel_peer_streams(demux, peer, sinks);
                *pinned = None;
            }
        }
        demux.tally.publish(&shared.stats);
        for sink in sinks.0.values_mut() {
            if !sink.send_run(shared) {
                served = Served::Finished;
            }
        }
        served
    }
}

/// The polling thread of one [`Inbound`]: blocks for the next ready peer,
/// round-robin past the one served last.
fn polling_thread(mut inbound: Inbound, mut sinks: Sinks) {
    let live = inbound.ctx.shared.live.clone();
    let _exit = ThreadExitGuard { live: live.clone() };
    let stopctl = &live.stopctl;
    let runtime = inbound.ctx.shared.runtime.clone();
    let in_channel = inbound.ctx.in_channel.clone();
    // Every wait of this thread — for room in a pipeline, for credit, for
    // a conduit, for a socket to take a write — reads the network's
    // sockets too, so they drain whatever this thread waits on
    // (DESIGN §8.3).
    in_channel.recv_event().drain_on_this_thread();
    let drain_timeout_ns = inbound.ctx.cfg.drain_timeout_ns;
    // Fair-scan cursor: the peer served last turn.
    let mut cursor = None;
    // Deadline of the teardown drain, armed when a stop is requested while
    // streams are still open.
    let drain_deadline: Cell<Option<u64>> = Cell::new(None);

    loop {
        let wait_timeout = || -> Option<u64> {
            if !stopctl.stop_requested() {
                return None; // no stop in sight: wait indefinitely
            }
            let now = runtime.now_nanos();
            let deadline = match drain_deadline.get() {
                Some(d) => d,
                None => {
                    let d = now.saturating_add(drain_timeout_ns);
                    drain_deadline.set(Some(d));
                    d
                }
            };
            Some(deadline.saturating_sub(now))
        };
        let peer = match inbound.pinned {
            Some(p) => p,
            None => {
                match in_channel.select_ready_after(cursor, || stopctl.should_stop(), wait_timeout)
                {
                    Ok(p) => p,
                    // Inbound peers gone, session stopping, or the drain
                    // deadline expired on streams that will never end.
                    Err(_) => return,
                }
            }
        };
        cursor = Some(peer);
        if let Served::Finished = inbound.serve(peer, &mut sinks) {
            return;
        }
    }
}

impl InboundCtx {
    fn resize_landing(&self, d: &mut Demux) {
        d.max_pkt = landing_size(&d.streams, &self.in_caps);
    }

    /// The one exit from the demultiplexing table — a stream's end, its
    /// cancel, or a cancellation decided here: forget the stream, release
    /// its inbound peer's open count and refit the landing buffer to the
    /// streams still open.
    fn close(&self, d: &mut Demux, key: StreamKey) -> Option<InStream> {
        let stream = d.streams.remove(&key)?;
        if let Some(n) = d.open_from.get_mut(&stream.upstream) {
            *n = n.saturating_sub(1);
        }
        self.resize_landing(d);
        Some(stream)
    }

    /// Demultiplex and forward one received wire packet. A batch frame
    /// that is one whole stream crosses as the buffer it arrived in
    /// ([`InboundCtx::whole_stream`]). Any other is taken apart — every
    /// packet of the train goes through the same per-packet rules as if it
    /// had arrived alone — and put back together per outgoing conduit: the
    /// flush side gets one unit per run of consecutive packets that leave
    /// the same way, so a train in is a train out wherever the outbound
    /// driver's frame budget and the streams' credits allow, and never a
    /// reordering.
    fn relay(
        &self,
        d: &mut Demux,
        peer: NodeId,
        buf: FwdBuf,
        restage: Option<Restage>,
        sinks: &mut Sinks,
    ) -> Result<()> {
        let shared = &self.shared;
        let (tag, body) = gtm::decode_packet(buf.bytes())?;
        // Arrival timestamp for the forward-latency histogram: one clock read
        // per wire packet, and only when telemetry is on.
        let recv_ns = match &shared.metrics {
            Some(_) => shared.runtime.now_nanos(),
            None => 0,
        };
        if !matches!(body, PacketBody::Batch) {
            return match self.relay_one(d, peer, buf, tag, body, recv_ns, restage, sinks)? {
                Some(item) => sinks.accept(FwdUnit::One(item), &mut d.tally, shared),
                None => Ok(()),
            };
        }
        // A frame that is one whole stream leaves as the buffer it landed
        // in; a deferred staging copy is dropped, as for every frame.
        if let Some((whole, hop)) = self.whole_stream(d, buf.bytes(), sinks) {
            let item = self.pass_whole(whole, hop, peer, buf, recv_ns, &mut d.tally);
            return sinks.accept(FwdUnit::One(item), &mut d.tally, shared);
        }

        // The packets are windows onto the landed frame, not copies.
        let frame = Arc::new(buf);
        let packets = gtm::batch_packets(frame.bytes())?;
        // One slot per packet: a bulk stream's [H,P] train takes two
        // items' worth, not the four a growing `Vec` starts with.
        let mut items = Vec::with_capacity(packets.clone().count());
        let mut at = PRELUDE_LEN;
        for sub in packets {
            at += gtm::BATCH_ENTRY_OVERHEAD;
            let packet = FwdBuf::Slice(frame.clone(), at..at + sub.len());
            at += sub.len();
            let relayed = gtm::decode_packet(sub).and_then(|(tag, body)| {
                self.relay_one(d, peer, packet, tag, body, recv_ns, None, sinks)
            });
            match relayed {
                Ok(item) => items.extend(item),
                Err(_) => {
                    // One bad packet poisons only itself, as on the
                    // unbatched path.
                    shared.stats.on_error();
                    trace_instant!(shared.tracer, "gw", "relay-error", "peer" = peer.0 as u64);
                }
            }
        }
        // A fragment whose stream's last word came in the same frame earns
        // its sender nothing by a grant: the sender closed the stream's
        // account before it sent that word, so the grant — and whatever the
        // stream was still owed, gone with its table entry — would be
        // dropped on arrival, after costing a buffer, a send and a wake-up.
        // Only the count goes: a fragment that fails on its way out still
        // has to tell the upstream hop.
        for last in 0..items.len() {
            if items[last].end_of_stream {
                let key = items[last].tag.key();
                for item in items[..last].iter_mut().filter(|i| i.tag.key() == key) {
                    if let Some(up) = &mut item.upstream {
                        up.credits = 0;
                    }
                }
            }
        }
        while let Some(head) = items.first() {
            let conduit = head.conduit();
            let run = items
                .iter()
                .take_while(|item| item.conduit() == conduit)
                .count();
            let rest = items.split_off(run);
            let unit = FwdUnit::Frame(std::mem::replace(&mut items, rest));
            if let Err(e) = sinks.accept(unit, &mut d.tally, shared) {
                for item in &items {
                    drop_item(item, shared);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Is this batch frame one whole stream ([`gtm::whole_stream`]) that
    /// the per-packet rules would relay in full, as one train, with every
    /// credit in hand? The stream must be neither open nor tombstoned here;
    /// its header must pass the rules a header meets (not direct, not for
    /// this gateway, routed onto a network this gateway bridges); the frame
    /// must fit the outgoing driver's [`gtm::FrameBudget`] whole; and on a
    /// non-final hop under a credit window, the window must cover every
    /// fragment. `None` sends the frame down the per-packet path, which
    /// decides — and reports — anything wrong with it. Reads the frame;
    /// changes nothing.
    fn whole_stream(
        &self,
        d: &Demux,
        frame: &[u8],
        sinks: &Sinks,
    ) -> Option<(gtm::WholeStream, PathHop)> {
        let whole = gtm::whole_stream(frame)?;
        let tag = whole.header.tag;
        let key = tag.key();
        if d.streams.contains_key(&key) || d.cancelled.contains(&key) {
            return None;
        }
        if whole.header.direct || tag.dest == self.rank {
            return None;
        }
        let hop = self.shared.ctl.hop(tag.dest).ok()?;
        let sink = sinks.0.get(&NetworkId(hop.net))?;
        let budget = gtm::FrameBudget::of(&sink.path.channel(hop.last).caps());
        if !budget.holds(frame.len(), whole.packets) {
            return None;
        }
        if let (Some(window), false) = (self.cfg.credit_window, hop.last) {
            if whole.frags > u64::from(window) {
                return None;
            }
        }
        Some((whole, hop))
    }

    /// Accept a [`InboundCtx::whole_stream`] frame as one pipeline item
    /// that holds the landed buffer whole, with every effect the
    /// per-packet rules have on its packets: the stream opens and ends
    /// (counted, traced, held against the drain), each fragment is counted
    /// and charged its buffer switch, and the held-bytes gauge rises by the
    /// fragments' packet bytes until the frame is on the wire. What those
    /// rules would have opened and closed within the frame — the
    /// demultiplexing entry, and on a non-final hop a ledger account whose
    /// window covers every fragment — is not opened at all. No grant goes
    /// back (the sender closed its account before it sent the end), but a
    /// frame that fails on its way out still cancels upstream. The counts
    /// go into the turn's `tally`.
    fn pass_whole(
        &self,
        whole: gtm::WholeStream,
        hop: PathHop,
        peer: NodeId,
        buf: FwdBuf,
        recv_ns: u64,
        tally: &mut Tally,
    ) -> FwdItem {
        let shared = &self.shared;
        let tag = whole.header.tag;
        trace_instant!(
            shared.tracer,
            "gw",
            "stream-open",
            "src" = tag.src.0 as u64,
            "dest" = tag.dest.0 as u64,
        );
        shared.live.opened();
        for _ in 0..whole.frags {
            shared.runtime.charge_overhead(self.cfg.switch_overhead_ns);
        }
        tally.frags += whole.frags;
        tally.frag_bytes += whole.payload;
        tally.held += whole.held;
        tally.messages += 1;
        let flow_controlled = self.cfg.credit_window.is_some();
        FwdItem {
            out_net: NetworkId(hop.net),
            to: NodeId(hop.node),
            last_hop: hop.last,
            buf,
            tag,
            end_of_stream: true,
            account: false,
            held_bytes: whole.held,
            frags: whole.frags,
            recv_ns: if whole.frags > 0 { recv_ns } else { 0 },
            consume: false,
            upstream: (whole.frags > 0 && flow_controlled).then(|| Upstream {
                channel: self.in_channel.clone(),
                peer,
                credits: 0,
            }),
            ack: (whole.header.acked && peer == tag.src).then(|| (self.in_channel.clone(), peer)),
            restage: None,
        }
    }

    /// Demultiplex one GTM packet — a wire packet of its own, or one packet
    /// of a received train — into the pipeline item that forwards it, or
    /// `None` when nothing leaves: a control packet the control plane
    /// took, or a late packet of a stream cancelled here.
    #[allow(clippy::too_many_arguments)] // internal helper of relay
    fn relay_one(
        &self,
        d: &mut Demux,
        peer: NodeId,
        buf: FwdBuf,
        tag: StreamTag,
        body: PacketBody,
        recv_ns: u64,
        restage: Option<Restage>,
        sinks: &Sinks,
    ) -> Result<Option<FwdItem>> {
        let shared = &self.shared;
        let key = tag.key();

        // Control traffic rides the special conduits but never touches
        // stream state: returning credits and cancels of streams this
        // node sends out on the inbound network, stray handoff acks,
        // metrics pulls and membership events all belong to the node's
        // control plane. The one exception is this engine's own rule: a
        // cancel whose stream is in the table (or tombstoned) below is
        // stream state.
        let stream_cancel = matches!(body, PacketBody::Cancel(_))
            && (d.streams.contains_key(&key) || d.cancelled.contains(&key));
        if !stream_cancel && shared.ctl.dispatch(&tag, &body, buf.bytes()) == Dispatch::Handled {
            return Ok(None);
        }

        // Late packets of a stream cancelled here: swallow until its source
        // stops (the end or cancel clears the tombstone).
        if d.cancelled.contains(&key) {
            if matches!(body, PacketBody::End | PacketBody::Cancel(_)) {
                d.cancelled.remove(&key);
            }
            return Ok(None);
        }

        // A live in-flight stream marked cancelled in the ledger (its outbound
        // side timed out or hit a dead peer): tear it down on this side too —
        // tell the upstream hop, relay a cancel downstream in place of the
        // end, and tombstone the key.
        if d.streams.contains_key(&key) {
            if let Some(reason) = shared.ledger().cancelled(key) {
                let cancel = self.cancel_stream(d, key, reason, true);
                // The packet in hand belongs to the dead stream: swallow it,
                // unless it is the source's own last word (no more will come).
                if matches!(body, PacketBody::End | PacketBody::Cancel(_)) {
                    d.cancelled.remove(&key);
                }
                return Ok(cancel);
            }
        }

        match body {
            PacketBody::Credit(_)
            | PacketBody::Batch
            | PacketBody::Ack
            | PacketBody::MetricsRequest
            | PacketBody::MetricsReply
            | PacketBody::Member(_) => Err(MadError::Protocol(format!(
                "control packet {body:?} slipped past the dispatcher"
            ))),
            PacketBody::Header(header) => {
                if header.tag.dest == self.rank {
                    return Err(MadError::Protocol(format!(
                        "message for the gateway itself ({}) arrived on the special channel",
                        self.rank
                    )));
                }
                if header.direct {
                    return Err(MadError::Protocol(
                        "direct-delivery GTM stream arrived at a gateway".into(),
                    ));
                }
                if d.streams.contains_key(&key) {
                    return Err(MadError::Protocol(format!(
                        "duplicate GTM header for in-flight stream {key:?}"
                    )));
                }
                let hop = shared.ctl.hop(header.tag.dest)?;
                let out_net = NetworkId(hop.net);
                if !sinks.bridges(out_net) {
                    return Err(MadError::Protocol(format!(
                        "route to {} leaves on {out_net}, which this gateway does not bridge",
                        header.tag.dest
                    )));
                }
                // On a non-final hop this gateway is the next conduit's
                // sender: self-grant the window it will spend re-sending.
                let account = match (self.cfg.credit_window, hop.last) {
                    (Some(w), false) => {
                        shared.ledger().open(key, w);
                        true
                    }
                    _ => false,
                };
                let stream = InStream {
                    out_net,
                    to: NodeId(hop.node),
                    last_hop: hop.last,
                    tag,
                    upstream: peer,
                    account,
                    mtu: header.mtu,
                    // Only the first hop acks: the inbound peer must *be* the
                    // origin, so a chained gateway never acks on its behalf.
                    ack: header.acked && peer == tag.src,
                    grant_due: Cell::new(0),
                };
                trace_instant!(
                    shared.tracer,
                    "gw",
                    "stream-open",
                    "src" = tag.src.0 as u64,
                    "dest" = tag.dest.0 as u64,
                );
                shared.live.opened();
                *d.open_from.entry(peer).or_insert(0) += 1;
                let item = self.item(&stream, buf, false, false, peer, recv_ns, restage);
                d.streams.insert(key, stream);
                self.resize_landing(d);
                Ok(Some(item))
            }
            PacketBody::Part(_) => {
                let stream = d.streams.get(&key).ok_or_else(|| {
                    MadError::Protocol(format!("GTM descriptor for unknown stream {key:?}"))
                })?;
                let item = self.item(stream, buf, false, false, peer, recv_ns, restage);
                Ok(Some(item))
            }
            PacketBody::Frag => {
                let stream = d.streams.get(&key).ok_or_else(|| {
                    MadError::Protocol(format!("GTM fragment for unknown stream {key:?}"))
                })?;
                let payload = (buf.bytes().len() - PRELUDE_LEN) as u64;
                shared.runtime.charge_overhead(self.cfg.switch_overhead_ns);
                let item = self.item(stream, buf, true, false, peer, recv_ns, restage);
                d.tally.frags += 1;
                d.tally.frag_bytes += payload;
                d.tally.held += item.held_bytes;
                Ok(Some(item))
            }
            PacketBody::End => {
                let stream = self.close(d, key).ok_or_else(|| {
                    MadError::Protocol(format!("GTM end for unknown stream {key:?}"))
                })?;
                d.tally.messages += 1;
                let item = self.item(&stream, buf, false, true, peer, recv_ns, restage);
                Ok(Some(item))
            }
            PacketBody::Cancel(reason) => {
                // Only a cancel of a stream in this table gets here (see
                // `stream_cancel` above). The upstream hop killed the
                // stream: drop its state, mark the ledger (waking any
                // forwarding side blocked on its credits) and relay the
                // cancel downstream in place of the end packet.
                let mut stream = self.close(d, key).ok_or_else(|| {
                    MadError::Protocol(format!("GTM cancel for unknown stream {key:?}"))
                })?;
                shared.ledger().cancel(key, reason);
                stream.account = true;
                shared.stats.on_cancelled();
                trace_instant!(
                    shared.tracer,
                    "gw",
                    "stream-cancel",
                    "src" = tag.src.0 as u64,
                    "dest" = tag.dest.0 as u64,
                );
                // A relayed cancel terminates the stream but is not a
                // successful handoff — never ack it.
                stream.ack = false;
                let item = self.item(&stream, buf, false, true, peer, recv_ns, restage);
                Ok(Some(item))
            }
        }
    }

    /// Build the pipeline item for one accepted packet.
    #[allow(clippy::too_many_arguments)] // internal helper of relay
    fn item(
        &self,
        stream: &InStream,
        buf: FwdBuf,
        is_frag: bool,
        end_of_stream: bool,
        peer: NodeId,
        recv_ns: u64,
        restage: Option<Restage>,
    ) -> FwdItem {
        let flow_controlled = self.cfg.credit_window.is_some();
        let held_bytes = if is_frag { buf.bytes().len() } else { 0 };
        // Every fragment earns a credit, and the one that completes a grant
        // period carries them all back: the one place that decides which
        // fragment carries a grant.
        let upstream = (is_frag && flow_controlled).then(|| {
            let due = stream.grant_due.get() + 1;
            let credits = if due >= self.grant_period { due } else { 0 };
            stream.grant_due.set(due - credits);
            Upstream {
                channel: self.in_channel.clone(),
                peer,
                credits,
            }
        });
        FwdItem {
            out_net: stream.out_net,
            to: stream.to,
            last_hop: stream.last_hop,
            buf,
            tag: stream.tag,
            end_of_stream,
            account: stream.account,
            held_bytes,
            frags: u64::from(is_frag),
            // Forward latency is measured on payload fragments only.
            recv_ns: if is_frag { recv_ns } else { 0 },
            consume: is_frag && flow_controlled && !stream.last_hop,
            upstream,
            ack: (end_of_stream && stream.ack).then(|| (self.in_channel.clone(), peer)),
            restage,
        }
    }

    /// Tear down one in-flight stream after a cancellation: notify the
    /// upstream hop (so its sender stops), tombstone the key so the
    /// source's still-in-flight packets are swallowed, and return the
    /// cancel that replaces the end packet downstream (so later hops and
    /// the receiver drop it) — `None` if the stream is not in the table.
    /// Only the affected stream dies — everything else keeps flowing.
    fn cancel_stream(
        &self,
        d: &mut Demux,
        key: StreamKey,
        reason: CancelReason,
        notify_upstream: bool,
    ) -> Option<FwdItem> {
        let shared = &self.shared;
        let mut stream = self.close(d, key)?;
        shared.stats.on_cancelled();
        trace_instant!(
            shared.tracer,
            "gw",
            "stream-cancel",
            "src" = stream.tag.src.0 as u64,
            "dest" = stream.tag.dest.0 as u64,
        );
        d.cancelled.insert(key);
        let mut cancel = shared.runtime.pool().get(PRELUDE_LEN + 1);
        gtm::encode_cancel_into(cancel.vec(), &stream.tag, reason);
        if notify_upstream {
            let _ = self.in_channel.send_packet(stream.upstream, &[&cancel]);
        }
        // Dropping the downstream cancel on a dead sink is fine — its
        // consumption is what releases the stream from the drain count
        // either way. A cancelled stream is never acked: the origin's ack
        // deadline (or the upstream cancel notification) drives its
        // failover. The ledger marks the stream cancelled, so it holds an
        // account here whoever created it.
        stream.ack = false;
        stream.account = true;
        let peer = stream.upstream;
        Some(self.item(&stream, FwdBuf::Owned(cancel), false, true, peer, 0, None))
    }

    /// Cancel every stream that entered through `peer` (its conduit framing is
    /// lost). Downstream hops are told; the peer itself is not (its conduit
    /// just failed).
    fn cancel_peer_streams(&self, d: &mut Demux, peer: NodeId, sinks: &mut Sinks) {
        let keys: Vec<StreamKey> = d
            .streams
            .iter()
            .filter(|(_, s)| s.upstream == peer)
            .map(|(&k, _)| k)
            .collect();
        for key in keys {
            self.shared
                .ledger()
                .cancel(key, CancelReason::PeerUnreachable);
            if let Some(cancel) = self.cancel_stream(d, key, CancelReason::PeerUnreachable, false) {
                let _ = sinks.accept(FwdUnit::One(cancel), &mut d.tally, &self.shared);
            }
        }
    }
}

/// Receive a turn's packets from the inbound conduit into the cheapest
/// buffers the landing policy allows. An owned landing takes every packet
/// queued now ([`Conduit::recv_queued`]) into `landed` and returns `None`;
/// a landing that copies receives one packet and returns it. All three
/// landings draw on the session buffer pool, so a warmed-up gateway
/// allocates nothing per packet.
///
/// When the landing requires a staging copy (`Static`/`Tmp`), the
/// copy-placement scheduler decides *which* pipeline stage performs it:
/// if `can_defer` holds (dynamic inbound driver feeding a real flush
/// stage) and the flush side is idle right now, the packet is taken raw
/// and the returned landing marker tells the flush stage to restage it
/// before transmitting — overlapping the copy with the next receive, the
/// E2 win. Otherwise the copy happens here, exactly as before.
#[allow(clippy::too_many_arguments)] // internal helper of serve
fn receive_packets(
    in_channel: &Arc<Channel>,
    peer: NodeId,
    landing: Landing,
    max_pkt: usize,
    pool: &Arc<mad_util::pool::BufferPool>,
    can_defer: bool,
    stats: &GatewayStats,
    landed: &mut VecDeque<Vec<u8>>,
) -> Result<Option<(FwdBuf, Option<Restage>)>> {
    let mut conduit = in_channel.lock_conduit(peer)?;
    let staged = match landing {
        Landing::Owned => {
            conduit.recv_queued(landed)?;
            return Ok(None);
        }
        staged => staged,
    };
    if can_defer && stats.flush_active.load(Ordering::Relaxed) == 0 {
        // Flush-placed while flush was idle: an idle-stage placement by
        // construction, counted where the copy is made (`restage_item`) —
        // a batch frame taken this way is never copied at all: it leaves
        // whole or as a gather, and the outgoing driver stages it.
        let buf = FwdBuf::Owned(pool.adopt(conduit.recv_owned()?));
        let restage = Restage {
            landing: staged,
            size: max_pkt,
        };
        return Ok(Some((buf, Some(restage))));
    }
    let buf = match staged {
        Landing::Owned => unreachable!("owned landing returned above"),
        Landing::Static(owner) => {
            let mut sb = StaticBuf::from_pooled(owner, pool.take(max_pkt));
            let n = conduit.recv_into(sb.as_mut_slice())?;
            sb.truncate(n);
            FwdBuf::Static(sb)
        }
        Landing::Tmp => {
            let mut tmp = pool.take(max_pkt);
            let n = conduit.recv_into(&mut tmp)?;
            tmp.vec().truncate(n);
            FwdBuf::Owned(tmp)
        }
    };
    stats.copies_recv.fetch_add(1, Ordering::Relaxed);
    // Receive-placed: an idle-stage placement only if nothing deliverable
    // was already waiting behind the copy on this conduit (`backlog`, not
    // `ready` — a sender running ahead of modeled time is not backlog).
    if !conduit.backlog() {
        stats.copy_idle_hits.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Some((buf, None)))
}

/// Perform a deferred staging copy on the flush stage: rebuild the buffer
/// the receive side would have produced, right before transmission. The
/// copy cost lands on this stage's clock (and the simulated timeline via
/// `charge_copy`), which is the whole point — it overlaps with the next
/// receive instead of serializing behind it.
fn restage_item(item: &mut FwdItem, shared: &FwdShared) {
    let Some(Restage { landing, size }) = item.restage.take() else {
        return;
    };
    let owner = match landing {
        Landing::Owned => return, // nothing to restage
        Landing::Static(owner) => Some(owner),
        Landing::Tmp => None,
    };
    let bytes = item.buf.bytes().len();
    let mut copy = shared.runtime.pool().get(size.max(bytes));
    copy.vec().extend_from_slice(item.buf.bytes());
    shared.runtime.charge_copy(bytes);
    shared.stats.copies_flush.fetch_add(1, Ordering::Relaxed);
    shared.stats.copy_idle_hits.fetch_add(1, Ordering::Relaxed);
    item.buf = match owner {
        Some(owner) => FwdBuf::Static(StaticBuf::from_pooled(owner, copy)),
        None => FwdBuf::Owned(copy),
    };
}

/// Derive the landing policy of one inbound direction from the buffer
/// disciplines of every channel it can forward into.
fn landing_policy<'a>(paths: impl Iterator<Item = &'a OutPath>, cfg: GatewayConfig) -> Landing {
    if !cfg.zero_copy {
        return Landing::Tmp;
    }
    let mut owner: Option<&'static str> = None;
    for path in paths {
        for caps in [path.regular.caps(), path.special.caps()] {
            if caps.mode != BufferMode::Static {
                return Landing::Owned;
            }
            match owner {
                None => owner = Some(caps.name),
                Some(o) if o == caps.name => {}
                // Two static drivers with different buffer ownership: no
                // single landing buffer suits both, fall back to owned.
                Some(_) => return Landing::Owned,
            }
        }
    }
    owner.map_or(Landing::Owned, Landing::Static)
}

/// Hand one unit to its sink. Who transmits it is read from what the
/// engine already knows, never from a size or a setting. The polling
/// thread does, in place, when there is nothing to overlap the
/// retransmission with: always on a run sink, which takes the unit into
/// the turn's [`Run`]; on a piped sink with no forwarding thread (depth 1);
/// and on a piped sink for a whole message, when the flush side has
/// nothing in hand or queued and the head's credit is there without
/// waiting. Everything else — a mid-stream fragment, anything behind a
/// backlog or a dry window — crosses the paper's two-stage pipeline,
/// counting buffer switches and backpressure stalls. Either way a unit
/// leaves after every unit accepted before it (see [`Sink`]). A piped
/// unit may be settled as soon as it is handed over, so the turn's
/// `tally` is published first.
fn dispatch(
    sink: &mut Sink,
    mut unit: FwdUnit,
    tally: &mut Tally,
    shared: &FwdShared,
) -> Result<()> {
    let Sink { path, shape } = sink;
    let (flush, queue) = match shape {
        Shape::Run(run) => {
            run.take(unit, path, shared);
            return Ok(());
        }
        Shape::Piped(flush, queue) => (flush, queue),
    };
    tally.publish(&shared.stats);
    let Some(tx) = queue else {
        return flush.lock().transmit(unit, path, shared);
    };
    if unit.is_whole_message() {
        if let Some(mut flush) = flush.try_lock() {
            if tx.is_empty() && unit.take_head_credit(shared) {
                return flush.transmit(unit, path, shared);
            }
        }
    }
    shared.stats.on_switch(unit.frags());
    let unit = match tx.try_push(unit) {
        Ok(()) => {
            shared.queue_depth(1);
            return Ok(());
        }
        Err(unit) => unit,
    };
    if let Some(head) = unit.items().first() {
        shared.stats.on_stall();
        trace_instant!(
            shared.tracer,
            "gw",
            "stall",
            "src" = head.tag.src.0 as u64,
            "dest" = head.tag.dest.0 as u64,
        );
    }
    let _wait = trace_span!(shared.tracer, "gw", "stall-wait");
    match tx.push(unit) {
        Ok(()) => {
            shared.queue_depth(1);
            Ok(())
        }
        Err(unit) => {
            // The forwarding thread is gone: account the unit ourselves,
            // then shut this side down.
            unit.drop_all(shared);
            Err(MadError::Disconnected)
        }
    }
}

/// Account for a pipeline item that is being dropped instead of sent: the
/// held-bytes gauge goes down, and an end-equivalent item still releases
/// its stream (consumed-by-sink means sent *or* dropped).
fn drop_item(item: &FwdItem, shared: &FwdShared) {
    shared.stats.held.add(-(item.held_bytes as i64));
    if item.end_of_stream {
        shared.live.stream_done();
        shared.ledger().close(item.tag.key());
    }
}

/// Cancel the stream of `item` from its outbound side (credit deadline hit
/// or dead peer): mark the node's ledger, and — if this is the first
/// cancellation of the stream — send best-effort cancel packets to the
/// neighbour hops: upstream if `item` knows the way back, downstream
/// unless `tell_downstream` is false (the downstream conduit itself is
/// what just failed).
fn cancel_outbound(
    path: &OutPath,
    item: &FwdItem,
    reason: CancelReason,
    tell_downstream: bool,
    shared: &FwdShared,
) {
    let tag = &item.tag;
    let key = tag.key();
    let first = shared.ledger().cancelled(key).is_none();
    shared.ledger().cancel(key, reason);
    if !first {
        return; // the stream is already being torn down; don't re-notify
    }
    trace_instant!(
        shared.tracer,
        "gw",
        "stream-cancel",
        "src" = tag.src.0 as u64,
        "dest" = tag.dest.0 as u64,
    );
    let mut cancel = shared.runtime.pool().get(PRELUDE_LEN + 1);
    gtm::encode_cancel_into(cancel.vec(), tag, reason);
    if tell_downstream {
        let _ = path.channel(item.last_hop).send_packet(item.to, &[&cancel]);
    }
    if let Some(up) = &item.upstream {
        let _ = up.channel.send_packet(up.peer, &[&cancel]);
    }
}

/// A queued item's stream turned out dead on the outbound side (ledger
/// cancel or credit deadline): cancel it both ways, then account the item
/// as dropped.
fn cancel_and_drop(path: &OutPath, item: &FwdItem, reason: CancelReason, shared: &FwdShared) {
    cancel_outbound(path, item, reason, true, shared);
    drop_item(item, shared);
}

/// Consume the outbound credit of one pipeline item, waiting up to the
/// credit deadline. On failure the stream is cancelled and the item
/// accounted (dropped); `None` tells the caller the item was consumed.
fn take_credit_blocking(path: &OutPath, item: FwdItem, shared: &FwdShared) -> Option<FwdItem> {
    if !item.consume {
        return Some(item);
    }
    let wait_start = shared.metrics.as_ref().map(|_| shared.runtime.now_nanos());
    match shared
        .ledger()
        .take_blocking(item.tag.key(), shared.credit_timeout_ns, &*shared.runtime)
    {
        Ok(()) => {
            if let (Some(m), Some(start)) = (&shared.metrics, wait_start) {
                m.credit_wait_ns
                    .record(shared.runtime.now_nanos().saturating_sub(start));
            }
            Some(item)
        }
        Err(fail) => {
            let reason = match fail {
                TakeFailure::Timeout => {
                    shared.stats.credit_timeouts.fetch_add(1, Ordering::Relaxed);
                    CancelReason::CreditTimeout
                }
                TakeFailure::Cancelled(r) => r,
            };
            cancel_and_drop(path, &item, reason, shared);
            None
        }
    }
}

/// Retransmit a train of credit-holding pipeline items bound for the same
/// conduit with one send — a train of one hands its landed buffer to the
/// driver whole ([`send_buf`]), a longer one leaves as one batch frame —
/// then settle every member exactly once ([`settle_train`]): `train`
/// comes back empty. Returns `false` only on an orderly disconnect.
fn transmit_train(path: &OutPath, train: &mut Vec<FwdItem>, shared: &FwdShared) -> bool {
    let Some((to, last_hop)) = train.first().map(|head| (head.to, head.last_hop)) else {
        return true;
    };
    for item in train.iter_mut() {
        restage_item(item, shared);
    }
    let channel = path.channel(last_hop);
    let bytes: usize = train.iter().map(|item| item.buf.bytes().len()).sum();
    let send = trace_span!(
        shared.tracer,
        "gw",
        "send",
        "packets" = train.len() as u64,
        "bytes" = bytes as u64
    );
    let sent = channel
        .lock_conduit(to)
        .and_then(|mut conduit| send_train(&mut **conduit, train));
    drop(send);
    let open = settle_train(path, train, sent, bytes, shared);
    train.clear();
    open
}

/// Put one train on `conduit` as one wire packet: a train of one hands its
/// buffer over whole, a longer one leaves as one batch frame.
fn send_train(conduit: &mut dyn Conduit, train: &mut [FwdItem]) -> Result<()> {
    match train {
        [one] => send_buf(conduit, take_buf(one)),
        items => {
            let packets: Vec<&[u8]> = items.iter().map(|item| item.buf.bytes()).collect();
            conduit.send_batch(&packets)
        }
    }
}

/// The buffer of an item on its way onto the wire: nothing reads it again.
fn take_buf(item: &mut FwdItem) -> FwdBuf {
    std::mem::replace(&mut item.buf, FwdBuf::Owned(PooledBuf::default()))
}

/// Settle every member of a train exactly once, after its send, whatever
/// the outcome; the caller then drops the items. A train that left counts
/// its `bytes`, returns its grants, acks its acked ends and releases its
/// streams; one that a dead peer failed cancels each of its streams once
/// upstream and drops its packets. Returns `false` only on an orderly
/// disconnect.
fn settle_train(
    path: &OutPath,
    train: &[FwdItem],
    sent: Result<()>,
    bytes: usize,
    shared: &FwdShared,
) -> bool {
    let Some((to, last_hop)) = train.first().map(|head| (head.to, head.last_hop)) else {
        return true;
    };
    match sent {
        Ok(()) => {
            let channel = path.channel(last_hop);
            count_sent(channel, to, &[(train.len(), bytes)], train, shared);
            settle_sent(train, shared);
            true
        }
        Err(MadError::Disconnected) => {
            // Orderly teardown of the outbound conduit: account the train
            // and let the caller shut this side down.
            for item in train {
                drop_item(item, shared);
            }
            false
        }
        Err(_) => {
            // A hard fault on the outbound hop (dead peer) kills every
            // stream with a packet on the train: cancel each once, through
            // a packet of it that knows the way back upstream if one does
            // (a header does not), drop the packets, and keep serving
            // every other stream.
            shared.stats.on_error();
            for (i, item) in train.iter().enumerate() {
                let key = item.tag.key();
                if train[..i].iter().any(|other| other.tag.key() == key) {
                    continue;
                }
                let way_back = train[i..]
                    .iter()
                    .find(|other| other.tag.key() == key && other.upstream.is_some())
                    .unwrap_or(item);
                cancel_outbound(path, way_back, CancelReason::PeerUnreachable, false, shared);
            }
            for item in train {
                drop_item(item, shared);
            }
            true
        }
    }
}

/// Count the `trains` (item count and bytes of each) that left for `to`
/// on one outgoing channel, carrying `items`, and release the items' held
/// bytes. Before any grant: a grant lets the sender send more, and each
/// new fragment adds to the gauge.
fn count_sent(
    channel: &Channel,
    to: NodeId,
    trains: &[(usize, usize)],
    items: &[FwdItem],
    shared: &FwdShared,
) {
    if trains.is_empty() {
        return;
    }
    let bytes = trains.iter().map(|&(_, bytes)| bytes).sum();
    channel.stats().on_sends(to.0, trains.len() as u64, bytes);
    let held: usize = items.iter().map(|item| item.held_bytes).sum();
    if held > 0 {
        shared.stats.held.add(-(held as i64));
    }
}

/// The rest of a sent train's settlement, once [`count_sent`] counted it:
/// its forward latencies, its grants, its acks and the streams it ends.
fn settle_sent(train: &[FwdItem], shared: &FwdShared) {
    if let Some(m) = &shared.metrics {
        let now = shared.runtime.now_nanos();
        for item in train.iter().filter(|item| item.recv_ns > 0) {
            for _ in 0..item.frags {
                m.forward_ns.record(now.saturating_sub(item.recv_ns));
            }
        }
    }
    // At most one credit packet per (upstream peer, stream): the first
    // fragment of each that carries any returns what all of them carry.
    for (i, item) in train.iter().enumerate() {
        let Some(up) = item.carrying() else { continue };
        let same = |other: &&FwdItem| {
            other.tag.key() == item.tag.key() && other.carrying().is_some_and(|o| o.peer == up.peer)
        };
        if train[..i].iter().any(|other| same(&other)) {
            continue;
        }
        let credits: u32 = train[i..]
            .iter()
            .filter(same)
            .filter_map(|other| other.carrying())
            .map(|o| o.credits)
            .sum();
        up.grant_sum(&item.tag, credits, &shared.stats);
    }
    for item in train {
        if let Some((ack_ch, ack_peer)) = &item.ack {
            // The stream's end packet is on the wire: tell the origin the
            // handoff succeeded. A lost ack is recovered by the origin's
            // deadline (it re-issues; the receiver absorbs the ghost), so a
            // failed send here is not an error.
            let mut ackp = shared.runtime.pool().get(PRELUDE_LEN);
            gtm::encode_ack_into(ackp.vec(), &item.tag);
            if ack_ch.send_packet(*ack_peer, &[&ackp]).is_ok() {
                shared.stats.acks_sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        // After the ack: a stop must not overtake it.
        if item.end_of_stream {
            shared.live.stream_done();
            if item.account {
                shared.ledger().close(item.tag.key());
            }
        }
    }
}

/// Transmit one pipeline buffer on an outgoing conduit. A landed packet is
/// handed over whole: a driver that queues owned buffers sends the buffer
/// the packet arrived in.
fn send_buf(conduit: &mut dyn Conduit, buf: FwdBuf) -> Result<()> {
    match buf {
        FwdBuf::Owned(v) => conduit.send_owned(v),
        FwdBuf::Static(sb) => conduit.send_static(sb),
        FwdBuf::Slice(..) => conduit.send(&[buf.bytes()]),
    }
}

/// The flush side of a piped (inbound, outbound) network pair: the work
/// list and the train scratch of whichever thread transmits — the
/// forwarding thread, or the polling thread in place (see [`dispatch`]).
#[derive(Default)]
struct Flush {
    /// Packets of the unit in hand that are not yet on the wire, in order.
    pending: VecDeque<FwdItem>,
    /// The train being put together; empty between trains.
    batch: Vec<FwdItem>,
}

impl Flush {
    /// Put a train back together for one outgoing conduit. `head`, whose
    /// credit is already in hand, starts the train in `batch`; what is left
    /// in `pending` of the unit it came out of joins behind it by
    /// [`Train::admits`] (non-blocking credit takes only) until an item
    /// cannot join — different conduit, over budget, or credit-dry — which
    /// stays at the front of `pending` and heads the next train. FIFO
    /// order is never broken, and a train never reaches into a later
    /// pipeline slot. An item whose stream the ledger has cancelled is
    /// cancelled both ways and dropped on the way.
    fn build_train(&mut self, head: FwdItem, path: &OutPath, shared: &FwdShared) {
        let mut train = Train::start(&head, path);
        self.batch.push(head);
        while let Some(next) = self.pending.front().filter(|next| train.admits(next)) {
            let credit = match next.consume {
                true => shared.ledger().try_take(next.tag.key()),
                false => TakeOutcome::Taken,
            };
            if let TakeOutcome::Empty = credit {
                break;
            }
            let Some(next) = self.pending.pop_front() else {
                break;
            };
            match credit {
                TakeOutcome::Cancelled(reason) => cancel_and_drop(path, &next, reason, shared),
                _ => {
                    train.add(&next);
                    self.batch.push(next);
                }
            }
        }
    }

    /// Put one unit on the wire, train by train: the head's credit may
    /// block (deadline-bounded; on failure its stream is cancelled and the
    /// item accounted), followers join by [`Flush::build_train`]'s rules, a
    /// follower that cannot join heads the next train. Each outgoing
    /// conduit is locked per train, never per stream, so packets of
    /// concurrent streams interleave. The flush stage is busy from here
    /// until the unit's last train leaves the wire, on whichever thread —
    /// the copy-placement scheduler reads `flush_active` to decide where a
    /// relay copy overlaps best. Fails with [`MadError::Disconnected`] on
    /// an orderly disconnect, with everything still pending accounted.
    fn transmit(&mut self, unit: FwdUnit, path: &OutPath, shared: &FwdShared) -> Result<()> {
        let _stage = StageBusy::enter(&shared.stats.flush_active);
        self.pending.extend(unit.into_items());
        while let Some(head) = self.pending.pop_front() {
            let Some(head) = take_credit_blocking(path, head, shared) else {
                continue; // stream cancelled; item accounted
            };
            self.build_train(head, path, shared);
            if !transmit_train(path, &mut self.batch, shared) {
                return self.disconnected(shared);
            }
        }
        Ok(())
    }

    /// An outbound conduit is gone: account everything still pending.
    fn disconnected(&mut self, shared: &FwdShared) -> Result<()> {
        for item in self.pending.drain(..) {
            drop_item(&item, shared);
        }
        Err(MadError::Disconnected)
    }
}

/// A train being put together for one outgoing conduit, and the one place
/// that decides what may ride a batch frame with it: a piped sink's flush
/// side ([`Flush::build_train`]) and a run ([`Run::take`]) cut by the same
/// test.
struct Train {
    conduit: (NetworkId, NodeId, bool),
    budget: gtm::FrameBudget,
    /// Frame bytes the train occupies so far.
    frame: usize,
    packets: usize,
}

impl Train {
    /// A train headed by `head`, bound by its outgoing driver's budget.
    fn start(head: &FwdItem, path: &OutPath) -> Train {
        Train {
            conduit: head.conduit(),
            budget: gtm::FrameBudget::of(&path.channel(head.last_hop).caps()),
            frame: PRELUDE_LEN + gtm::BATCH_ENTRY_OVERHEAD + head.buf.bytes().len(),
            packets: 1,
        }
    }

    /// May `next` ride behind the train: the same conduit, and room in the
    /// frame? A head over the frame budget — every route-MTU bulk fragment
    /// — has room for nothing, and leaves alone.
    fn admits(&self, next: &FwdItem) -> bool {
        let len = next.buf.bytes().len();
        next.conduit() == self.conduit && self.budget.admits(self.frame, self.packets, len)
    }

    /// `next` joined the train.
    fn add(&mut self, next: &FwdItem) {
        self.frame += gtm::BATCH_ENTRY_OVERHEAD + next.buf.bytes().len();
        self.packets += 1;
    }
}

/// A run sink's turn: what the polling thread accepted for it during one
/// turn, not yet on the wire — trains in the order they were cut, per
/// outgoing conduit. A run sink has no queue and its packets never wait
/// for a credit, so nothing can overtake the run. At the turn's end each
/// conduit's trains leave under one lock of it: the lone landed packets
/// among them, every one of them in the usual case, as one
/// [`Conduit::send_owned_run`]. Nothing is re-framed: each train is still
/// the one wire packet it would have been, and is settled as if it had
/// left alone, but counted once per conduit ([`count_sent`]). Everything
/// here keeps its room from turn to turn, so a warm gateway allocates
/// nothing for it.
#[derive(Default)]
struct Run {
    /// One entry per outgoing conduit used so far — its peer, and whether
    /// over the regular channel — in order of first use.
    conduits: Vec<((NodeId, bool), ConduitRun)>,
    /// The lone landed packets of one `send_owned_run`.
    packets: Vec<PooledBuf>,
}

/// The trains of a [`Run`] bound for one outgoing conduit.
#[derive(Default)]
struct ConduitRun {
    /// The trains' items, train after train.
    items: Vec<FwdItem>,
    /// Each train's item count and bytes, in order.
    trains: Vec<(usize, usize)>,
}

impl Run {
    /// Take a unit into the run, cut into trains in order by
    /// [`Train::admits`]. A run sink's items never consume a credit, so
    /// every item joins as it comes.
    fn take(&mut self, unit: FwdUnit, path: &OutPath, shared: &FwdShared) {
        // The train the last item rode.
        let mut train: Option<Train> = None;
        for mut item in unit.into_items() {
            debug_assert!(!item.consume, "a run sink's packet needs a credit");
            restage_item(&mut item, shared);
            let len = item.buf.bytes().len();
            let conduit = self.conduit(&item);
            let joins = train.as_mut().filter(|t| t.admits(&item));
            match (joins, conduit.trains.last_mut()) {
                (Some(train), Some(last)) => {
                    train.add(&item);
                    *last = (last.0 + 1, last.1 + len);
                }
                _ => {
                    conduit.trains.push((1, len));
                    train = Some(Train::start(&item, path));
                }
            }
            conduit.items.push(item);
        }
    }

    /// `item`'s outgoing conduit in the run, added on first use.
    fn conduit(&mut self, item: &FwdItem) -> &mut ConduitRun {
        let way = (item.to, item.last_hop);
        let at = match self.conduits.iter().position(|(w, _)| *w == way) {
            Some(at) => at,
            None => {
                self.conduits.push((way, ConduitRun::default()));
                self.conduits.len() - 1
            }
        };
        &mut self.conduits[at].1
    }

    /// Put every train of the run on the wire, conduit by conduit, and
    /// settle each once: the trains that left counted together, then one
    /// by one, the rest — from the first send that failed on — together,
    /// so a dead peer cancels each of their streams once. Returns `false`
    /// on an orderly disconnect.
    fn send(&mut self, path: &OutPath, shared: &FwdShared) -> bool {
        let mut open = true;
        for ((to, last_hop), conduit) in &mut self.conduits {
            if conduit.trains.is_empty() {
                continue;
            }
            let channel = path.channel(*last_hop);
            let bytes: usize = conduit.trains.iter().map(|&(_, bytes)| bytes).sum();
            let span = trace_span!(
                shared.tracer,
                "gw",
                "send",
                "packets" = conduit.items.len() as u64,
                "bytes" = bytes as u64
            );
            let (left, failed) = match channel.lock_conduit(*to) {
                Ok(mut out) => conduit.put_on_wire(&mut **out, &mut self.packets),
                Err(e) => (0, Some(e)),
            };
            drop(span);
            let sent = &conduit.trains[..left];
            let at = sent.iter().map(|&(len, _)| len).sum();
            count_sent(channel, *to, sent, &conduit.items[..at], shared);
            let mut from = 0;
            for &(len, _) in sent {
                settle_sent(&conduit.items[from..from + len], shared);
                from += len;
            }
            if let Some(e) = failed {
                open &= settle_train(path, &conduit.items[at..], Err(e), 0, shared);
            }
            conduit.items.clear();
            conduit.trains.clear();
        }
        open
    }
}

impl ConduitRun {
    /// Send the trains in order on `out`, the lone landed packets through
    /// `packets` as runs: how many trains left, and the failure that
    /// stopped the rest, if one did. A run that fails counts as failed
    /// whole, whatever a default `send_owned_run` got out before it.
    fn put_on_wire(
        &mut self,
        out: &mut dyn Conduit,
        packets: &mut Vec<PooledBuf>,
    ) -> (usize, Option<MadError>) {
        // Trains whose packets are in `packets`, waiting for their send.
        let mut gathered = 0;
        let mut at = 0;
        for (k, &(len, _)) in self.trains.iter().enumerate() {
            let train = &mut self.items[at..at + len];
            at += len;
            if let [one] = train {
                if let Some(packet) = take_owned(one) {
                    packets.push(packet);
                    gathered += 1;
                    continue;
                }
            }
            if let Err(e) = send_gathered(out, packets) {
                return (k - gathered, Some(e));
            }
            gathered = 0;
            if let Err(e) = send_train(out, train) {
                return (k, Some(e));
            }
        }
        let k = self.trains.len();
        match send_gathered(out, packets) {
            Ok(()) => (k, None),
            Err(e) => (k - gathered, Some(e)),
        }
    }
}

/// The landed buffer of a lone packet, taken for a run; any other buffer
/// stays where it is.
fn take_owned(item: &mut FwdItem) -> Option<PooledBuf> {
    match &mut item.buf {
        FwdBuf::Owned(packet) => Some(std::mem::take(packet)),
        _ => None,
    }
}

/// Send the gathered lone packets, if any, as one run; `packets` comes
/// back empty either way.
fn send_gathered(out: &mut dyn Conduit, packets: &mut Vec<PooledBuf>) -> Result<()> {
    if packets.is_empty() {
        return Ok(());
    }
    let sent = out.send_owned_run(packets);
    packets.clear();
    sent
}

/// The forwarding thread of one (inbound, outbound) network pair: drains
/// the pipeline and retransmits, unit by unit.
fn forwarding_thread(
    rx: RtReceiver<FwdUnit>,
    flush: Arc<Mutex<Flush>>,
    path: OutPath,
    shared: FwdShared,
) {
    let _exit = ThreadExitGuard {
        live: shared.live.clone(),
    };
    // The polling thread gone means shut down.
    while rx.wait_pending() {
        // Popped under the lock: see `Sink`.
        let mut flush = flush.lock();
        let Some(unit) = rx.try_pop() else { continue };
        shared.queue_depth(-1);
        if flush.transmit(unit, &path, &shared).is_err() {
            return;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::conduit::Driver;
    use crate::runtime::StdRuntime;
    use crate::testutil::{channel_pair, MockDriver};
    use crate::types::ChannelId;
    use crate::{RecvMode, SendMode};
    use std::time::{Duration, Instant};

    /// One gateway (rank 1) between network 0 = {0, 1} and network 1 =
    /// {1, 2, 3}, over mock drivers, with the far ends of its conduits in
    /// the test's hands: what rank 0 sends it on the special channel, and
    /// what ranks 2 and 3 find on their regular channels. Built by
    /// [`Rig::new`], rank 3 is itself a gateway onto network 2 = {3, 4}, so
    /// a stream for rank 4 leaves on rank 3's special channel and spends
    /// credits doing so: the sink onto network 1 is piped whatever its
    /// driver. Built by [`Rig::last_hop`], rank 3 is an endpoint, every hop
    /// onto network 1 is a last hop, and over a queued driver that sink is
    /// a run sink.
    struct Rig {
        /// Rank 0's special channel toward the gateway.
        up: Channel,
        /// Regular channels of ranks 2 and 3, from the gateway.
        down: BTreeMap<u32, Channel>,
        /// Special channels of ranks 2 and 3, from the gateway.
        down_special: BTreeMap<u32, Channel>,
        /// Far ends nobody reads, kept open for the engine's sake.
        _idle: Vec<Channel>,
        stopctl: Arc<GatewayStop>,
        handles: Option<GatewayHandles>,
        ledger: Arc<CreditLedger>,
        /// The gateway's own special channels, by network.
        special: BTreeMap<u32, Arc<Channel>>,
        /// The gateway's own regular channels, by network.
        regular: BTreeMap<u32, Arc<Channel>>,
        /// The driver of network 0, whose conduits the gateway receives on.
        in_driver: Arc<MockDriver>,
    }

    impl Rig {
        /// Rank 3 a gateway onto network 2 = {3, 4}.
        fn new(cfg: GatewayConfig, out_driver: Arc<MockDriver>) -> Rig {
            Rig::build(cfg, out_driver, true)
        }

        /// Rank 3 an endpoint: network 2 is not declared.
        fn last_hop(cfg: GatewayConfig, out_driver: Arc<MockDriver>) -> Rig {
            Rig::build(cfg, out_driver, false)
        }

        fn build(cfg: GatewayConfig, out_driver: Arc<MockDriver>, gateway_behind: bool) -> Rig {
            let rt = StdRuntime::shared();
            let gw_event = rt.event();
            let in_driver = MockDriver::dynamic();
            // One channel of the gateway: its conduits to `peers`, whose
            // far ends come back as one single-conduit channel each. Wired
            // as a session does it: the gateway's special channels each have
            // an arrival event of their own, everything else of the node
            // shares one.
            let mesh = |driver: &Arc<MockDriver>, net: u32, peers: &[u32], special: bool| {
                let gw_event = if special {
                    rt.event()
                } else {
                    gw_event.clone()
                };
                let mut near: BTreeMap<NodeId, Box<dyn Conduit>> = BTreeMap::new();
                let mut far = BTreeMap::new();
                for &peer in peers {
                    let ev = rt.event();
                    let (c_gw, c_peer) =
                        driver.connect(NodeId(1), NodeId(peer), gw_event.clone(), ev.clone());
                    near.insert(NodeId(peer), c_gw);
                    let conduits = BTreeMap::from([(NodeId(1), c_peer)]);
                    far.insert(
                        peer,
                        Channel::assemble(
                            ChannelId(0),
                            "far",
                            NetworkId(net),
                            NodeId(peer),
                            driver.caps(),
                            conduits,
                            ev,
                            rt.clone(),
                        ),
                    );
                }
                let gw = Channel::assemble(
                    ChannelId(0),
                    "gw",
                    NetworkId(net),
                    NodeId(1),
                    driver.caps(),
                    near,
                    gw_event.clone(),
                    rt.clone(),
                );
                (Arc::new(gw), far)
            };
            let (sp0, mut up) = mesh(&in_driver, 0, &[0], true);
            let (sp1, down_special) = mesh(&out_driver, 1, &[2, 3], true);
            let (rg0, idle_rg0) = mesh(&in_driver, 0, &[0], false);
            let (rg1, down) = mesh(&out_driver, 1, &[2, 3], false);
            let special = BTreeMap::from([(0, sp0.clone()), (1, sp1.clone())]);
            let regular = BTreeMap::from([(0, rg0.clone()), (1, rg1.clone())]);
            let members = |net: u32, ranks: &[u32]| mad_route::NetworkDecl {
                net,
                members: ranks.to_vec(),
            };
            let nets = [
                members(0, &[0, 1]),
                members(1, &[1, 2, 3]),
                members(2, &[3, 4]),
            ];
            let declared = if gateway_behind { 3 } else { 2 };
            let ledger = CreditLedger::new(gw_event.clone());
            let ctl = ControlPlane::new(
                NodeId(1),
                ledger.clone(),
                mad_route::compute_plan(&nets[..declared], 1),
                BTreeMap::from([(NetworkId(0), sp0), (NetworkId(1), sp1)]),
            );
            let stopctl = Arc::new(GatewayStop::new());
            let handles = spawn_gateway(
                NodeId(1),
                "vc",
                BTreeMap::from([(NetworkId(0), rg0), (NetworkId(1), rg1)]),
                cfg,
                rt,
                stopctl.clone(),
                ctl,
            );
            Rig {
                up: up.remove(&0).unwrap(),
                down,
                down_special,
                _idle: idle_rg0.into_values().collect(),
                stopctl,
                handles: Some(handles),
                ledger,
                special,
                regular,
                in_driver,
            }
        }

        /// Rank 0 sends `packets` as one run: they arrive together, so the
        /// gateway's next turn finds them all queued.
        fn send_backlog(&self, packets: &[Vec<u8>]) -> Vec<usize> {
            let mut run: Vec<PooledBuf> = packets.iter().cloned().map(PooledBuf::from).collect();
            let at = run.iter().map(|p| p.as_ptr() as usize).collect();
            let mut conduit = self.up.lock_conduit(NodeId(1)).unwrap();
            conduit.send_owned_run(&mut run).unwrap();
            at
        }

        /// Block for the next wire packet rank `rank` receives.
        fn recv(&self, rank: u32) -> Vec<u8> {
            let mut conduit = self.down[&rank].lock_conduit(NodeId(1)).unwrap();
            conduit.recv_owned().unwrap()
        }

        /// The same on its special channel: a stream it is to forward.
        fn recv_special(&self, rank: u32) -> Vec<u8> {
            let mut conduit = self.down_special[&rank].lock_conduit(NodeId(1)).unwrap();
            conduit.recv_owned().unwrap()
        }

        /// The running engine's counters.
        fn totals(&self) -> GatewayTotals {
            self.handles.as_ref().unwrap().stats().totals()
        }

        /// The running engine's open-stream count.
        fn open_streams(&self) -> i64 {
            self.handles.as_ref().unwrap().stats().open_streams()
        }

        /// Wait for the open-stream count to reach 0: an end-equivalent
        /// item releases its stream just after its send returns.
        fn settle_open_streams(&self) {
            self.settle("no open stream", |rig| rig.open_streams() == 0);
        }

        /// Spin until `done` holds of the rig. Past a 5 s deadline the
        /// test fails, naming the wait, instead of hanging its binary.
        fn settle(&self, what: &str, done: impl Fn(&Rig) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(5);
            while !done(self) {
                assert!(Instant::now() < deadline, "never settled: {what}");
                std::thread::yield_now();
            }
        }

        /// Drain the engine, stop it, and return its final counters.
        fn finish(&mut self) -> GatewayTotals {
            self.stopctl.request_stop();
            let handles = self.handles.take().unwrap();
            let stats = handles.stats().clone();
            handles.join();
            stats.totals()
        }

        fn pending(channel: &Channel) -> bool {
            channel.lock_conduit(NodeId(1)).unwrap().ready()
        }

        /// Block for the next packet the gateway sends back to rank 0: it
        /// must be a credit packet, and this is how many credits it holds.
        fn recv_grant(&self) -> u32 {
            let packet = self.up.lock_conduit(NodeId(1)).unwrap().recv_owned();
            match gtm::decode_packet(&packet.unwrap()).unwrap() {
                (_, PacketBody::Credit(n)) => n,
                (_, body) => panic!("expected a grant, got {body:?}"),
            }
        }

        /// Rank 0 as a flow-controlled writer would send `packets`: each
        /// fragment only with a credit of a `window`-credit account in
        /// hand, waiting up to `timeout` for the gateway's grants when the
        /// account is dry. `false` is that writer's `CreditTimeout`.
        fn send_windowed(&self, packets: &[Vec<u8>], window: u32, timeout: Duration) -> bool {
            let mut credits = window;
            for packet in packets {
                if packet[2] == gtm::KIND_FRAG {
                    while credits == 0 {
                        let deadline = Instant::now() + timeout;
                        let left = || {
                            let left = deadline.saturating_duration_since(Instant::now());
                            Some(left.as_nanos() as u64)
                        };
                        if self.up.select_ready_after(None, || false, left).is_err() {
                            return false;
                        }
                        credits += self.recv_grant();
                    }
                    credits -= 1;
                }
                self.up.send_packet(NodeId(1), &[packet]).unwrap();
            }
            true
        }

        /// The next packet the gateway sends back to rank 0, decoded,
        /// within a deadline.
        fn recv_back(&self) -> (StreamTag, PacketBody) {
            let deadline = Instant::now() + Duration::from_secs(2);
            let left = || {
                let left = deadline.saturating_duration_since(Instant::now());
                Some(left.as_nanos() as u64)
            };
            self.up
                .select_ready_after(None, || false, left)
                .expect("a packet comes back in time");
            let back = self.up.lock_conduit(NodeId(1)).unwrap().recv_owned();
            gtm::decode_packet(&back.unwrap()).unwrap()
        }

        /// Rank 0 is told that `tag` died on a dead outbound peer: one
        /// cancel within a deadline, and no second one by the time the
        /// engine has dropped the stream's packets (it drops them after
        /// every cancel is sent) — one relay error, no byte left held.
        fn expect_one_cancel(&self, tag: StreamTag) {
            assert_eq!(
                self.recv_back(),
                (tag, PacketBody::Cancel(CancelReason::PeerUnreachable)),
            );
            self.settle("nothing held", |rig| rig.totals().held_bytes == 0);
            assert!(!Rig::pending(&self.up), "one cancel, once");
            assert_eq!(self.totals().errors, 1);
        }
    }

    /// The packets of one single-block stream `0 → dest`, as its writer
    /// encodes them: header, descriptor, the payload in `frags` equal
    /// fragments, end.
    fn stream_in_frags(dest: u32, msg_id: u32, payload: &[u8], frags: usize) -> Vec<Vec<u8>> {
        let tag = StreamTag {
            src: NodeId(0),
            dest: NodeId(dest),
            msg_id,
        };
        let desc = gtm::GtmPartDesc {
            len: payload.len() as u64,
            send: SendMode::Later,
            recv: RecvMode::Cheaper,
        };
        let mut packets = vec![
            gtm::encode_header(&gtm::GtmHeader::new(tag, 4096, false)),
            gtm::encode_part(&tag, &desc),
        ];
        for chunk in payload.chunks(payload.len().div_ceil(frags)) {
            let mut frag = gtm::frag_prelude(&tag).to_vec();
            frag.extend_from_slice(chunk);
            packets.push(frag);
        }
        packets.push(gtm::encode_end(&tag));
        packets
    }

    fn stream_packets(dest: u32, msg_id: u32, payload: &[u8]) -> Vec<Vec<u8>> {
        stream_in_frags(dest, msg_id, payload, 1)
    }

    fn frame_of(packets: &[Vec<u8>]) -> Vec<u8> {
        let refs: Vec<&[u8]> = packets.iter().map(Vec::as_slice).collect();
        gtm::encode_batch(&refs)
    }

    fn flow_controlled(pipeline_depth: usize) -> GatewayConfig {
        GatewayConfig {
            pipeline_depth,
            credit_window: Some(4),
            ..Default::default()
        }
    }

    /// A rig whose sink onto network 1 is piped (rank 3 a gateway, a
    /// conduit whose send takes time) or a run sink (rank 3 an endpoint, a
    /// queued conduit), and that sink's driver. Every hop onto ranks 2 and
    /// 3 is a last hop either way.
    fn shaped_rig(run_sink: bool, cfg: GatewayConfig) -> (Rig, Arc<MockDriver>) {
        if run_sink {
            let out = MockDriver::queued();
            (Rig::last_hop(cfg, out.clone()), out)
        } else {
            let out = MockDriver::dynamic();
            (Rig::new(cfg, out.clone()), out)
        }
    }

    /// The sinks a last-hop rig is run over: a piped sink at either depth
    /// (a conduit whose send takes time), then a run sink (a queued one).
    fn last_hop_sinks() -> [(usize, Arc<MockDriver>); 3] {
        [
            (2, MockDriver::dynamic()),
            (1, MockDriver::dynamic()),
            (2, MockDriver::queued()),
        ]
    }

    /// A train in is a train out: one conduit send, nothing sent back —
    /// the fragment's grant would find its account closed — and every
    /// per-packet account settled, at either depth. A whole message into
    /// an idle flush side leaves on the thread that received it.
    #[test]
    fn frame_in_is_one_send_out_and_no_dead_grant() {
        for depth in [2, 1] {
            let mut rig = Rig::new(flow_controlled(depth), MockDriver::dynamic());
            let packets = stream_packets(2, 7, b"sixty-four bytes, more or less");
            let frame = frame_of(&packets);
            rig.up.send_packet(NodeId(1), &[&frame]).unwrap();
            assert_eq!(rig.recv(2), frame, "depth {depth}");
            let totals = rig.finish();
            assert!(!Rig::pending(&rig.down[&2]), "one send carried it all");
            assert!(!Rig::pending(&rig.up), "no grant, ack or cancel came back");
            assert_eq!(totals.credits_granted, 0);
            assert_eq!((totals.messages, totals.fragments), (1, 1));
            assert_eq!((totals.errors, totals.cancelled), (0, 0));
            assert_eq!(totals.held_bytes, 0);
            assert!(rig.ledger.is_idle(), "the outbound account is closed");
            assert_eq!((totals.buffer_switches, totals.stalls), (0, 0));
        }
    }

    /// Mid-stream fragments have a next packet to overlap with: each one
    /// crosses the pipeline. A whole message sent behind them leaves
    /// whichever way the flush side's state says, and either way after
    /// everything that arrived before it.
    #[test]
    fn bulk_fragments_still_cross_the_pipeline() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        let bulk = stream_in_frags(2, 1, &[0x5A; 3000], 3);
        let small = frame_of(&stream_packets(2, 2, b"a whole message, behind"));
        for packet in &bulk {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
        }
        rig.up.send_packet(NodeId(1), &[&small]).unwrap();
        for packet in &bulk {
            assert_eq!(
                &rig.recv(2),
                packet,
                "packets that arrived apart leave apart"
            );
        }
        assert_eq!(rig.recv(2), small, "and the frame after the stream's end");
        let totals = rig.finish();
        assert_eq!((totals.messages, totals.fragments), (2, 4));
        // The three bulk fragments, plus the small one's if the forwarding
        // thread was still busy with the stream when it arrived.
        assert!(
            (3..=4).contains(&totals.buffer_switches),
            "{} switches",
            totals.buffer_switches
        );
        assert_eq!((totals.errors, totals.held_bytes), (0, 0));
    }

    /// The same packets over a conduit whose send is a queue push, every
    /// hop onto it a last hop: a run sink, with nothing to overlap and
    /// nothing to wait for, so every unit leaves on the thread that
    /// received it — mid-stream fragments included — in the order it
    /// arrived, and that sink has no forwarding thread.
    #[test]
    fn bulk_fragments_leave_in_place_over_a_queued_conduit() {
        let mut rig = Rig::last_hop(flow_controlled(2), MockDriver::queued());
        let bulk = stream_in_frags(2, 1, &[0x5A; 3000], 3);
        let small = frame_of(&stream_packets(2, 2, b"a whole message, behind"));
        for packet in &bulk {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
        }
        rig.up.send_packet(NodeId(1), &[&small]).unwrap();
        for packet in &bulk {
            assert_eq!(&rig.recv(2), packet, "arrival order is wire order");
        }
        assert_eq!(rig.recv(2), small);
        let totals = rig.finish();
        assert_eq!((totals.messages, totals.fragments), (2, 4));
        assert_eq!((totals.buffer_switches, totals.stalls), (0, 0));
        assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        // Two polling threads, and one forwarding thread for the piped
        // sink onto network 0.
        assert_eq!(totals.threads_spawned, 3);
    }

    /// A queued conduit toward a further gateway is a piped sink: its
    /// fragments spend credits, so they cross the pipeline, and a fragment
    /// whose window is dry holds every fragment behind it — none
    /// overtakes, and each leaves only with a credit of its own — whether
    /// the rest arrived apart or as one backlog that a single turn takes.
    #[test]
    fn dry_window_keeps_fifo_over_a_queued_conduit() {
        for backlog in [false, true] {
            let mut rig = Rig::new(flow_controlled(2), MockDriver::queued());
            // Rank 4 is behind rank 3: not the last hop, so credits are spent.
            let packets = stream_in_frags(4, 9, &[0x7E; 3000], 3);
            let key = (gtm::decode_packet(&packets[0]).unwrap().0).key();
            let (open, rest) = packets.split_at(2);
            for packet in open {
                rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                assert_eq!(&rig.recv_special(3), packet);
            }
            while rig.ledger.try_take(key) == TakeOutcome::Taken {}
            if backlog {
                rig.send_backlog(rest);
            } else {
                for packet in rest {
                    rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                }
            }
            // Each fragment crossed the pipeline; the first found the window
            // dry, the other two queued behind it.
            rig.settle("three buffer switches", |rig| {
                rig.totals().buffer_switches >= 3
            });
            assert!(!Rig::pending(&rig.down_special[&3]), "nothing left dry");
            let (end, frags) = rest.split_last().unwrap();
            for (i, packet) in frags.iter().enumerate() {
                rig.ledger.deposit(key, 1);
                assert_eq!(&rig.recv_special(3), packet, "send order");
                if i + 1 < frags.len() {
                    assert!(
                        !Rig::pending(&rig.down_special[&3]),
                        "one credit, one fragment"
                    );
                }
            }
            assert_eq!(&rig.recv_special(3), end);
            let totals = rig.finish();
            assert_eq!((totals.messages, totals.fragments), (1, 3));
            assert_eq!((totals.credit_timeouts, totals.cancelled), (0, 0));
            assert_eq!((totals.errors, totals.held_bytes), (0, 0));
            assert_eq!(totals.threads_spawned, 4, "both sinks are piped");
            assert!(rig.ledger.is_idle(), "backlog {backlog}");
        }
    }

    /// A turn counts once, and counts what counting each packet counted:
    /// the same messages — whole-stream frames, a stream sent packet by
    /// packet, and one whose [H, P, F] frame is not whole and leaves as a
    /// train of three — sent as one backlog that one turn takes, and one wire
    /// packet a turn, read the same messages, fragments and fragment bytes
    /// at the engine and the same packets and bytes on the inbound and the
    /// outbound channel, with nothing left held. The backlog's peak is
    /// everything it landed: all of it is resident until the turn's run
    /// leaves.
    #[test]
    fn burst_counts_what_a_packet_a_turn_counts() {
        let mut packets: Vec<Vec<u8>> = (1..=4)
            .map(|k| {
                frame_of(&stream_in_frags(
                    2,
                    k,
                    &vec![k as u8; 100 * k as usize],
                    k as usize,
                ))
            })
            .collect();
        packets.extend(stream_in_frags(2, 9, &[0x9A; 600], 3));
        let split = stream_packets(2, 10, b"a train of three");
        packets.extend([frame_of(&split[..3]), split[3].clone()]);
        let frag_bytes = |packet: &Vec<u8>| -> usize {
            let frag = |p: &[u8]| if p[2] == gtm::KIND_FRAG { p.len() } else { 0 };
            match packet[2] {
                gtm::KIND_BATCH => gtm::batch_packets(packet).unwrap().map(frag).sum(),
                _ => frag(packet),
            }
        };
        let landed: usize = packets.iter().map(frag_bytes).sum();
        let mut seen = Vec::new();
        for backlog in [true, false] {
            let mut rig = Rig::last_hop(flow_controlled(2), MockDriver::queued());
            if backlog {
                rig.send_backlog(&packets);
            }
            for packet in &packets {
                if !backlog {
                    rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                }
                assert_eq!(&rig.recv(2), packet, "backlog {backlog}");
            }
            let totals = rig.finish();
            assert_eq!(totals.held_bytes, 0, "backlog {backlog}");
            if backlog {
                assert_eq!(rig.in_driver.receives(), 1, "one turn took it all");
                assert_eq!(totals.peak_held_bytes, landed as i64);
            }
            let (inbound, outbound) = (rig.special[&0].stats(), rig.regular[&1].stats());
            let engine = (totals.messages, totals.fragments, totals.fragment_bytes);
            seen.push((engine, inbound.totals(), outbound.totals()));
        }
        assert_eq!(seen[0], seen[1], "a backlog, then a packet a turn");
        let (engine, inbound, outbound) = seen[0];
        assert_eq!(engine, (6, 14, 1616));
        let wire: usize = packets.iter().map(Vec::len).sum();
        assert_eq!(
            (inbound.packets_recv, inbound.bytes_recv),
            (12, wire as u64)
        );
        // A train put back together here counts its packets, not the frame
        // head and the three entry heads around them.
        let heads = PRELUDE_LEN + 3 * gtm::BATCH_ENTRY_OVERHEAD;
        assert_eq!(
            (outbound.packets_sent, outbound.bytes_sent),
            (12, (wire - heads) as u64)
        );
    }

    /// Whole messages queued together cross in one turn: one receive takes
    /// the backlog, one push hands it on, in order, each message in the
    /// buffer it arrived in — and nothing comes back.
    #[test]
    fn burst_of_whole_messages_is_one_receive_and_one_push() {
        let out = MockDriver::queued();
        let mut rig = Rig::last_hop(flow_controlled(2), out.clone());
        let frames: Vec<Vec<u8>> = (0..8)
            .map(|k| frame_of(&stream_packets(2, k, b"one message of a backlog")))
            .collect();
        let at = rig.send_backlog(&frames);
        for frame in &frames {
            assert_eq!(&rig.recv(2), frame, "arrival order is wire order");
        }
        let totals = rig.finish();
        assert_eq!(rig.in_driver.receives(), 1, "one receive took them all");
        assert_eq!(out.pushes(), 1, "one push handed them on");
        assert_eq!(out.owned_sends(), at, "copied on the way");
        assert_eq!(rig.in_driver.pushes(), 1, "nothing came back");
        assert_eq!((totals.messages, totals.fragments), (8, 8));
        assert_eq!((totals.buffer_switches, totals.stalls), (0, 0));
        assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        assert!(rig.ledger.is_idle());
    }

    /// A stop requested while a turn's run waits for its conduit waits for
    /// the run: the relay bracket covers the send, so no engine stops with
    /// a message taken off its conduit and not yet on the next one.
    #[test]
    fn burst_stop_requested_mid_turn_waits_for_the_run() {
        let mut rig = Rig::last_hop(flow_controlled(2), MockDriver::queued());
        let frames: Vec<Vec<u8>> = (0..4)
            .map(|k| frame_of(&stream_packets(2, k, b"relayed, not yet sent")))
            .collect();
        let out = rig.regular[&1].clone();
        let held = out.lock_conduit(NodeId(2)).unwrap();
        rig.send_backlog(&frames);
        // The turn relayed the backlog into its run and waits for the lock.
        rig.settle("four messages relayed", |rig| rig.totals().messages >= 4);
        rig.stopctl.request_stop();
        let handles = rig.handles.take().unwrap();
        let stats = handles.stats().clone();
        let stopped = std::thread::spawn(move || handles.join());
        std::thread::sleep(Duration::from_millis(50));
        assert!(!stopped.is_finished(), "stopped with a run unsent");
        assert_eq!(stats.open_streams(), 4);
        drop(held);
        stopped.join().unwrap();
        for frame in &frames {
            assert_eq!(&rig.recv(2), frame);
        }
        let totals = stats.totals();
        assert_eq!(
            (totals.messages, totals.errors, totals.held_bytes),
            (4, 0, 0)
        );
        assert_eq!(stats.open_streams(), 0);
    }

    /// A piped sink may settle a unit as soon as it has it, so a turn
    /// publishes what it counted before the hand-off: a message the polling
    /// thread transmits in place (depth 1) while it waits for its conduit is
    /// already counted and held, and the gauge never reads below 0.
    #[test]
    fn burst_is_counted_before_a_piped_sink_takes_it() {
        let mut rig = Rig::new(flow_controlled(1), MockDriver::dynamic());
        let frame = frame_of(&stream_in_frags(2, 1, &[0x1F; 300], 3));
        let out = rig.regular[&1].clone();
        let held = out.lock_conduit(NodeId(2)).unwrap();
        rig.send_backlog(std::slice::from_ref(&frame));
        rig.settle("the message counted", |rig| rig.totals().messages == 1);
        let resident = 3 * (PRELUDE_LEN as i64 + 100);
        assert_eq!(rig.totals().held_bytes, resident, "held while it waits");
        drop(held);
        assert_eq!(rig.recv(2), frame);
        let totals = rig.finish();
        assert_eq!((totals.held_bytes, totals.peak_held_bytes), (0, resident));
    }

    /// A dead peer fails a whole run: each stream with a packet in it is
    /// cancelled upstream once — a whole message, one that crossed packet
    /// by packet (its header knows no way back, its fragments do), and
    /// another whole one — and every packet of it is accounted.
    #[test]
    fn burst_dead_peer_fails_the_run_and_cancels_each_stream_once() {
        let out = MockDriver::queued();
        let mut rig = Rig::last_hop(flow_controlled(2), out.clone());
        let apart = stream_in_frags(2, 2, &[0x2B; 200], 2);
        let mut backlog = vec![frame_of(&stream_in_frags(2, 1, &[0x1A; 200], 2))];
        backlog.extend(apart.iter().cloned());
        backlog.push(frame_of(&stream_in_frags(2, 3, &[0x3C; 100], 1)));
        let tags: Vec<StreamTag> = [1, 2, 3]
            .map(|msg_id| StreamTag {
                src: NodeId(0),
                dest: NodeId(2),
                msg_id,
            })
            .to_vec();
        out.fail_sends();
        rig.send_backlog(&backlog);
        for tag in &tags {
            assert_eq!(
                rig.recv_back(),
                (*tag, PacketBody::Cancel(CancelReason::PeerUnreachable)),
            );
        }
        rig.settle_open_streams();
        rig.settle("nothing held", |rig| rig.totals().held_bytes == 0);
        assert!(!Rig::pending(&rig.up), "each stream once");
        let totals = rig.finish();
        assert_eq!(totals.errors, 1, "one run, one failed send");
        assert_eq!((totals.messages, totals.fragments), (3, 5));
        assert_eq!((totals.held_bytes, totals.credits_granted), (0, 0));
        assert!(!Rig::pending(&rig.down[&2]), "nothing of it left");
        assert!(rig.ledger.is_idle());
    }

    /// An end closes the ledger account its stream holds here, and only
    /// that: after whole messages, per-packet streams and a relayed cancel
    /// have crossed toward rank 2 (the last hop: no account) and rank 4
    /// (a non-final hop: its header opens one), none of their keys has an
    /// account left.
    #[test]
    fn no_account_outlives_its_stream_on_either_hop() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        let mut keys = Vec::new();
        for dest in [2, 4] {
            let far = |rig: &Rig| match dest {
                2 => rig.recv(2),
                _ => rig.recv_special(3),
            };
            let single = stream_packets(dest, 1, b"a whole message");
            let whole = frame_of(&single);
            let apart = stream_in_frags(dest, 2, &[0x5E; 200], 2);
            let mut cancelled = stream_in_frags(dest, 3, &[0x6F; 200], 2);
            let tag = gtm::decode_packet(&cancelled[0]).unwrap().0;
            cancelled.truncate(3);
            cancelled.push(gtm::encode_cancel(&tag, CancelReason::CreditTimeout));
            for packet in std::iter::once(&whole).chain(&apart).chain(&cancelled) {
                rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                assert_eq!(&far(&rig), packet, "to rank {dest}");
            }
            for packets in [&single, &apart, &cancelled] {
                keys.push(gtm::decode_packet(&packets[0]).unwrap().0.key());
            }
        }
        rig.settle_open_streams();
        let totals = rig.finish();
        assert_eq!((totals.messages, totals.cancelled), (4, 2));
        for key in keys {
            assert_eq!(rig.ledger.available(key), None, "{key:?}");
            assert_eq!(rig.ledger.cancelled(key), None, "{key:?}");
        }
        assert!(rig.ledger.is_idle());
    }

    /// A retired kind between two fragments of a live stream poisons only
    /// itself: each former RTS, CTS or stripe envelope is one relay error,
    /// nothing of it leaves or comes back, and the stream completes with
    /// its bytes intact.
    #[test]
    fn retired_kinds_8_and_12_are_one_relay_error_each() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        let packets = stream_in_frags(2, 1, &[0xC3; 2000], 2);
        let tag = gtm::decode_packet(&packets[0]).unwrap().0;
        let (head, tail) = packets.split_at(3);
        for packet in head {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
        }
        for retired in gtm::tests::retired_kinds(&tag) {
            rig.up.send_packet(NodeId(1), &[&retired]).unwrap();
        }
        for packet in tail {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
        }
        for packet in &packets {
            assert_eq!(&rig.recv(2), packet);
        }
        let totals = rig.finish();
        assert!(
            !Rig::pending(&rig.down[&2]),
            "nothing of a retired kind left"
        );
        assert_eq!((totals.errors, totals.cancelled), (3, 0));
        assert_eq!((totals.messages, totals.fragments), (1, 2));
        assert_eq!(totals.held_bytes, 0);
    }

    /// A packet that arrived alone is handed to the outgoing driver whole:
    /// it leaves in the allocation it landed in, at either depth — and so
    /// does a frame that is one whole stream. The packets of any other
    /// frame are windows onto one landed buffer and still leave as a
    /// gather.
    #[test]
    fn bulk_fragment_leaves_in_the_buffer_it_arrived_in() {
        for depth in [2, 1] {
            let out = MockDriver::dynamic();
            let mut rig = Rig::new(flow_controlled(depth), out.clone());
            let mut packets = stream_in_frags(2, 1, &[0x3C; 2000], 2);
            packets.push(frame_of(&stream_packets(2, 2, b"a whole stream")));
            let mut sent = Vec::new();
            for packet in packets.iter().cloned() {
                sent.push(packet.as_ptr() as usize);
                let mut conduit = rig.up.lock_conduit(NodeId(1)).unwrap();
                conduit.send_owned(packet.into()).unwrap();
            }
            for (packet, at) in packets.iter().zip(&sent) {
                let got = rig.recv(2);
                assert_eq!(&got, packet, "depth {depth}");
                assert_eq!(got.as_ptr() as usize, *at, "copied on the way");
            }
            assert_eq!(out.owned_sends(), sent);
            // [H, P, F] and then [E]: neither frame is a whole stream.
            let split = stream_packets(2, 3, b"a train is gathered");
            let (open, end) = split.split_at(3);
            rig.up.send_packet(NodeId(1), &[&frame_of(open)]).unwrap();
            rig.up.send_packet(NodeId(1), &[&frame_of(end)]).unwrap();
            assert_eq!(rig.recv(2), frame_of(open));
            assert_eq!(rig.recv(2), end[0], "a train of one leaves bare");
            assert_eq!(out.owned_sends().len(), sent.len());
            let totals = rig.finish();
            assert_eq!((totals.messages, totals.fragments), (3, 4));
            assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        }
    }

    /// Credits come back by the half window: of a 16-fragment stream under
    /// a window of 8, fragments 4, 8, 12 and 16 each return four credits in
    /// one packet and the others return nothing. Each fragment is sent only
    /// after the one before it came out the far side, and the gateway
    /// grants before it transmits the next packet of a stream — so a grant
    /// from any other fragment would be read first, with the wrong count.
    #[test]
    fn half_window_grants() {
        let window8 = GatewayConfig {
            credit_window: Some(8),
            ..flow_controlled(2)
        };
        let mut rig = Rig::new(window8, MockDriver::dynamic());
        let packets = stream_in_frags(2, 1, &[0x6B; 16 * 100], 16);
        let mut frags = 0;
        for packet in &packets {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
            assert_eq!(&rig.recv(2), packet);
            frags += u32::from(packet[2] == gtm::KIND_FRAG);
            if packet[2] == gtm::KIND_FRAG && frags % 4 == 0 {
                assert_eq!(rig.recv_grant(), 4, "after fragment {frags}");
            }
        }
        let totals = rig.finish();
        assert!(!Rig::pending(&rig.up), "four grants and no more");
        assert_eq!((totals.credits_granted, totals.grants_sent), (16, 4));
        assert_eq!((totals.messages, totals.fragments), (1, 16));

        // The last fragment in one frame with the end: the sender closed its
        // account before that frame left, and the fourth grant stays home.
        let mut rig = Rig::new(window8, MockDriver::dynamic());
        let (apart, tail) = packets.split_at(packets.len() - 2);
        for packet in apart {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
            assert_eq!(&rig.recv(2), packet);
        }
        rig.up.send_packet(NodeId(1), &[&frame_of(tail)]).unwrap();
        assert_eq!(rig.recv(2), frame_of(tail));
        let totals = rig.finish();
        assert_eq!((totals.credits_granted, totals.grants_sent), (12, 3));
        assert_eq!(
            [rig.recv_grant(), rig.recv_grant(), rig.recv_grant()],
            [4; 3]
        );
        assert!(!Rig::pending(&rig.up));
    }

    /// No window is too small to be granted by the half: a writer that
    /// sends only what its account covers gets through under every one,
    /// well inside a deadline a single missing grant would hit.
    #[test]
    fn half_window_grants_starve_no_window() {
        for window in [1, 2, 3, 5] {
            let cfg = GatewayConfig {
                credit_window: Some(window),
                credit_timeout_ns: 200_000_000,
                ..flow_controlled(2)
            };
            let mut rig = Rig::new(cfg, MockDriver::dynamic());
            // Rank 4 is behind rank 3: the gateway spends credits of its own
            // on the way out, which rank 3 — this test — returns one by one,
            // as a gateway of period 1 would.
            let packets = stream_in_frags(4, window, &[0x1D; 16 * 100], 16);
            let key = (gtm::decode_packet(&packets[0]).unwrap().0).key();
            let far = std::thread::scope(|scope| {
                let far = scope.spawn(|| {
                    for packet in &packets {
                        assert_eq!(&rig.recv_special(3), packet);
                        if packet[2] == gtm::KIND_FRAG {
                            rig.ledger.deposit(key, 1);
                        }
                    }
                });
                let sent = rig.send_windowed(&packets, window, Duration::from_millis(200));
                assert!(sent, "window {window} ran dry for good");
                far.join()
            });
            far.unwrap();
            let totals = rig.finish();
            assert_eq!((totals.messages, totals.fragments), (1, 16));
            assert_eq!((totals.credit_timeouts, totals.cancelled), (0, 0));
            assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        }
    }

    /// The grant period is half the configured window and never zero: flow
    /// control off and the windows too small to halve all grant fragment
    /// by fragment.
    #[test]
    fn grant_period_is_half_the_window_and_at_least_one() {
        for (window, period) in [
            (None, 1),
            (Some(1), 1),
            (Some(2), 1),
            (Some(3), 1),
            (Some(8), 4),
            (Some(9), 4),
        ] {
            let cfg = GatewayConfig {
                credit_window: window,
                ..GatewayConfig::default()
            };
            assert_eq!(grant_period(&cfg), period, "window {window:?}");
        }
    }

    /// Each polling thread sleeps on its own channel's arrivals: packets
    /// that come in on network 0 and leave on network 1's regular channel
    /// move network 0's event and leave network 1's where it was — nothing
    /// along the way stirs the polling thread that has no part in it, the
    /// stream's end included: with no stop requested, the last open stream
    /// ending wakes nobody (`GatewayStop::end_forwarded`).
    #[test]
    fn arrival_on_one_net_does_not_stir_the_other() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        let epochs = |rig: &Rig| [0, 1].map(|net| rig.special[&net].recv_event().epoch());
        let [own, other] = epochs(&rig);
        let packets = stream_in_frags(2, 1, &[0x2E; 4000], 4);
        for packet in &packets {
            rig.up.send_packet(NodeId(1), &[packet]).unwrap();
            assert_eq!(&rig.recv(2), packet);
        }
        rig.settle("no open stream at the stop control", |rig| {
            rig.stopctl.open.load(Ordering::SeqCst) == 0
        });
        let [own_after, other_after] = epochs(&rig);
        assert!(own_after >= own + 7, "seven arrivals, seven bumps");
        assert_eq!(other_after, other, "network 1's polling thread was stirred");
        let totals = rig.finish();
        assert_eq!((totals.messages, totals.errors), (1, 0));
    }

    /// The polling thread transmits only what needs no waiting: a whole
    /// message whose stream's window is dry goes to the queue, where the
    /// forwarding thread waits for the credit as for any other packet.
    #[test]
    fn dry_window_goes_to_the_queue() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        // Rank 4 is behind rank 3: not the last hop, so credits are spent.
        let packets = stream_packets(4, 9, b"the tail of a longer stream");
        let key = StreamTag {
            src: NodeId(0),
            dest: NodeId(4),
            msg_id: 9,
        }
        .key();
        let (open, tail) = packets.split_at(2);
        rig.up.send_packet(NodeId(1), &[&frame_of(open)]).unwrap();
        assert_eq!(rig.recv_special(3), frame_of(open));
        while rig.ledger.try_take(key) == TakeOutcome::Taken {}
        // [fragment, end] is a whole message by the rule, the flush side
        // is idle — and the window is taken.
        rig.up.send_packet(NodeId(1), &[&frame_of(tail)]).unwrap();
        rig.settle("a buffer switch", |rig| rig.totals().buffer_switches > 0);
        assert!(!Rig::pending(&rig.down_special[&3]), "nothing left dry");
        rig.ledger.deposit(key, 1);
        assert_eq!(rig.recv_special(3), frame_of(tail));
        let totals = rig.finish();
        assert_eq!((totals.buffer_switches, totals.stalls), (1, 0));
        assert_eq!((totals.messages, totals.credit_timeouts), (1, 0));
        assert_eq!((totals.errors, totals.cancelled), (0, 0));
        assert!(rig.ledger.is_idle());
    }

    /// The dead-grant rule takes a framed fragment's count, not its way
    /// back: one that dies waiting for its outbound credit still tells the
    /// hop it came from.
    #[test]
    fn dead_grant_fragment_still_cancels_upstream() {
        let cfg = GatewayConfig {
            credit_timeout_ns: 20_000_000,
            ..flow_controlled(2)
        };
        let mut rig = Rig::new(cfg, MockDriver::dynamic());
        let packets = stream_packets(4, 9, b"shares a frame with its end");
        let tag = StreamTag {
            src: NodeId(0),
            dest: NodeId(4),
            msg_id: 9,
        };
        let (open, tail) = packets.split_at(2);
        rig.up.send_packet(NodeId(1), &[&frame_of(open)]).unwrap();
        assert_eq!(rig.recv_special(3), frame_of(open));
        while rig.ledger.try_take(tag.key()) == TakeOutcome::Taken {}
        rig.up.send_packet(NodeId(1), &[&frame_of(tail)]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let left = || {
            let left = deadline.saturating_duration_since(Instant::now());
            Some(left.as_nanos() as u64)
        };
        rig.up
            .select_ready_after(None, || false, left)
            .expect("the stream's sender is told");
        let back = rig
            .up
            .lock_conduit(NodeId(1))
            .unwrap()
            .recv_owned()
            .unwrap();
        assert_eq!(
            gtm::decode_packet(&back).unwrap(),
            (tag, PacketBody::Cancel(CancelReason::CreditTimeout)),
        );
        let totals = rig.finish();
        assert_eq!((totals.credit_timeouts, totals.credits_granted), (1, 0));
        assert_eq!(totals.held_bytes, 0);
    }

    /// A train that dies on a dead outbound peer tells the hop it came
    /// from, at either depth: the header at its head knows no way back,
    /// its fragments do, and the stream is cancelled once, through one of
    /// them. The source's end then finds the stream cancelled, and the
    /// stop completes.
    #[test]
    fn dead_peer_train_cancels_upstream_once() {
        for (depth, out) in last_hop_sinks() {
            let mut rig = Rig::last_hop(flow_controlled(depth), out.clone());
            let packets = stream_in_frags(2, 7, &[0x4D; 200], 2);
            let tag = gtm::decode_packet(&packets[0]).unwrap().0;
            let (open, end) = packets.split_at(packets.len() - 1);
            out.fail_sends();
            rig.up.send_packet(NodeId(1), &[&frame_of(open)]).unwrap();
            rig.expect_one_cancel(tag);
            rig.up.send_packet(NodeId(1), &[&end[0]]).unwrap();
            let totals = rig.finish();
            assert_eq!(totals.held_bytes, 0, "depth {depth}");
            assert!(rig.ledger.is_idle());
        }
    }

    /// The one-packet shape of the same settlement: the header and the
    /// descriptor went through, then the peer died and a lone fragment
    /// finds out. The stream stays open until the end its upstream sends
    /// after the cancel is consumed.
    #[test]
    fn dead_peer_lone_fragment_cancels_upstream_once() {
        for (depth, out) in last_hop_sinks() {
            let mut rig = Rig::last_hop(flow_controlled(depth), out.clone());
            let packets = stream_in_frags(2, 8, &[0x4E; 100], 1);
            let tag = gtm::decode_packet(&packets[0]).unwrap().0;
            for packet in &packets[..2] {
                rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                assert_eq!(&rig.recv(2), packet);
            }
            out.fail_sends();
            rig.up.send_packet(NodeId(1), &[&packets[2]]).unwrap();
            rig.expect_one_cancel(tag);
            // Upstream is told; the stream stays open until its end comes.
            assert_eq!(rig.open_streams(), 1, "depth {depth}");
            rig.up.send_packet(NodeId(1), &[&packets[3]]).unwrap();
            rig.settle_open_streams();
            let totals = rig.finish();
            assert_eq!(totals.held_bytes, 0, "depth {depth}");
            assert!(rig.ledger.is_idle());
        }
    }

    /// The engine's open-stream count holds a stream from its accepted
    /// header until its end is retransmitted, at either depth.
    #[test]
    fn open_streams_counts_a_stream_until_its_end_leaves() {
        for depth in [2, 1] {
            let mut rig = Rig::new(flow_controlled(depth), MockDriver::dynamic());
            let packets = stream_in_frags(2, 9, &[0x0C; 200], 2);
            for (i, packet) in packets.iter().enumerate() {
                if i == 3 {
                    assert_eq!(rig.open_streams(), 1, "depth {depth}");
                }
                rig.up.send_packet(NodeId(1), &[packet]).unwrap();
                assert_eq!(&rig.recv(2), packet);
            }
            rig.settle_open_streams();
            rig.finish();
        }
    }

    /// A frame that is one whole stream, on its last hop: it leaves in the
    /// buffer it landed in, at either depth, with every count the
    /// per-packet rules keep — the held-bytes gauge rose by the fragments'
    /// packet bytes, and fell at the send — and nothing comes back.
    #[test]
    fn whole_frame_on_a_last_hop_leaves_as_it_landed() {
        for (depth, out) in last_hop_sinks() {
            let mut rig = Rig::last_hop(flow_controlled(depth), out.clone());
            let frame = frame_of(&stream_in_frags(2, 1, &[0x3D; 300], 3));
            let landed = frame.clone();
            let at = landed.as_ptr() as usize;
            let mut conduit = rig.up.lock_conduit(NodeId(1)).unwrap();
            conduit.send_owned(landed.into()).unwrap();
            drop(conduit);
            let got = rig.recv(2);
            assert_eq!(got, frame, "depth {depth}");
            assert_eq!(got.as_ptr() as usize, at, "copied on the way");
            assert_eq!(out.owned_sends(), [at]);
            let totals = rig.finish();
            assert!(!Rig::pending(&rig.up), "no grant, ack or cancel came back");
            assert_eq!((totals.messages, totals.fragments), (1, 3));
            assert_eq!(totals.fragment_bytes, 300);
            assert_eq!(totals.peak_held_bytes, 3 * (PRELUDE_LEN as i64 + 100));
            assert_eq!((totals.held_bytes, totals.credits_granted), (0, 0));
            assert_eq!((totals.errors, totals.cancelled), (0, 0));
            assert_eq!((totals.buffer_switches, totals.stalls), (0, 0));
            assert!(rig.ledger.is_idle());
        }
    }

    /// On a non-final hop under a window of eight, a whole-stream frame of
    /// three fragments needs no credit it does not hold: it leaves as it
    /// landed, opens no account that outlives it, sends no grant — and its
    /// acked header is still acked once the end is on the wire.
    #[test]
    fn whole_frame_on_a_non_final_hop_is_acked_and_grants_nothing() {
        let window8 = GatewayConfig {
            credit_window: Some(8),
            ..flow_controlled(2)
        };
        let mut rig = Rig::new(window8, MockDriver::dynamic());
        let mut packets = stream_in_frags(4, 2, &[0x4A; 300], 3);
        let tag = gtm::decode_packet(&packets[0]).unwrap().0;
        packets[0] = gtm::encode_header(&gtm::GtmHeader {
            acked: true,
            ..gtm::GtmHeader::new(tag, 4096, false)
        });
        let frame = frame_of(&packets);
        let landed = frame.clone();
        let at = landed.as_ptr() as usize;
        let mut conduit = rig.up.lock_conduit(NodeId(1)).unwrap();
        conduit.send_owned(landed.into()).unwrap();
        drop(conduit);
        let got = rig.recv_special(3);
        assert_eq!(got, frame);
        assert_eq!(got.as_ptr() as usize, at, "copied on the way");
        assert_eq!(rig.recv_back(), (tag, PacketBody::Ack));
        let totals = rig.finish();
        assert!(!Rig::pending(&rig.up), "the ack and nothing else");
        assert_eq!((totals.acks_sent, totals.credits_granted), (1, 0));
        assert_eq!((totals.messages, totals.fragments), (1, 3));
        assert_eq!((totals.credit_timeouts, totals.grants_sent), (0, 0));
        assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        assert!(rig.ledger.is_idle(), "no account left open");
    }

    /// Rank 0 sends `frames` one wire packet each; rank 2 must find
    /// exactly `expect`, in order, and none of it handed over whole: what
    /// is not a whole-stream frame leaves by the per-packet rules' trains —
    /// the same trains, in the same order, with the same counts, whether a
    /// piped sink's flush side or a run sink's run cuts them.
    fn per_packet_rig(frames: &[Vec<u8>], expect: &[Vec<u8>]) -> GatewayTotals {
        let totals = [false, true].map(|run_sink| {
            let (mut rig, out) = shaped_rig(run_sink, flow_controlled(2));
            for frame in frames {
                rig.up.send_packet(NodeId(1), &[frame]).unwrap();
            }
            for packet in expect {
                assert_eq!(&rig.recv(2), packet, "run sink {run_sink}");
            }
            let totals = rig.finish();
            assert!(!Rig::pending(&rig.down[&2]), "nothing more left");
            assert!(out.owned_sends().is_empty(), "a frame went through whole");
            assert!(rig.ledger.is_idle());
            totals
        });
        let counts = |t: &GatewayTotals| {
            let relayed = (t.messages, t.fragments, t.fragment_bytes);
            (
                relayed,
                t.errors,
                t.cancelled,
                t.credits_granted,
                t.held_bytes,
            )
        };
        assert_eq!(counts(&totals[0]), counts(&totals[1]), "piped, then run");
        totals[1]
    }

    /// A whole stream whose key is already open here: its header is the
    /// duplicate the per-packet rules reject, the rest joins the stream
    /// that is open.
    #[test]
    fn whole_frame_falls_back_on_an_open_key() {
        let packets = stream_packets(2, 4, b"opened twice");
        let out = MockDriver::dynamic();
        let mut rig = Rig::new(flow_controlled(2), out.clone());
        rig.up.send_packet(NodeId(1), &[&packets[0]]).unwrap();
        assert_eq!(rig.recv(2), packets[0]);
        rig.up
            .send_packet(NodeId(1), &[&frame_of(&packets)])
            .unwrap();
        assert_eq!(rig.recv(2), frame_of(&packets[1..]));
        let totals = rig.finish();
        assert_eq!(out.owned_sends().len(), 1, "the lone header, and only it");
        assert_eq!((totals.errors, totals.cancelled), (1, 0));
        assert_eq!((totals.messages, totals.fragments), (1, 1));
        assert_eq!((totals.credits_granted, totals.held_bytes), (0, 0));
    }

    /// A whole stream under a key cancelled here: the tombstone swallows
    /// every packet of it, and its end clears the tombstone.
    #[test]
    fn whole_frame_falls_back_on_a_tombstoned_key() {
        let packets = stream_packets(2, 5, b"cancelled here");
        let tag = gtm::decode_packet(&packets[0]).unwrap().0;
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        rig.up
            .send_packet(NodeId(1), &[&frame_of(&packets[..2])])
            .unwrap();
        assert_eq!(rig.recv(2), frame_of(&packets[..2]));
        rig.ledger.cancel(tag.key(), CancelReason::CreditTimeout);
        rig.up.send_packet(NodeId(1), &[&packets[2]]).unwrap();
        let cancel = (tag, PacketBody::Cancel(CancelReason::CreditTimeout));
        assert_eq!(rig.recv_back(), cancel);
        assert_eq!(gtm::decode_packet(&rig.recv(2)).unwrap(), cancel);
        rig.up
            .send_packet(NodeId(1), &[&frame_of(&packets)])
            .unwrap();
        let totals = rig.finish();
        assert!(!Rig::pending(&rig.down[&2]), "nothing of it left");
        assert!(!Rig::pending(&rig.up), "one cancel upstream");
        assert_eq!((totals.errors, totals.cancelled), (0, 1));
        assert_eq!((totals.messages, totals.fragments), (0, 0));
        assert_eq!(totals.held_bytes, 0);
        assert!(rig.ledger.is_idle());
    }

    /// A descriptor ahead of its stream's header is the one error; the
    /// rest of the stream crosses.
    #[test]
    fn whole_frame_falls_back_when_the_header_is_not_first() {
        let p = stream_packets(2, 6, b"header second");
        let frame = frame_of(&[p[1].clone(), p[0].clone(), p[2].clone(), p[3].clone()]);
        let out = frame_of(&[p[0].clone(), p[2].clone(), p[3].clone()]);
        let totals = per_packet_rig(&[frame], &[out]);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (1, 1, 1)
        );
    }

    /// A fragment behind its stream's end is the one error.
    #[test]
    fn whole_frame_falls_back_when_the_end_is_not_last() {
        let p = stream_packets(2, 7, b"end before the fragment");
        let frame = frame_of(&[p[0].clone(), p[1].clone(), p[3].clone(), p[2].clone()]);
        let out = frame_of(&[p[0].clone(), p[1].clone(), p[3].clone()]);
        let totals = per_packet_rig(&[frame], &[out]);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (1, 1, 0)
        );
    }

    /// Two whole streams in one frame leave as the one gather they came
    /// in, and so does one whole stream with a fragment of another stream,
    /// open here, inside it.
    #[test]
    fn whole_frame_falls_back_on_two_tags() {
        let (a, b) = (
            stream_packets(2, 8, b"first"),
            stream_packets(2, 9, b"second"),
        );
        let both = [frame_of(&[a.clone(), b.clone()].concat())];
        let totals = per_packet_rig(&both, &both);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (0, 2, 2)
        );

        let open = frame_of(&b[..2]);
        let mixed = frame_of(&[
            a[0].clone(),
            a[1].clone(),
            b[2].clone(),
            a[2].clone(),
            a[3].clone(),
        ]);
        let end = frame_of(&b[3..]);
        let expect = [open.clone(), mixed.clone(), b[3].clone()];
        let totals = per_packet_rig(&[open, mixed, end], &expect);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (0, 2, 2)
        );
    }

    /// A control packet inside the frame goes to the control plane; the
    /// stream's packets leave without it.
    #[test]
    fn whole_frame_falls_back_on_a_control_packet() {
        let mut packets = stream_packets(2, 10, b"a credit inside");
        let tag = gtm::decode_packet(&packets[0]).unwrap().0;
        let plain = frame_of(&packets);
        packets.insert(2, gtm::credit_packet(&tag, 1).to_vec());
        let totals = per_packet_rig(&[frame_of(&packets)], &[plain]);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (0, 1, 1)
        );
        assert_eq!(totals.credits_granted, 0);
    }

    /// A frame over the outgoing driver's budget leaves in the trains the
    /// budget allows: a fragment too big for a frame leaves alone.
    #[test]
    fn whole_frame_falls_back_over_the_outgoing_budget() {
        let p = stream_packets(2, 11, &[0x5B; 5000]);
        let expect = [frame_of(&p[..2]), p[2].clone(), p[3].clone()];
        let totals = per_packet_rig(&[frame_of(&p)], &expect);
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (0, 1, 1)
        );
        assert_eq!(totals.fragment_bytes, 5000);
    }

    /// More fragments than the window on a non-final hop: the train stops
    /// where the credits do, and the rest leaves with the next one.
    #[test]
    fn whole_frame_falls_back_past_the_window() {
        let mut rig = Rig::new(flow_controlled(2), MockDriver::dynamic());
        let p = stream_in_frags(4, 12, &[0x6C; 500], 5);
        let tag = gtm::decode_packet(&p[0]).unwrap().0;
        rig.up.send_packet(NodeId(1), &[&frame_of(&p)]).unwrap();
        assert_eq!(rig.recv_special(3), frame_of(&p[..6]), "four credits");
        assert!(!Rig::pending(&rig.down_special[&3]), "the fifth waits");
        rig.ledger.deposit(tag.key(), 1);
        assert_eq!(rig.recv_special(3), frame_of(&p[6..]));
        let totals = rig.finish();
        assert_eq!(
            (totals.errors, totals.messages, totals.fragments),
            (0, 1, 5)
        );
        assert_eq!((totals.credit_timeouts, totals.credits_granted), (0, 0));
        assert_eq!(totals.held_bytes, 0);
        assert!(rig.ledger.is_idle());
    }

    /// A whole-stream frame that a dead outbound peer fails tells the hop
    /// it came from, once, at either depth; the stream is settled and the
    /// stop completes.
    #[test]
    fn whole_frame_dead_peer_cancels_upstream_once() {
        for depth in [2, 1] {
            let out = MockDriver::dynamic();
            let mut rig = Rig::new(flow_controlled(depth), out.clone());
            let packets = stream_in_frags(2, 13, &[0x4F; 200], 2);
            let tag = gtm::decode_packet(&packets[0]).unwrap().0;
            out.fail_sends();
            rig.up
                .send_packet(NodeId(1), &[&frame_of(&packets)])
                .unwrap();
            rig.expect_one_cancel(tag);
            let totals = rig.finish();
            assert_eq!((totals.messages, totals.fragments), (1, 2), "depth {depth}");
            assert_eq!(totals.held_bytes, 0);
            assert!(rig.ledger.is_idle());
        }
    }

    /// Packets of one train that leave different ways split where the way
    /// changes, each run one send, each conduit's order the train's order —
    /// through a piped sink's flush side and into a run sink's run alike.
    #[test]
    fn frame_mixing_two_destinations_splits_in_order() {
        for run_sink in [false, true] {
            let (mut rig, _) = shaped_rig(run_sink, flow_controlled(2));
            let to2 = stream_packets(2, 1, b"for rank two");
            let to3 = stream_packets(3, 2, b"for rank three");
            let again2 = stream_packets(2, 3, b"rank two again");
            let all: Vec<Vec<u8>> = [to2.clone(), to3.clone(), again2.clone()].concat();
            rig.up.send_packet(NodeId(1), &[&frame_of(&all)]).unwrap();
            assert_eq!(rig.recv(2), frame_of(&to2), "run sink {run_sink}");
            assert_eq!(rig.recv(3), frame_of(&to3));
            assert_eq!(rig.recv(2), frame_of(&again2));
            let totals = rig.finish();
            assert!(!Rig::pending(&rig.down[&2]) && !Rig::pending(&rig.down[&3]));
            assert_eq!((totals.messages, totals.fragments), (3, 3));
            assert_eq!((totals.errors, totals.held_bytes), (0, 0));
        }
    }

    /// A stream's header arrives *inside* its train, so the landing buffer
    /// cannot wait for a header to size itself: a train bigger than every
    /// control packet must land with no stream open.
    #[test]
    fn train_lands_in_a_static_buffer_with_no_stream_open() {
        let static_out = MockDriver::new(DriverCaps {
            name: "mock-static",
            mode: BufferMode::Static,
            max_gather: usize::MAX,
            max_packet: usize::MAX,
            preferred_mtu: 4096,
            queued_send: false,
        });
        // Depth 1: no flush stage to defer the landing copy to.
        let mut rig = Rig::new(flow_controlled(1), static_out);
        let packets = stream_packets(2, 5, &[0xA5; 3000]);
        let frame = frame_of(&packets);
        assert!(frame.len() > gtm::landing_size_for(0));
        rig.up.send_packet(NodeId(1), &[&frame]).unwrap();
        assert_eq!(rig.recv(2), frame);
        let totals = rig.finish();
        assert_eq!(
            (totals.messages, totals.errors, totals.cancelled),
            (1, 0, 0)
        );
    }

    /// A reader's first window starts where the reader did: what the
    /// engine relayed before, and however long the clock ran before, are
    /// in neither its counts nor its rates. (The shared cursors this
    /// replaced started every first window at the clock's zero.)
    #[test]
    fn first_window_runs_from_open_not_from_clock_zero() {
        const SEC: u64 = 1_000_000_000;
        let stats = Arc::new(GatewayStats::default());
        stats.on_frags(1, 4096);
        let mut late = GatewayWindow::open(stats.clone(), 10 * SEC);
        stats.on_frags(1, 1000);
        let d = late.advance(10 * SEC + SEC / 1000);
        assert_eq!(d.interval_ns, SEC / 1000);
        assert_eq!((d.fragments, d.bytes), (1, 1000));
        assert_eq!(d.bytes_per_sec, 1e6);
    }

    /// Two readers interleaved over one engine each see every event in
    /// exactly one of their own windows: neither steals from the other,
    /// and each one's windows sum to the lifetime totals.
    #[test]
    fn two_readers_see_disjoint_complete_windows() {
        let stats = Arc::new(GatewayStats::default());
        let mut a = GatewayWindow::open(stats.clone(), 0);
        let mut b = GatewayWindow::open(stats.clone(), 0);
        let mut sums = [[0u64; 5]; 2];
        let add = |sum: &mut [u64; 5], d: GatewayDelta| {
            let d = [
                d.interval_ns,
                d.messages,
                d.bytes,
                d.stalls,
                d.credit_timeouts,
            ];
            for (s, v) in sum.iter_mut().zip(d) {
                *s += v;
            }
        };
        for step in 1..=60u64 {
            stats.on_frags(1, step);
            if step % 4 == 0 {
                stats.on_stall();
            }
            if step % 15 == 0 {
                stats.credit_timeouts.fetch_add(1, Ordering::Relaxed);
            }
            stats.messages.fetch_add(1, Ordering::Relaxed);
            // `a` reads every 2nd step, `b` every 5th: their windows overlap
            // in every possible phase.
            if step % 2 == 0 {
                add(&mut sums[0], a.advance(step));
            }
            if step % 5 == 0 {
                add(&mut sums[1], b.advance(step));
            }
        }
        let t = stats.totals();
        let lifetime = [
            60,
            t.messages,
            t.fragment_bytes,
            t.stalls,
            t.credit_timeouts,
        ];
        assert_eq!(lifetime, [60, 60, 1830, 15, 4]);
        assert_eq!(sums, [lifetime; 2]);
        assert_eq!(stats.open_streams(), 0);
    }

    /// The teardown quiescence contract, station by station: a stop only
    /// takes effect once no registered inbound conduit holds packets, no
    /// engine is mid-relay, and no stream is open — in any interleaving,
    /// a packet parked at one station keeps every engine alive.
    #[test]
    fn stop_waits_for_session_wide_quiescence() {
        let stopctl = GatewayStop::new();
        assert!(!stopctl.should_stop(), "no stop requested yet");

        let (a, b) = channel_pair(MockDriver::dynamic());
        let b = Arc::new(b);
        stopctl.register_source(Arc::downgrade(&b));
        stopctl.request_stop();
        assert!(stopctl.should_stop(), "quiescent session stops at once");

        // A packet queued on a registered inbound conduit — even one this
        // engine itself will never relay — holds the stop off.
        a.send_packet(NodeId(1), &[b"backlog"]).unwrap();
        assert!(!stopctl.should_stop(), "inbound backlog must drain first");

        // Popping it moves it to the relay bracket: still not quiescent.
        let pkt = b.lock_conduit(NodeId(0)).unwrap().recv_owned().unwrap();
        let busy = BusyGuard::enter(&stopctl);
        assert!(!stopctl.should_stop(), "a packet mid-relay holds the stop");

        // Accepting its stream moves it to the open-stream station.
        stopctl.opened();
        drop(busy);
        assert!(!stopctl.should_stop(), "an open stream holds the stop");

        // Retransmitting the end releases the last station.
        stopctl.end_forwarded();
        assert!(stopctl.should_stop(), "drained session stops");
        drop(pkt);

        // A dead source (engine exited, conduits dropped) is skipped.
        a.send_packet(NodeId(1), &[b"undeliverable"]).unwrap();
        assert!(!stopctl.should_stop());
        drop(b);
        assert!(stopctl.should_stop(), "dead weak sources are skipped");

        // Force waives the drain entirely.
        let (a2, b2) = channel_pair(MockDriver::dynamic());
        let b2 = Arc::new(b2);
        stopctl.register_source(Arc::downgrade(&b2));
        a2.send_packet(NodeId(1), &[b"stuck"]).unwrap();
        assert!(!stopctl.should_stop());
        stopctl.force();
        assert!(stopctl.should_stop(), "force bypasses the drain");
        drop(b2);
    }

    /// The open count returning to zero is news only to a stopping
    /// session: with no stop requested the last end wakes no engine; once
    /// one is, it wakes them all.
    #[test]
    fn last_end_wakes_engines_only_when_stopping() {
        let rt = StdRuntime::shared();
        let stopctl = GatewayStop::new();
        let ev = rt.event();
        stopctl.register_waker(ev.clone());
        let start = ev.epoch();
        stopctl.opened();
        stopctl.end_forwarded();
        assert_eq!(ev.epoch(), start, "no stop requested: nobody woken");
        stopctl.opened();
        stopctl.request_stop();
        let asked = ev.epoch();
        stopctl.end_forwarded();
        assert!(
            ev.epoch() > asked,
            "the last end of a stopping session wakes"
        );
    }

    /// The split wake-up under a race: `request_stop` and the last
    /// `end_forwarded` leave one barrier together, and a polling thread
    /// asleep on its event must see `should_stop` within the deadline —
    /// whichever of the two read the other's write, one of them woke it.
    #[test]
    fn stop_racing_the_last_end_never_strands_a_waiter() {
        let rt = StdRuntime::shared();
        for round in 0..10_000 {
            let stopctl = GatewayStop::new();
            let ev = rt.event();
            stopctl.register_waker(ev.clone());
            stopctl.opened();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    let deadline = Instant::now() + Duration::from_secs(5);
                    loop {
                        let seen = ev.epoch();
                        if stopctl.should_stop() {
                            return true;
                        }
                        let left = deadline.saturating_duration_since(Instant::now());
                        // Asleep until the deadline: nobody woke it.
                        if ev.wait_past_timeout(seen, left.as_nanos() as u64).is_none() {
                            return false;
                        }
                    }
                });
                s.spawn(|| {
                    start.wait();
                    stopctl.request_stop();
                });
                start.wait();
                stopctl.end_forwarded();
                assert!(waiter.join().unwrap(), "round {round}: waiter stranded");
            });
        }
    }
}
