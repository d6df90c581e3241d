//! Hop-by-hop credit accounting for gateway flow control.
//!
//! The paper's §4 names "some sophisticated bandwidth control mechanism" as
//! future work: without one, a gateway whose outbound network is slower
//! than its inbound one buffers an entire message. This module implements
//! the classic link-level answer (credit/buffer accounting, as in the
//! APENet-style interconnects of the related work): every *fragment* sent
//! toward a gateway consumes one credit from a per-stream window, and the
//! gateway returns a credit upstream for each fragment it has finished
//! *retransmitting* — half a window of them per credit packet. Fragments
//! resident in a gateway are therefore bounded by `window` per stream —
//! occupancy becomes `window × MTU` instead of message size — while a
//! window larger than the pipeline depth keeps the retransmission overlap
//! intact.
//!
//! One [`CreditLedger`] exists per (virtual channel, node) and is shared by
//! everything on that node that participates in flow control:
//!
//! * application writers ([`WriterFlow`]) consume credits before each
//!   fragment and deposit grants arriving on their outbound conduit. A
//!   writer counts its window itself and opens its stream's account, with
//!   what is left, only right before a train leaves ahead of the stream's
//!   end: a message whose one frame carries its end can earn no grant and
//!   meet no cancel, and never touches the ledger;
//! * the gateway engine's polling threads deposit grants they receive
//!   (credits for relayed streams *and* for streams originated by
//!   gateway-resident writers arrive interleaved on the same special
//!   conduits);
//! * the engine's forwarding side consumes credits before retransmitting
//!   on a non-final hop.
//!
//! The ledger is also the node-local cancellation bus: when a stream dies
//! (unreachable peer, credit timeout), [`CreditLedger::cancel`] marks it
//! and wakes every waiter, which then surfaces a typed
//! [`MadError`](crate::error::MadError) instead of blocking forever. A
//! cancel from downstream marks only a stream that holds an account here
//! ([`CreditLedger::cancel_existing`]) — for a writer's stream, one that
//! some hop has seen.
//!
//! All waits are deadline-bounded through
//! [`RtEvent::wait_past_timeout`](crate::runtime::RtEvent), so a silently
//! dead peer degrades into an error, never a hang.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::sync::Arc;

use mad_util::sync::Mutex;

use crate::channel::Channel;
use crate::control_plane::ControlPlane;
use crate::error::{MadError, Result};
use crate::gtm::{CancelReason, StreamKey, StreamTag};
use crate::runtime::{RtEvent, Runtime};
use crate::types::NodeId;

/// One stream's window state.
#[derive(Debug, Default)]
struct Entry {
    available: u64,
    cancelled: Option<CancelReason>,
}

/// Outcome of a non-blocking credit take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeOutcome {
    /// One credit consumed.
    Taken,
    /// The window is exhausted (or the stream unknown): wait for a grant.
    Empty,
    /// The stream was cancelled; stop sending and surface the reason.
    Cancelled(CancelReason),
}

/// Why a blocking credit take gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeFailure {
    /// No grant arrived within the deadline.
    Timeout,
    /// The stream was cancelled while waiting.
    Cancelled(CancelReason),
}

/// Per-node credit accounts, keyed by stream. See the module docs.
pub struct CreditLedger {
    /// Ordered, like every stream table of the library: a few open
    /// streams, and no hash to compute on every take and deposit.
    state: Mutex<BTreeMap<StreamKey, Entry>>,
    event: Arc<dyn RtEvent>,
}

impl std::fmt::Debug for CreditLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreditLedger")
            .field("streams", &self.state.lock().len())
            .finish()
    }
}

impl CreditLedger {
    /// A ledger whose waiters block on `event`. Sessions pass the node's
    /// shared arrival event, so one wait covers both "a credit was
    /// deposited" and "a packet arrived" — on any regular conduit of the
    /// node, and on the special conduits of an endpoint, which a writer
    /// pumps itself and so needs exactly that disjunction. The special
    /// conduits of a thread-driven gateway bump events of their own: their
    /// one reader is a polling thread, which deposits here on behalf of
    /// every waiter of the node.
    pub fn new(event: Arc<dyn RtEvent>) -> Arc<Self> {
        Arc::new(CreditLedger {
            state: Mutex::new(BTreeMap::new()),
            event,
        })
    }

    /// The event waiters block on (bumped by deposits and cancels).
    pub fn event(&self) -> &Arc<dyn RtEvent> {
        &self.event
    }

    /// Open a stream's account with its initial self-granted window.
    pub fn open(&self, key: StreamKey, window: u32) {
        #[cfg(feature = "census")]
        crate::census::note_open();
        self.state.lock().insert(
            key,
            Entry {
                available: window as u64,
                cancelled: None,
            },
        );
    }

    /// Drop a stream's account (normal end or after its cancellation has
    /// been fully handled). Unknown keys are fine.
    pub fn close(&self, key: StreamKey) {
        self.state.lock().remove(&key);
    }

    /// Deposit `n` granted credits. Grants for unknown (already closed)
    /// streams are dropped — a late credit from a drained hop is harmless.
    pub fn deposit(&self, key: StreamKey, n: u32) {
        let mut st = self.state.lock();
        if let Some(e) = st.get_mut(&key) {
            e.available += n as u64;
            drop(st);
            self.event.bump();
        }
    }

    /// Mark a stream cancelled, creating the account if none exists (the
    /// canceller may race the opener), and wake every waiter. The first
    /// reason wins.
    pub fn cancel(&self, key: StreamKey, reason: CancelReason) {
        {
            let mut st = self.state.lock();
            let e = st.entry(key).or_default();
            if e.cancelled.is_none() {
                e.cancelled = Some(reason);
            }
        }
        self.event.bump();
    }

    /// Like [`CreditLedger::cancel`], but only for streams that hold an
    /// account here — returns false (and changes nothing) otherwise. Used
    /// for cancels arriving from *downstream*, whose stream may already be
    /// fully relayed and closed on this node.
    pub fn cancel_existing(&self, key: StreamKey, reason: CancelReason) -> bool {
        let mut st = self.state.lock();
        match st.get_mut(&key) {
            Some(e) => {
                if e.cancelled.is_none() {
                    e.cancelled = Some(reason);
                }
                drop(st);
                self.event.bump();
                true
            }
            None => false,
        }
    }

    /// The cancellation reason of a stream, if it was cancelled.
    pub fn cancelled(&self, key: StreamKey) -> Option<CancelReason> {
        self.state.lock().get(&key).and_then(|e| e.cancelled)
    }

    /// Credits currently available to a stream (tests and diagnostics).
    pub fn available(&self, key: StreamKey) -> Option<u64> {
        self.state.lock().get(&key).map(|e| e.available)
    }

    /// Consume one credit if possible, without blocking.
    pub fn try_take(&self, key: StreamKey) -> TakeOutcome {
        let mut st = self.state.lock();
        match st.get_mut(&key) {
            Some(e) => {
                if let Some(r) = e.cancelled {
                    TakeOutcome::Cancelled(r)
                } else if e.available > 0 {
                    e.available -= 1;
                    TakeOutcome::Taken
                } else {
                    TakeOutcome::Empty
                }
            }
            // An unknown account reads as an empty window: the caller's
            // deadline turns a genuinely lost account into a typed error.
            None => TakeOutcome::Empty,
        }
    }

    /// Consume one credit, blocking up to `timeout_ns` on the ledger event.
    /// Used by gateway forwarding sides (which never pump a conduit — the
    /// polling threads deposit on their behalf).
    pub fn take_blocking(
        &self,
        key: StreamKey,
        timeout_ns: u64,
        rt: &dyn Runtime,
    ) -> std::result::Result<(), TakeFailure> {
        let start = rt.now_nanos();
        loop {
            let seen = self.event.epoch();
            match self.try_take(key) {
                TakeOutcome::Taken => return Ok(()),
                TakeOutcome::Cancelled(r) => return Err(TakeFailure::Cancelled(r)),
                TakeOutcome::Empty => {}
            }
            let elapsed = rt.now_nanos().saturating_sub(start);
            let remaining = timeout_ns.saturating_sub(elapsed);
            if remaining == 0 || self.event.wait_past_timeout(seen, remaining).is_none() {
                return Err(TakeFailure::Timeout);
            }
        }
    }

    /// True when no stream holds an account — the post-session leak check.
    pub fn is_idle(&self) -> bool {
        self.state.lock().is_empty()
    }
}

/// Flow-control configuration of one node on one virtual channel: the
/// node's control plane (whose ledger holds the accounts) plus the
/// session-wide window and deadline.
#[derive(Clone)]
pub struct FlowControl {
    /// Owns the ledger, and is what a pumping writer hands the packets it
    /// drains off its conduit to.
    plane: Arc<ControlPlane>,
    window: u32,
    timeout_ns: u64,
}

impl FlowControl {
    /// Bundle the node's control plane with the channel's window and
    /// credit deadline.
    pub(crate) fn new(plane: Arc<ControlPlane>, window: u32, timeout_ns: u64) -> Self {
        assert!(window > 0, "a credit window must hold at least one packet");
        FlowControl {
            plane,
            window,
            timeout_ns,
        }
    }

    /// The shared ledger.
    pub fn ledger(&self) -> &Arc<CreditLedger> {
        self.plane.ledger()
    }

    /// The per-stream window, in fragments.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The credit-wait deadline, in nanoseconds.
    pub fn timeout_ns(&self) -> u64 {
        self.timeout_ns
    }

    /// The writer-side handle. `pump` must be true on nodes whose special
    /// conduits have no other reader (non-gateway nodes); gateway-resident
    /// writers must leave it false — their engine's polling threads own
    /// the conduit receive sides and deposit grants on their behalf.
    pub fn writer(&self, pump: bool) -> WriterFlow {
        WriterFlow {
            ctl: self.clone(),
            pump,
            unbooked: Some(0),
        }
    }
}

impl std::fmt::Debug for FlowControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowControl")
            .field("window", &self.window)
            .field("timeout_ns", &self.timeout_ns)
            .finish()
    }
}

/// Sender-side flow control of one GTM stream, used by
/// [`GtmWriter`](crate::gtm::GtmWriter).
///
/// The stream counts its window here until its first train leaves ahead
/// of the end; only then, in [`Self::open_account`], does it open a ledger
/// account with what is left, for the grants that train earns. A stream
/// whose one frame carries its end never touches the ledger.
pub struct WriterFlow {
    ctl: FlowControl,
    pump: bool,
    /// Credits taken while the stream holds no ledger account; `None`
    /// once it holds one.
    unbooked: Option<u32>,
}

impl WriterFlow {
    pub(crate) fn window(&self) -> u32 {
        self.ctl.window()
    }

    /// Open the stream's ledger account with what is left of its window,
    /// if it holds none yet. The writer calls it right before a train
    /// leaves ahead of the end.
    pub(crate) fn open_account(&mut self, key: StreamKey) {
        if let Some(taken) = self.unbooked.take() {
            self.ctl.ledger().open(key, self.ctl.window() - taken);
        }
    }

    /// Drop the stream's account, if it opened one.
    pub(crate) fn close(&self, key: StreamKey) {
        if self.unbooked.is_none() {
            self.ctl.ledger().close(key);
        }
    }

    /// Consume one credit if the window has one, without waiting or
    /// reading the conduit. `Ok(false)` means the window is dry: the
    /// writer flushes what it has staged, which opens the account, and
    /// then calls [`Self::take`].
    pub(crate) fn try_take(&mut self, tag: &StreamTag) -> Result<bool> {
        match &mut self.unbooked {
            Some(taken) if *taken < self.ctl.window() => {
                *taken += 1;
                Ok(true)
            }
            Some(_) => Ok(false),
            None => match self.ctl.ledger().try_take(tag.key()) {
                TakeOutcome::Taken => Ok(true),
                TakeOutcome::Empty => Ok(false),
                TakeOutcome::Cancelled(reason) => Err(cancel_error(reason, tag)),
            },
        }
    }

    /// Read, without blocking, whatever is already pending on the conduit
    /// to `first_hop` — when this writer is the conduit's reader. A writer
    /// otherwise reads only while it waits for credits, so the grants that
    /// arrive after its last wait (the tail of every multi-fragment
    /// stream) would pile up in its receive queue until teardown.
    pub(crate) fn drain(&self, channel: &Channel, first_hop: NodeId) -> Result<()> {
        if self.pump {
            self.ctl.plane.pump_arrived(channel, first_hop)?;
        }
        Ok(())
    }

    /// Consume one credit before emitting a fragment, pumping the writer's
    /// conduit for incoming grants while waiting. Deadline-bounded: a
    /// stalled or dead downstream surfaces as
    /// [`MadError::CreditTimeout`] / [`MadError::PeerUnreachable`].
    ///
    /// The one wait loop of a flow-controlled writer: try the ledger, pump
    /// the conduit for the grant that would satisfy it, sleep on the
    /// ledger event, give up at the credit deadline.
    pub(crate) fn take(
        &mut self,
        channel: &Channel,
        first_hop: NodeId,
        tag: &StreamTag,
    ) -> Result<()> {
        debug_assert!(self.unbooked.is_none(), "a credit wait needs an account");
        let rt = channel.runtime();
        let event = self.ctl.ledger().event.clone();
        let start = rt.now_nanos();
        loop {
            let seen = event.epoch();
            if self.try_take(tag)? {
                return Ok(());
            }
            if self.pump && self.pump_conduit(channel, first_hop)? {
                continue; // something arrived: re-check before blocking
            }
            let elapsed = rt.now_nanos().saturating_sub(start);
            let remaining = self.ctl.timeout_ns.saturating_sub(elapsed);
            if remaining == 0 || event.wait_past_timeout(seen, remaining).is_none() {
                return Err(MadError::CreditTimeout {
                    src: tag.src,
                    dest: tag.dest,
                    msg_id: tag.msg_id,
                });
            }
        }
    }

    /// Drain whatever is pending on the conduit to `peer` through the
    /// node's control plane — only control traffic ever travels toward a
    /// non-gateway sender on its special channel, so anything else is a
    /// protocol error. Returns true if anything was consumed.
    fn pump_conduit(&self, channel: &Channel, peer: NodeId) -> Result<bool> {
        self.ctl.plane.pump(channel, peer)
    }
}

/// The typed error a cancelled stream surfaces at its sender.
pub(crate) fn cancel_error(reason: CancelReason, tag: &StreamTag) -> MadError {
    match reason {
        CancelReason::PeerUnreachable => MadError::PeerUnreachable(tag.dest),
        CancelReason::CreditTimeout => MadError::CreditTimeout {
            src: tag.src,
            dest: tag.dest,
            msg_id: tag.msg_id,
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::runtime::StdRuntime;

    fn ledger() -> Arc<CreditLedger> {
        let rt = StdRuntime::default();
        CreditLedger::new(crate::runtime::Runtime::event(&rt))
    }

    #[test]
    fn window_accounting() {
        let l = ledger();
        let key = (3, 7);
        l.open(key, 2);
        assert_eq!(l.try_take(key), TakeOutcome::Taken);
        assert_eq!(l.try_take(key), TakeOutcome::Taken);
        assert_eq!(l.try_take(key), TakeOutcome::Empty);
        l.deposit(key, 1);
        assert_eq!(l.available(key), Some(1));
        assert_eq!(l.try_take(key), TakeOutcome::Taken);
        l.close(key);
        assert!(l.is_idle());
        // Late grants for closed streams are dropped, not resurrected.
        l.deposit(key, 5);
        assert!(l.is_idle());
    }

    #[test]
    fn cancellation_beats_credits() {
        let l = ledger();
        let key = (1, 1);
        l.open(key, 4);
        l.cancel(key, CancelReason::PeerUnreachable);
        assert_eq!(
            l.try_take(key),
            TakeOutcome::Cancelled(CancelReason::PeerUnreachable)
        );
        // First reason wins.
        l.cancel(key, CancelReason::CreditTimeout);
        assert_eq!(l.cancelled(key), Some(CancelReason::PeerUnreachable));
        // A cancel may precede the open on a racing stream.
        let other = (9, 9);
        l.cancel(other, CancelReason::CreditTimeout);
        assert_eq!(
            l.try_take(other),
            TakeOutcome::Cancelled(CancelReason::CreditTimeout)
        );
    }

    #[test]
    fn blocking_take_times_out_typed() {
        let l = ledger();
        let rt = StdRuntime::default();
        let key = (2, 0);
        l.open(key, 0);
        assert_eq!(
            l.take_blocking(key, 2_000_000, &rt),
            Err(TakeFailure::Timeout)
        );
    }
}
