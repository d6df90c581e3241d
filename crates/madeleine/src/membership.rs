//! Dynamic membership: join, leave, and rejoin a running session.
//!
//! The paper's session model is static — the node set is fixed at
//! bootstrap and a dead gateway stays dead. This module adds the
//! *control plane* that relaxes that: one [`MembershipPlane`] per
//! (virtual channel, node) speaks a tiny epoch-stamped protocol over the
//! channel's existing special conduits (kind-11 [`crate::gtm`] member
//! packets, routed hop-by-hop exactly like the in-band metrics pulls) so
//! that
//!
//! * a node can **join** a running session through an idempotent,
//!   phase-logged bootstrap handshake — *connect → exchange → verify →
//!   activate*. Every phase is durable in the plane's phase log: a
//!   re-run of [`MembershipPlane::join`] within the same incarnation
//!   skips completed phases, so a crashed-and-restarted bootstrap never
//!   repeats side effects;
//! * a node can **leave** gracefully ([`MembershipPlane::leave`]): its
//!   departure is announced to its peers, which retire the path in their
//!   multi-path selector immediately instead of waiting to trip over a
//!   dead conduit;
//! * a crashed node can **rejoin** ([`MembershipPlane::rejoin`]) under a
//!   bumped *incarnation epoch*. Peers track the highest epoch seen per
//!   node; member packets stamped with an older epoch are provably stale
//!   leftovers of a previous incarnation and are dropped (counted and
//!   traced), while a higher epoch readmits a path the selector had
//!   declared dead — without touching streams in flight on other paths.
//!
//! Membership events land on a `member:{vc}@{rank}` trace track (cat
//! `member`, validated by `trace_check --require member:`); the
//! selector-side epoch rules live in [`mad_route::Selector`].

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use mad_trace::Tracer;
use mad_util::sync::Mutex;

use crate::control_plane::{self, ControlPlane};
use crate::error::{MadError, Result};
use crate::gtm::{self, MemberEvent, MemberMsg, PacketBody, StreamTag};
use crate::multipath::MultiPath;
use crate::runtime::{RtEvent, Runtime};
use crate::types::{NetworkId, NodeId};

/// Lifecycle state of one node as seen by a peer's plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// A join request was seen but the node has not announced activation.
    Joining,
    /// The node announced itself active.
    Active,
    /// The node announced a graceful departure.
    Left,
}

/// What a plane knows about one node.
#[derive(Debug, Clone, Copy)]
struct MemberRecord {
    /// Highest incarnation epoch seen for the node.
    epoch: u64,
    state: MemberState,
}

/// The four bootstrap phases, in handshake order. Each is logged per
/// incarnation epoch once it completes, making the whole handshake
/// idempotent (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JoinPhase {
    /// Routes toward every peer resolve onto a wired special channel.
    Connect,
    /// Join requests are on the wire toward every peer.
    Exchange,
    /// Every peer acknowledged *this* incarnation's request.
    Verify,
    /// The node marked itself active and announced it.
    Activate,
}

// The live protocol transitions, one `member:` event of value 1 each.
const PHASE_CONNECT: &str = "phase_connect";
const PHASE_EXCHANGE: &str = "phase_exchange";
const PHASE_VERIFY: &str = "phase_verify";
const PHASE_ACTIVATE: &str = "phase_activate";
const JOIN_REQUEST: &str = "join_request";
const JOIN_ACK: &str = "join_ack";
const ANNOUNCE: &str = "announce";
const PEER_LEAVE: &str = "peer_leave";
const LEAVE: &str = "leave";
const REJOIN: &str = "rejoin";
const STALE_DROP: &str = "stale_drop";
const RETIRE: &str = "retire";
const READMIT: &str = "readmit";

/// Every live transition a `member:` track carries, beside the
/// [`MemberTotals`] the teardown flushes.
pub(crate) const TRANSITION_NAMES: [&str; 13] = [
    PHASE_CONNECT,
    PHASE_EXCHANGE,
    PHASE_VERIFY,
    PHASE_ACTIVATE,
    JOIN_REQUEST,
    JOIN_ACK,
    ANNOUNCE,
    PEER_LEAVE,
    LEAVE,
    REJOIN,
    STALE_DROP,
    RETIRE,
    READMIT,
];

/// One plane's lifetime counts of completed joins, graceful leaves,
/// rejoins, stale packets dropped and join requests answered.
#[derive(Debug, Default)]
pub(crate) struct MemberTotals {
    joins: AtomicU64,
    leaves: AtomicU64,
    rejoins: AtomicU64,
    stale_drops: AtomicU64,
    acks_served: AtomicU64,
}

impl MemberTotals {
    /// Every total with its trace event name, in one place.
    pub(crate) fn named(&self) -> [(&'static str, u64); 5] {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        [
            ("joins", load(&self.joins)),
            ("leaves", load(&self.leaves)),
            ("rejoins", load(&self.rejoins)),
            ("stale_drops", load(&self.stale_drops)),
            ("acks_served", load(&self.acks_served)),
        ]
    }
}

/// The membership control plane of one node on one virtual channel.
pub struct MembershipPlane {
    rank: NodeId,
    /// This node's incarnation epoch. Starts at 1 (the wire format
    /// rejects epoch 0); [`MembershipPlane::rejoin`] bumps it.
    epoch: AtomicU64,
    /// The node's control plane (which owns this plane): member packets
    /// leave through its route table and special channels.
    ctl: Weak<ControlPlane>,
    event: Arc<dyn RtEvent>,
    runtime: Arc<dyn Runtime>,
    tracer: Tracer,
    /// The `member:{vc}@{rank}` trace track.
    track: String,
    /// Highest epoch + state per known node.
    view: Mutex<BTreeMap<u32, MemberRecord>>,
    /// Completed bootstrap phases, per incarnation epoch.
    phases: Mutex<BTreeSet<(u64, JoinPhase)>>,
    /// Join acknowledgments collected for the verify phase: responder
    /// rank → echoed epoch.
    acks: Mutex<BTreeMap<u32, u64>>,
    /// The channel's multi-path plane: peer transitions retire and
    /// readmit selector paths through it.
    mp: Mutex<Option<Arc<MultiPath>>>,
    totals: MemberTotals,
}

impl std::fmt::Debug for MembershipPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MembershipPlane")
            .field("rank", &self.rank)
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl MembershipPlane {
    /// Build the plane of one node (session bootstrap). Member packets
    /// leave through `ctl`, so they route exactly like forwarded messages
    /// and metrics pulls.
    pub(crate) fn new(
        ctl: &Arc<ControlPlane>,
        runtime: Arc<dyn Runtime>,
        vc_name: &str,
    ) -> Arc<Self> {
        let tracer = runtime.tracer();
        let rank = ctl.rank();
        Arc::new(MembershipPlane {
            rank,
            epoch: AtomicU64::new(1),
            ctl: Arc::downgrade(ctl),
            event: ctl.event().clone(),
            runtime,
            tracer,
            track: format!("member:{vc_name}@{}", rank.0),
            view: Mutex::new(BTreeMap::new()),
            phases: Mutex::new(BTreeSet::new()),
            acks: Mutex::new(BTreeMap::new()),
            mp: Mutex::new(None),
            totals: MemberTotals::default(),
        })
    }

    /// Register the channel's multi-path plane (session wiring): peer
    /// leave/rejoin transitions retire and readmit selector paths.
    pub(crate) fn register_multipath(&self, mp: &Arc<MultiPath>) {
        *self.mp.lock() = Some(mp.clone());
    }

    /// The node's local rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// This node's current incarnation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The highest incarnation epoch seen for `node` (0 if unknown).
    pub fn member_epoch(&self, node: NodeId) -> u64 {
        self.view.lock().get(&node.0).map_or(0, |r| r.epoch)
    }

    /// The lifecycle state this plane has recorded for `node`.
    fn member_state(&self, node: NodeId) -> Option<MemberState> {
        self.view.lock().get(&node.0).map(|r| r.state)
    }

    /// Member packets dropped as stale leftovers of an older incarnation.
    pub fn stale_drops(&self) -> u64 {
        self.totals.stale_drops.load(Ordering::Relaxed)
    }

    /// Completed bootstrap phases of the *current* incarnation (0–4).
    pub fn phases_completed(&self) -> usize {
        let epoch = self.epoch();
        self.phases
            .lock()
            .iter()
            .filter(|(e, _)| *e == epoch)
            .count()
    }

    /// Trace one live transition.
    fn trace(&self, name: &'static str, args: &[(&'static str, u64)]) {
        self.tracer.count_on(&self.track, "member", name, 1, args);
    }

    /// True (and logged) the first time a phase completes for `epoch`;
    /// false on re-runs, which makes every phase a no-op the second time.
    fn log_phase(&self, epoch: u64, phase: JoinPhase, name: &'static str) -> bool {
        let fresh = self.phases.lock().insert((epoch, phase));
        if fresh {
            self.trace(name, &[("epoch", epoch)]);
        }
        fresh
    }

    fn phase_done(&self, epoch: u64, phase: JoinPhase) -> bool {
        self.phases.lock().contains(&(epoch, phase))
    }

    /// Join (or resume joining) the session: run the four-phase
    /// handshake against `peers` and return once every peer acknowledged
    /// this incarnation. Idempotent — completed phases are skipped, so
    /// calling `join` again after a partial failure resumes where the
    /// previous attempt stopped, and a fully joined node returns
    /// immediately without re-sending anything.
    pub fn join(&self, peers: &[NodeId], timeout_ns: u64) -> Result<()> {
        let epoch = self.epoch();

        // Phase 1 — connect: every peer must be reachable over a wired
        // special channel. Pure validation; safe to re-run, logged once.
        if !self.phase_done(epoch, JoinPhase::Connect) {
            for &p in peers {
                let ctl = self.ctl.upgrade().ok_or(MadError::Unroutable(p))?;
                let hop = ctl.hop(p)?;
                if !ctl.special().contains_key(&NetworkId(hop.net)) {
                    return Err(MadError::Unroutable(p));
                }
            }
            self.log_phase(epoch, JoinPhase::Connect, PHASE_CONNECT);
        }

        // Phase 2 — exchange: put this incarnation's join request on the
        // wire toward every peer. Requests are idempotent on the
        // responder side (a duplicate is re-acked), so the phase is
        // logged as soon as the sends are issued.
        if !self.phase_done(epoch, JoinPhase::Exchange) {
            for &p in peers {
                self.send_member(p, MemberEvent::JoinRequest, self.rank.0, epoch)?;
            }
            self.log_phase(epoch, JoinPhase::Exchange, PHASE_EXCHANGE);
        }

        // Phase 3 — verify: wait until every peer echoed *this* epoch
        // back. Acks from an older incarnation don't count. Unacked
        // peers are re-asked while waiting, so a verify retry after a
        // lost packet still converges. The wait runs in bounded slices —
        // never one sleep to the full deadline — so the re-ask actually
        // fires without depending on a wake from the very delivery path
        // being verified; requests are idempotent (the responder just
        // re-acks), making the retry cadence free of protocol effects.
        if !self.phase_done(epoch, JoinPhase::Verify) {
            let deadline = self.runtime.now_nanos().saturating_add(timeout_ns);
            let slice = (timeout_ns / 8).max(1);
            loop {
                let seen = self.event.epoch();
                let missing: Vec<NodeId> = {
                    let acks = self.acks.lock();
                    peers
                        .iter()
                        .copied()
                        .filter(|p| acks.get(&p.0).copied() != Some(epoch))
                        .collect()
                };
                if missing.is_empty() {
                    break;
                }
                for p in &missing {
                    let _ = self.send_member(*p, MemberEvent::JoinRequest, self.rank.0, epoch);
                }
                let now = self.runtime.now_nanos();
                if now >= deadline {
                    return Err(MadError::Protocol(format!(
                        "membership verify timed out on node {} epoch {epoch}: \
                         no acknowledgment from {missing:?}",
                        self.rank
                    )));
                }
                let _ = self
                    .event
                    .wait_past_timeout(seen, (deadline - now).min(slice));
            }
            self.log_phase(epoch, JoinPhase::Verify, PHASE_VERIFY);
        }

        // Phase 4 — activate: record ourselves active and announce it.
        if !self.phase_done(epoch, JoinPhase::Activate) {
            self.view.lock().insert(
                self.rank.0,
                MemberRecord {
                    epoch,
                    state: MemberState::Active,
                },
            );
            for &p in peers {
                let _ = self.send_member(p, MemberEvent::Announce, self.rank.0, epoch);
            }
            self.totals.joins.fetch_add(1, Ordering::Relaxed);
            self.log_phase(epoch, JoinPhase::Activate, PHASE_ACTIVATE);
        }
        Ok(())
    }

    /// Leave the session gracefully: announce the departure to `peers`
    /// (each retires this node's path in its selector on receipt) and
    /// clear the current incarnation's phase log so a later plain
    /// [`MembershipPlane::join`] runs the full handshake again. The
    /// caller drains its own in-flight streams first — leave is a
    /// control-plane announcement, not a stream teardown.
    pub fn leave(&self, peers: &[NodeId]) {
        let epoch = self.epoch();
        for &p in peers {
            let _ = self.send_member(p, MemberEvent::Leave, self.rank.0, epoch);
        }
        self.view.lock().insert(
            self.rank.0,
            MemberRecord {
                epoch,
                state: MemberState::Left,
            },
        );
        self.phases.lock().retain(|(e, _)| *e != epoch);
        self.totals.leaves.fetch_add(1, Ordering::Relaxed);
        self.trace(LEAVE, &[("epoch", epoch)]);
    }

    /// Rejoin after a crash: bump the incarnation epoch (so everything
    /// stamped with the previous one is provably stale), discard the old
    /// incarnation's acknowledgments, and run the full handshake.
    pub fn rejoin(&self, peers: &[NodeId], timeout_ns: u64) -> Result<u64> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        self.acks.lock().clear();
        self.totals.rejoins.fetch_add(1, Ordering::Relaxed);
        self.trace(REJOIN, &[("epoch", epoch)]);
        self.join(peers, timeout_ns)?;
        Ok(epoch)
    }

    /// Handle one kind-11 packet that arrived on a special conduit:
    /// relay it if addressed elsewhere, otherwise apply it to the local
    /// view (dropping stale incarnations first). Called by gateway
    /// engines, endpoint responders, and pumping writers alike.
    pub(crate) fn handle_packet(&self, tag: &StreamTag, body: &PacketBody, packet: &[u8]) {
        if tag.dest != self.rank {
            let _ = control_plane::send_via(&self.ctl, tag.dest, packet);
            return;
        }
        let PacketBody::Member(msg) = body else {
            return;
        };
        let known = self.view.lock().get(&msg.node).map_or(0, |r| r.epoch);
        if msg.epoch < known {
            // A leftover of a previous incarnation of `node` — the
            // epoch stamp is what makes the staleness provable.
            self.totals.stale_drops.fetch_add(1, Ordering::Relaxed);
            self.trace(
                STALE_DROP,
                &[("node", msg.node as u64), ("epoch", msg.epoch)],
            );
            return;
        }
        match msg.event {
            MemberEvent::JoinRequest => self.serve_join_request(tag, msg, known),
            MemberEvent::JoinAck => {
                if msg.node == self.rank.0 {
                    self.acks.lock().insert(tag.src.0, msg.epoch);
                    self.trace(JOIN_ACK, &[("node", tag.src.0 as u64)]);
                }
            }
            MemberEvent::Leave => {
                self.record(msg, MemberState::Left);
                self.trace(
                    PEER_LEAVE,
                    &[("node", msg.node as u64), ("epoch", msg.epoch)],
                );
                if let Some(mp) = self.mp.lock().as_ref() {
                    if mp.selector().mark_dead(msg.node) {
                        self.trace(RETIRE, &[("node", msg.node as u64)]);
                    }
                }
            }
            MemberEvent::Announce => {
                self.record(msg, MemberState::Active);
                self.trace(ANNOUNCE, &[("node", msg.node as u64), ("epoch", msg.epoch)]);
                self.observe_in_selector(msg.node, msg.epoch);
            }
        }
        // Wake local waiters — the verify loop in `join` and any
        // application thread blocked in [`MembershipPlane::wait_member_state`].
        self.event.bump();
    }

    /// Block until this plane records `node` in `state` (or a higher
    /// incarnation of it), up to `timeout_ns`. Returns true when the
    /// state was observed, false on timeout. Membership announcements
    /// are fire-and-forget, so a peer that wants to *act* on another
    /// node's departure or activation synchronizes here.
    pub fn wait_member_state(&self, node: NodeId, state: MemberState, timeout_ns: u64) -> bool {
        let deadline = self.runtime.now_nanos().saturating_add(timeout_ns);
        loop {
            let seen = self.event.epoch();
            if self.member_state(node) == Some(state) {
                return true;
            }
            let now = self.runtime.now_nanos();
            if now >= deadline {
                return false;
            }
            let _ = self.event.wait_past_timeout(seen, deadline - now);
        }
    }

    /// Serve an inbound join request: record the (re)joining node,
    /// acknowledge by echoing its epoch, and — when the epoch advanced
    /// past a known previous incarnation — readmit its selector path.
    fn serve_join_request(&self, tag: &StreamTag, msg: &MemberMsg, known: u64) {
        self.record(msg, MemberState::Joining);
        self.trace(
            JOIN_REQUEST,
            &[("node", msg.node as u64), ("epoch", msg.epoch)],
        );
        if msg.epoch > known && known > 0 {
            self.observe_in_selector(msg.node, msg.epoch);
        }
        self.totals.acks_served.fetch_add(1, Ordering::Relaxed);
        let _ = self.send_member(tag.src, MemberEvent::JoinAck, msg.node, msg.epoch);
    }

    /// Record `msg.node` at `msg.epoch` in the given state. A same-epoch
    /// update never downgrades `Active` back to `Joining` (a duplicate
    /// join request re-acked after the announce must not regress).
    fn record(&self, msg: &MemberMsg, state: MemberState) {
        let mut view = self.view.lock();
        let r = view.entry(msg.node).or_insert(MemberRecord {
            epoch: msg.epoch,
            state,
        });
        if msg.epoch > r.epoch {
            r.epoch = msg.epoch;
            r.state = state;
        } else if !(r.state == MemberState::Active && state == MemberState::Joining) {
            r.state = state;
        }
    }

    /// Feed a (node, epoch) observation to the selector: a higher epoch
    /// readmits a path previously declared dead.
    fn observe_in_selector(&self, node: u32, epoch: u64) {
        if let Some(mp) = self.mp.lock().as_ref() {
            if matches!(
                mp.selector().observe_epoch(node, epoch),
                mad_route::EpochObservation::Readmitted
            ) {
                self.trace(READMIT, &[("node", node as u64), ("epoch", epoch)]);
            }
        }
    }

    /// Encode and send one member event toward `dest` along the routing
    /// table.
    fn send_member(&self, dest: NodeId, event: MemberEvent, node: u32, epoch: u64) -> Result<()> {
        let tag = StreamTag {
            src: self.rank,
            dest,
            // Low bits of the epoch, for trace readability only — member
            // packets never touch stream or ledger state.
            msg_id: epoch as u32,
        };
        let msg = MemberMsg { event, node, epoch };
        control_plane::send_via(&self.ctl, dest, &gtm::encode_member(&tag, &msg))
    }

    /// Emit this plane's lifetime totals on its `member:` track (session
    /// teardown calls this once), so membership-enabled traces always
    /// carry the track even when no transition fired mid-run.
    pub(crate) fn flush_trace(&self) {
        self.tracer
            .count_all_on(&self.track, "member", &self.totals.named());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StdRuntime;

    /// A plane on a bare control plane (no routes, no channels). The
    /// control plane is returned too: the membership plane only points
    /// back at it weakly.
    fn plane() -> (Arc<ControlPlane>, Arc<MembershipPlane>) {
        let ctl = ControlPlane::bare(NodeId(0));
        let p = MembershipPlane::new(&ctl, StdRuntime::shared(), "t");
        (ctl, p)
    }

    /// Apply one member packet addressed to the plane, as if it had just
    /// come off a special conduit.
    fn deliver(p: &MembershipPlane, src: u32, event: MemberEvent, node: u32, epoch: u64) {
        let tag = StreamTag {
            src: NodeId(src),
            dest: NodeId(0),
            msg_id: epoch as u32,
        };
        let body = PacketBody::Member(MemberMsg { event, node, epoch });
        p.handle_packet(&tag, &body, &[]);
    }

    /// The epoch proof: once a node is known at incarnation N, every
    /// member packet stamped with an older incarnation is dropped —
    /// counted, and without touching the recorded state.
    #[test]
    fn stale_incarnation_packets_are_dropped() {
        let (_ctl, p) = plane();
        deliver(&p, 7, MemberEvent::Announce, 7, 3);
        assert_eq!(p.member_epoch(NodeId(7)), 3);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Active));

        // A leftover Leave from incarnation 2 must not retire the node…
        deliver(&p, 7, MemberEvent::Leave, 7, 2);
        assert_eq!(p.stale_drops(), 1);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Active));
        assert_eq!(p.member_epoch(NodeId(7)), 3);

        // …nor must a stray join request from incarnation 1.
        deliver(&p, 7, MemberEvent::JoinRequest, 7, 1);
        assert_eq!(p.stale_drops(), 2);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Active));

        // The *current* incarnation's Leave still applies.
        deliver(&p, 7, MemberEvent::Leave, 7, 3);
        assert_eq!(p.stale_drops(), 2);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Left));
    }

    /// A duplicate join request re-played after the announce (the
    /// responder re-acks it) must not regress Active back to Joining.
    #[test]
    fn duplicate_join_request_never_downgrades_active() {
        let (_ctl, p) = plane();
        deliver(&p, 7, MemberEvent::JoinRequest, 7, 1);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Joining));
        deliver(&p, 7, MemberEvent::Announce, 7, 1);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Active));
        deliver(&p, 7, MemberEvent::JoinRequest, 7, 1);
        assert_eq!(p.member_state(NodeId(7)), Some(MemberState::Active));
    }

    /// The handshake is idempotent: a second `join` in the same
    /// incarnation finds every phase logged and re-runs nothing.
    #[test]
    fn join_is_idempotent_within_an_incarnation() {
        let (_ctl, p) = plane();
        p.join(&[], 0).unwrap();
        assert_eq!(p.phases_completed(), 4);
        assert_eq!(p.member_state(NodeId(0)), Some(MemberState::Active));
        p.join(&[], 0).unwrap();
        assert_eq!(p.phases_completed(), 4);
        assert_eq!(p.epoch(), 1);
    }

    /// Rejoin bumps the incarnation epoch and runs the whole handshake
    /// again under the new epoch.
    #[test]
    fn rejoin_bumps_epoch_and_reruns_all_phases() {
        let (_ctl, p) = plane();
        p.join(&[], 0).unwrap();
        assert_eq!(p.epoch(), 1);
        let e = p.rejoin(&[], 0).unwrap();
        assert_eq!(e, 2);
        assert_eq!(p.epoch(), 2);
        assert_eq!(p.phases_completed(), 4); // of the *new* incarnation
        assert_eq!(p.member_epoch(NodeId(0)), 2);
    }

    /// A graceful leave clears the incarnation's phase log, so a plain
    /// `join` afterwards runs the full handshake again (same epoch).
    #[test]
    fn leave_clears_the_phase_log() {
        let (_ctl, p) = plane();
        p.join(&[], 0).unwrap();
        p.leave(&[]);
        assert_eq!(p.member_state(NodeId(0)), Some(MemberState::Left));
        assert_eq!(p.phases_completed(), 0);
        p.join(&[], 0).unwrap();
        assert_eq!(p.member_state(NodeId(0)), Some(MemberState::Active));
        assert_eq!(p.epoch(), 1);
    }
}
