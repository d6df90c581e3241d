//! The control plane of one node on one virtual channel: the single place
//! that reacts to a decoded control packet.
//!
//! Special conduits carry, against and beside the forwarded streams, five
//! kinds of packets that never belong to a stream table: credit grants
//! (kind 5), cancels of streams this node sends (kind 6), handoff acks
//! (kind 9), in-band metrics pulls (kind 10) and membership events (kind
//! 11). Whoever happens to read a special conduit — a writer pumping
//! while it waits for credits, an endpoint's responder thread, a
//! multi-path writer awaiting its ack, a gateway engine — hands what it
//! read to [`ControlPlane::dispatch`], and only what dispatch declines
//! ([`Dispatch::NotControl`]) is the reader's own business.
//!
//! The plane owns what those reactions need: the node's [`CreditLedger`]
//! (which exists even without a credit window — it is the cancellation
//! bus), the table of handoff acks read by someone other than the writer
//! waiting for them, the node's route plan and special channels (so a
//! control packet addressed elsewhere can be relayed, and the optional
//! planes can originate their own), and the optional telemetry and
//! membership handlers. Every input here is hostile bytes off a wire:
//! nothing in this module may panic.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock, Weak};

use mad_route::{PathHop, RoutePlan};
use mad_util::pool::PooledBuf;
use mad_util::sync::Mutex;

use crate::channel::Channel;
use crate::conduit::Conduit;
use crate::credit::CreditLedger;
use crate::error::{MadError, Result};
use crate::gtm::{self, PacketBody, StreamKey, StreamTag};
use crate::membership::MembershipPlane;
use crate::metrics_plane::MetricsPlane;
use crate::runtime::RtEvent;
use crate::types::{NetworkId, NodeId};

/// Handoff acks parked at most, oldest dropped first. An entry normally
/// lives for microseconds (parked by one reader, claimed by the waiting
/// writer); what accumulates is acks whose waiter already gave up.
const ACK_TABLE_CAP: usize = 1024;

/// What [`ControlPlane::dispatch`] made of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dispatch {
    /// A control packet; the plane reacted to it (possibly by dropping it:
    /// a grant for a closed stream, a pull with telemetry off).
    Handled,
    /// Stream traffic or a batch frame — what that means on this conduit
    /// is the caller's rule.
    NotControl,
}

/// See the module docs. One per (virtual channel, node).
pub(crate) struct ControlPlane {
    rank: NodeId,
    ledger: Arc<CreditLedger>,
    /// The node's plan from the channel's one routing table, by value: a
    /// hop lookup is one map lookup.
    plan: RoutePlan,
    special: BTreeMap<NetworkId, Arc<Channel>>,
    /// Parked handoff acks in arrival order (see [`ACK_TABLE_CAP`]).
    acks: Mutex<VecDeque<StreamKey>>,
    metrics: OnceLock<Arc<MetricsPlane>>,
    member: OnceLock<Arc<MembershipPlane>>,
}

impl ControlPlane {
    /// The plane of node `rank`: `plan` and `special` are the node's own
    /// view of the channel, so control packets route exactly like
    /// forwarded messages.
    pub(crate) fn new(
        rank: NodeId,
        ledger: Arc<CreditLedger>,
        plan: RoutePlan,
        special: BTreeMap<NetworkId, Arc<Channel>>,
    ) -> Arc<Self> {
        Arc::new(ControlPlane {
            rank,
            ledger,
            plan,
            special,
            acks: Mutex::new(VecDeque::new()),
            metrics: OnceLock::new(),
            member: OnceLock::new(),
        })
    }

    /// A plane with nothing behind it — no routes, no channels, no
    /// optional planes, a ledger on a private event: what the dispatcher
    /// alone can be exercised on.
    pub(crate) fn bare(rank: NodeId) -> Arc<Self> {
        let rt = crate::runtime::StdRuntime::shared();
        Self::new(
            rank,
            CreditLedger::new(rt.event()),
            RoutePlan::default(),
            BTreeMap::new(),
        )
    }

    /// Attach the node's telemetry plane (session wiring, at most once).
    pub(crate) fn attach_metrics(&self, plane: Arc<MetricsPlane>) {
        let _ = self.metrics.set(plane);
    }

    /// Attach the node's membership plane (session wiring, at most once).
    pub(crate) fn attach_membership(&self, plane: Arc<MembershipPlane>) {
        let _ = self.member.set(plane);
    }

    pub(crate) fn rank(&self) -> NodeId {
        self.rank
    }

    pub(crate) fn ledger(&self) -> &Arc<CreditLedger> {
        &self.ledger
    }

    pub(crate) fn plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The first hop toward `dest`: the primary path of the node's plan.
    pub(crate) fn hop(&self, dest: NodeId) -> Result<PathHop> {
        self.plan.primary(dest.0).ok_or(MadError::Unroutable(dest))
    }

    pub(crate) fn special(&self) -> &BTreeMap<NetworkId, Arc<Channel>> {
        &self.special
    }

    /// The node's event: ledger changes and ack deposits bump it, and so
    /// does every arrival but those on a thread-driven gateway's special
    /// conduits, whose polling threads have events of their own.
    pub(crate) fn event(&self) -> &Arc<dyn RtEvent> {
        self.ledger.event()
    }

    pub(crate) fn metrics(&self) -> Option<&Arc<MetricsPlane>> {
        self.metrics.get()
    }

    pub(crate) fn member(&self) -> Option<&Arc<MembershipPlane>> {
        self.member.get()
    }

    /// React to one decoded packet read off a special conduit.
    ///
    /// | kind | reaction |
    /// |---|---|
    /// | 5 credit | deposit into the ledger (dropped for a closed stream) |
    /// | 6 cancel | mark the account *if one exists* — a stream this node sends; a reader with its own stream table checks that first |
    /// | 9 ack | park for [`ControlPlane::take_ack`] |
    /// | 10 metrics | telemetry plane serves, files or relays it; dropped without one |
    /// | 11 member | membership plane applies or relays it; dropped without one |
    pub(crate) fn dispatch(&self, tag: &StreamTag, body: &PacketBody, packet: &[u8]) -> Dispatch {
        let key = tag.key();
        match body {
            PacketBody::Credit(n) => self.ledger.deposit(key, *n),
            PacketBody::Cancel(reason) => {
                self.ledger.cancel_existing(key, *reason);
            }
            PacketBody::Ack => self.deposit_ack(key),
            PacketBody::MetricsRequest | PacketBody::MetricsReply => {
                if let Some(plane) = self.metrics.get() {
                    plane.handle_packet(tag, body, packet);
                }
            }
            PacketBody::Member(_) => {
                if let Some(plane) = self.member.get() {
                    plane.handle_packet(tag, body, packet);
                }
            }
            PacketBody::Header(_)
            | PacketBody::Part(_)
            | PacketBody::Frag
            | PacketBody::End
            | PacketBody::Batch => return Dispatch::NotControl,
        }
        Dispatch::Handled
    }

    /// Drain whatever is pending on the conduit to `peer` through
    /// [`ControlPlane::dispatch`]. Returns whether anything was consumed.
    /// A packet that does not decode, or is not control traffic, fails
    /// with [`MadError::Protocol`] *after* being consumed (so a caller
    /// that tolerates strays can simply pump again); any other error left
    /// the conduit untouched.
    pub(crate) fn pump(&self, channel: &Channel, peer: NodeId) -> Result<bool> {
        self.pump_while(channel, peer, |conduit| conduit.ready())
    }

    /// [`Self::pump`] for a reader that must not wait at all: only packets
    /// that have *arrived* ([`Conduit::backlog`]). On a driver that models
    /// delivery delay, `ready` also sees packets still on the wire, and
    /// receiving one of those waits out the rest of its flight.
    pub(crate) fn pump_arrived(&self, channel: &Channel, peer: NodeId) -> Result<bool> {
        self.pump_while(channel, peer, |conduit| conduit.backlog())
    }

    fn pump_while(
        &self,
        channel: &Channel,
        peer: NodeId,
        pending: impl Fn(&dyn Conduit) -> bool,
    ) -> Result<bool> {
        let mut any = false;
        while let Some((tag, body, packet)) = recv_if(channel, peer, &pending)? {
            any = true;
            if self.dispatch(&tag, &body, &packet) == Dispatch::NotControl {
                return Err(MadError::Protocol(format!(
                    "unexpected {body:?} on the control side of a special conduit"
                )));
            }
        }
        Ok(any)
    }

    /// Send one verbatim packet toward `dest` along the routing table.
    pub(crate) fn send_toward(&self, dest: NodeId, packet: &[u8]) -> Result<()> {
        let hop = self.hop(dest)?;
        let ch = self
            .special
            .get(&NetworkId(hop.net))
            .ok_or(MadError::Unroutable(dest))?;
        ch.send_packet(NodeId(hop.node), &[packet])
    }

    /// Park a handoff ack read by someone other than the writer waiting
    /// for it, and wake that writer.
    fn deposit_ack(&self, key: StreamKey) {
        {
            let mut acks = self.acks.lock();
            if !acks.contains(&key) {
                if acks.len() >= ACK_TABLE_CAP {
                    acks.pop_front();
                }
                acks.push_back(key);
            }
        }
        self.event().bump();
    }

    /// Claim (and forget) the parked handoff ack of `key`, if one arrived.
    /// A writer calls this while it waits, and once more when its wait
    /// ends either way, so its key never outlives its stream here.
    pub(crate) fn take_ack(&self, key: StreamKey) -> bool {
        let mut acks = self.acks.lock();
        match acks.iter().position(|k| *k == key) {
            Some(i) => {
                acks.remove(i);
                true
            }
            None => false,
        }
    }
}

/// Receive and decode one packet from the conduit to `peer`, if one is
/// ready. A decode failure consumes the packet.
pub(crate) fn recv_ready(
    channel: &Channel,
    peer: NodeId,
) -> Result<Option<(StreamTag, PacketBody, PooledBuf)>> {
    recv_if(channel, peer, |conduit| conduit.ready())
}

/// [`recv_ready`] with the caller's notion of "ready".
fn recv_if(
    channel: &Channel,
    peer: NodeId,
    pending: impl Fn(&dyn Conduit) -> bool,
) -> Result<Option<(StreamTag, PacketBody, PooledBuf)>> {
    let mut conduit = channel.lock_conduit(peer)?;
    if !pending(&**conduit) {
        return Ok(None);
    }
    let packet = channel.runtime().pool().adopt(conduit.recv_owned()?);
    drop(conduit);
    channel.stats().on_recv(peer.0, packet.len());
    let (tag, body) = gtm::decode_packet(&packet)?;
    Ok(Some((tag, body, packet)))
}

/// [`ControlPlane::send_toward`] through a handler's back-reference: the
/// planes the control plane owns point back at it weakly, and a send after
/// teardown fails like one on a closed conduit.
pub(crate) fn send_via(ctl: &Weak<ControlPlane>, dest: NodeId, packet: &[u8]) -> Result<()> {
    ctl.upgrade()
        .ok_or(MadError::Disconnected)?
        .send_toward(dest, packet)
}

/// Decode `packet` and, if it decodes, dispatch it on a bare plane
/// (telemetry and membership off, empty route plan). Returns whether the
/// plane handled it. The hook the hostile-bytes property in
/// `tests/prop_model.rs` drives; not part of the library's API.
#[doc(hidden)]
pub fn fuzz_dispatch(packet: &[u8]) -> Option<bool> {
    let (tag, body) = gtm::decode_packet(packet).ok()?;
    let plane = ControlPlane::bare(tag.dest);
    Some(plane.dispatch(&tag, &body, packet) == Dispatch::Handled)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::gtm::{CancelReason, GtmHeader, GtmPartDesc, MemberEvent, MemberMsg};
    use crate::{RecvMode, SendMode};

    fn plane(rank: u32) -> Arc<ControlPlane> {
        ControlPlane::bare(NodeId(rank))
    }

    fn tag(src: u32, dest: u32, msg_id: u32) -> StreamTag {
        StreamTag {
            src: NodeId(src),
            dest: NodeId(dest),
            msg_id,
        }
    }

    /// Encode → decode → dispatch, as a reader of a special conduit would.
    fn feed(p: &ControlPlane, packet: &[u8]) -> Dispatch {
        let (tag, body) = gtm::decode_packet(packet).expect("encoder output decodes");
        p.dispatch(&tag, &body, packet)
    }

    /// The fix this module exists for: an ack read by the wrong reader is
    /// claimable whether or not an observability option is on.
    #[test]
    fn ack_is_claimable_with_telemetry_off() {
        let p = plane(0);
        assert!(p.metrics().is_none());
        let t = tag(0, 3, 41);
        assert_eq!(feed(&p, &gtm::encode_ack(&t)), Dispatch::Handled);
        assert!(p.take_ack(t.key()));
        assert!(!p.take_ack(t.key()), "a claim forgets the key");
    }

    /// A parked ack wakes whoever sleeps on the plane's event past the
    /// epoch it saw — which is where a writer awaiting its handoff ack
    /// sleeps (`wait_ack_inner`), not on its conduit's event: on a
    /// thread-driven gateway that is another object, bumped by arrivals
    /// only, and the reader of the ack is the polling thread.
    #[test]
    fn parked_ack_wakes_a_sleeper_on_the_plane_event() {
        let p = plane(0);
        let seen = p.event().epoch();
        p.dispatch(&tag(0, 3, 41), &PacketBody::Ack, &[]);
        assert!(p.event().wait_past_timeout(seen, 1_000_000_000).is_some());
    }

    #[test]
    fn ack_table_stays_bounded_and_drops_oldest() {
        let p = plane(0);
        for i in 0..10_000u32 {
            p.dispatch(&tag(0, 1, i), &PacketBody::Ack, &[]);
        }
        assert_eq!(p.acks.lock().len(), ACK_TABLE_CAP);
        assert!(!p.take_ack((0, 0)), "the oldest were dropped");
        assert!(p.take_ack((0, 9_999)), "the newest survive");
        // A duplicate ack does not take a second slot.
        p.dispatch(&tag(0, 1, 9_998), &PacketBody::Ack, &[]);
        assert_eq!(p.acks.lock().len(), ACK_TABLE_CAP - 1);
    }

    #[test]
    fn cancel_for_an_unknown_key_changes_nothing() {
        let p = plane(0);
        let t = tag(0, 2, 7);
        let body = PacketBody::Cancel(CancelReason::PeerUnreachable);
        assert_eq!(p.dispatch(&t, &body, &[]), Dispatch::Handled);
        assert!(
            p.ledger().is_idle(),
            "no tombstone for a stream never opened"
        );
        // With an account, the same packet marks it.
        p.ledger().open(t.key(), 2);
        p.dispatch(&t, &body, &[]);
        assert_eq!(
            p.ledger().cancelled(t.key()),
            Some(CancelReason::PeerUnreachable)
        );
    }

    /// Every packet kind the encoders can produce lands on exactly one
    /// side of the dispatcher, and the handled side is exactly the control
    /// kinds {5, 6, 9, 10, 11}.
    #[test]
    fn every_encodable_kind_is_handled_or_not_control() {
        let t = tag(1, 0, 5);
        let member = MemberMsg {
            event: MemberEvent::Announce,
            node: 1,
            epoch: 1,
        };
        let part = GtmPartDesc {
            len: 3,
            send: SendMode::Later,
            recv: RecvMode::Cheaper,
        };
        let mut frag = gtm::frag_prelude(&t).to_vec();
        frag.extend_from_slice(b"abc");
        let end = gtm::encode_end(&t);
        let cases: Vec<(Vec<u8>, Option<u8>)> = vec![
            (gtm::encode_header(&GtmHeader::new(t, 1024, false)), None),
            (gtm::encode_part(&t, &part), None),
            (frag, None),
            (end.clone(), None),
            (gtm::encode_credit(&t, 3), Some(5)),
            (gtm::encode_cancel(&t, CancelReason::CreditTimeout), Some(6)),
            (gtm::encode_batch(&[&end, &end]), None),
            (gtm::encode_ack(&t), Some(9)),
            (gtm::encode_metrics_request(&t), Some(10)),
            (gtm::encode_metrics_reply(&t, b"not a snapshot"), Some(10)),
            (gtm::encode_member(&t, &member), Some(11)),
        ];
        let p = plane(0);
        let mut handled = std::collections::BTreeSet::new();
        for (packet, control_kind) in &cases {
            let got = feed(&p, packet);
            match control_kind {
                Some(kind) => {
                    assert_eq!(got, Dispatch::Handled, "kind {kind}");
                    assert_eq!(packet[2], *kind, "wire kind byte");
                    handled.insert(*kind);
                }
                None => assert_eq!(got, Dispatch::NotControl, "kind {}", packet[2]),
            }
        }
        assert_eq!(handled.into_iter().collect::<Vec<_>>(), [5, 6, 9, 10, 11]);
        assert!(p.ledger().is_idle(), "nothing here may open an account");
        // A bare plane's plan is empty: every hop is unroutable.
        assert_eq!(p.hop(NodeId(1)), Err(MadError::Unroutable(NodeId(1))));
    }

    /// `pump` over a real conduit: control packets are consumed, a stray
    /// stream packet is consumed and reported, and the next pump goes on.
    #[test]
    fn pump_drains_control_and_reports_strays() {
        use crate::testutil::{channel_pair, MockDriver};
        let (a, b) = channel_pair(MockDriver::dynamic());
        let p = plane(1);
        let t = tag(1, 0, 9);
        p.ledger().open(t.key(), 0);
        assert!(!p.pump(&b, NodeId(0)).unwrap(), "idle conduit");
        for pkt in [
            gtm::encode_credit(&t, 2),
            gtm::encode_end(&t),
            gtm::encode_ack(&t),
        ] {
            a.send_packet(NodeId(1), &[&pkt]).unwrap();
        }
        assert!(matches!(p.pump(&b, NodeId(0)), Err(MadError::Protocol(_))));
        assert_eq!(p.ledger().available(t.key()), Some(2));
        assert!(matches!(p.pump(&b, NodeId(0)), Ok(true)));
        assert!(p.take_ack(t.key()));
    }
}
