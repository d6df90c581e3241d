//! Per-channel traffic counters — the generalization of the gateway's
//! `GatewayStats` to every channel on every node.
//!
//! Counting is always on (it does not require an enabled tracer) and sits
//! on every packet sent or received on every channel, so the hot path is
//! lock-free: the totals are relaxed atomics, and each peer owns a slot of
//! relaxed atomics found by a short scan. A channel's peers are known when
//! it is assembled ([`ChannelStats::with_peers`]) and get their slots
//! then; a peer first seen later claims one of a few spare slots under a
//! lock — once — and is lock-free from then on. The
//! [`ChannelStats::totals`] snapshot is cheap and safe to call mid-run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::Tracer;

/// Byte/packet counters for one peer of a channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeerCounters {
    /// Packets sent to this peer.
    pub packets_sent: u64,
    /// Payload bytes sent to this peer.
    pub bytes_sent: u64,
    /// Packets received from this peer.
    pub packets_recv: u64,
    /// Payload bytes received from this peer.
    pub bytes_recv: u64,
}

/// Whole-channel totals (a consistent-enough relaxed snapshot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTotals {
    /// Packets sent on this channel.
    pub packets_sent: u64,
    /// Payload bytes sent on this channel.
    pub bytes_sent: u64,
    /// Packets received on this channel.
    pub packets_recv: u64,
    /// Payload bytes received on this channel.
    pub bytes_recv: u64,
}

/// One peer's lock-free counters.
#[derive(Debug, Default)]
struct PeerSlot {
    /// `peer + 1` once claimed, 0 while free. Slots are claimed in order,
    /// so the first free one ends a scan.
    id: AtomicU64,
    packets_sent: AtomicU64,
    bytes_sent: AtomicU64,
    packets_recv: AtomicU64,
    bytes_recv: AtomicU64,
}

/// Slots kept free for peers not named at construction.
const SPARE_SLOTS: usize = 8;

/// Per-channel traffic counters, shared by everything that touches the
/// channel (app threads, gateway polling/forwarding threads).
#[derive(Debug)]
pub struct ChannelStats {
    packets_sent: AtomicU64,
    bytes_sent: AtomicU64,
    packets_recv: AtomicU64,
    bytes_recv: AtomicU64,
    /// One slot per peer named at construction, then [`SPARE_SLOTS`].
    slots: Box<[PeerSlot]>,
    /// Serializes late slot claims, and counts the peers that arrived
    /// after every slot was taken.
    overflow: Mutex<BTreeMap<u32, PeerCounters>>,
}

impl Default for ChannelStats {
    fn default() -> Self {
        ChannelStats::with_peers(&[])
    }
}

impl ChannelStats {
    /// Fresh zeroed counters with no peer known in advance.
    pub fn new() -> Self {
        ChannelStats::default()
    }

    /// Fresh zeroed counters with a slot already claimed for each of
    /// `peers` (a channel's connections, fixed when it is assembled).
    pub fn with_peers(peers: &[u32]) -> Self {
        let mut known = peers.to_vec();
        known.sort_unstable();
        known.dedup();
        let slots: Box<[PeerSlot]> = (0..known.len() + SPARE_SLOTS)
            .map(|_| PeerSlot::default())
            .collect();
        for (slot, peer) in slots.iter().zip(known) {
            slot.id.store(peer as u64 + 1, Ordering::Relaxed);
        }
        ChannelStats {
            packets_sent: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            packets_recv: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            slots,
            overflow: Mutex::new(BTreeMap::new()),
        }
    }

    /// The overflow map. Every update under this lock leaves the map
    /// valid, so a poisoned lock (a panic elsewhere while counting) is
    /// recovered, not propagated into every later send.
    fn overflow(&self) -> MutexGuard<'_, BTreeMap<u32, PeerCounters>> {
        self.overflow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The claimed slots with their peers, in claim order.
    fn claimed(&self) -> impl Iterator<Item = (u32, &PeerSlot)> {
        self.slots
            .iter()
            .map_while(|s| match s.id.load(Ordering::Acquire) {
                0 => None,
                id => Some(((id - 1) as u32, s)),
            })
    }

    /// Apply `hit` to `peer`'s slot (lock-free once the peer has one), or
    /// `miss` to its overflow entry when every slot is taken.
    fn count(&self, peer: u32, hit: impl Fn(&PeerSlot), miss: impl Fn(&mut PeerCounters)) {
        let find = || self.claimed().find(|(p, _)| *p == peer);
        if let Some((_, slot)) = find() {
            return hit(slot);
        }
        // Never seen before: claim the first free slot. The lock orders
        // claims; the re-scan catches a claim that raced this one.
        let mut overflow = self.overflow();
        if let Some((_, slot)) = find() {
            return hit(slot);
        }
        match self.slots.get(self.claimed().count()) {
            Some(slot) => {
                // Release pairs with the Acquire loads in `claimed`: a
                // reader that sees the id sees a zeroed slot.
                slot.id.store(peer as u64 + 1, Ordering::Release);
                hit(slot)
            }
            None => miss(overflow.entry(peer).or_default()),
        }
    }

    /// Count one packet of `bytes` sent to `peer`.
    pub fn on_send(&self, peer: u32, bytes: usize) {
        let bytes = bytes as u64;
        self.packets_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
        self.count(
            peer,
            |s| {
                s.packets_sent.fetch_add(1, Ordering::Relaxed);
                s.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
            },
            |c| {
                c.packets_sent += 1;
                c.bytes_sent += bytes;
            },
        );
    }

    /// Count one packet of `bytes` received from `peer`.
    pub fn on_recv(&self, peer: u32, bytes: usize) {
        let bytes = bytes as u64;
        self.packets_recv.fetch_add(1, Ordering::Relaxed);
        self.bytes_recv.fetch_add(bytes, Ordering::Relaxed);
        self.count(
            peer,
            |s| {
                s.packets_recv.fetch_add(1, Ordering::Relaxed);
                s.bytes_recv.fetch_add(bytes, Ordering::Relaxed);
            },
            |c| {
                c.packets_recv += 1;
                c.bytes_recv += bytes;
            },
        );
    }

    /// Cheap snapshot of the totals; safe to call while traffic is in
    /// flight (each field is individually consistent and monotone).
    pub fn totals(&self) -> ChannelTotals {
        ChannelTotals {
            packets_sent: self.packets_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            packets_recv: self.packets_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
        }
    }

    /// Copy of the per-peer breakdown (peers that saw traffic).
    fn per_peer(&self) -> BTreeMap<u32, PeerCounters> {
        let mut out = self.overflow().clone();
        for (peer, slot) in self.claimed() {
            let c = PeerCounters {
                packets_sent: slot.packets_sent.load(Ordering::Relaxed),
                bytes_sent: slot.bytes_sent.load(Ordering::Relaxed),
                packets_recv: slot.packets_recv.load(Ordering::Relaxed),
                bytes_recv: slot.bytes_recv.load(Ordering::Relaxed),
            };
            if c != PeerCounters::default() {
                out.insert(peer, c);
            }
        }
        out
    }

    /// Emit the counters as `count` events on `track` (done once at
    /// session teardown so traces carry the final per-channel totals).
    pub fn flush_to(&self, tracer: &Tracer, track: &str) {
        if !tracer.enabled() {
            return;
        }
        let t = self.totals();
        tracer.count_on(track, "channel", "packets_sent", t.packets_sent as i64, &[]);
        tracer.count_on(track, "channel", "bytes_sent", t.bytes_sent as i64, &[]);
        tracer.count_on(track, "channel", "packets_recv", t.packets_recv as i64, &[]);
        tracer.count_on(track, "channel", "bytes_recv", t.bytes_recv as i64, &[]);
        for (peer, c) in self.per_peer() {
            let args = [("peer", peer as u64)];
            tracer.count_on(
                track,
                "channel",
                "peer_bytes_sent",
                c.bytes_sent as i64,
                &args,
            );
            tracer.count_on(
                track,
                "channel",
                "peer_bytes_recv",
                c.bytes_recv as i64,
                &args,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known peers, late-claimed spare slots and the overflow map all
    /// land in one per-peer view, whichever path counted them.
    #[test]
    fn presized_spare_and_overflow_peers_all_count() {
        let s = ChannelStats::with_peers(&[7, 3, 7]);
        s.on_send(3, 10);
        s.on_recv(7, 20);
        // More strangers than spare slots: the last ones overflow.
        let strangers = 100..100 + SPARE_SLOTS as u32 + 2;
        for p in strangers.clone() {
            s.on_send(p, 1);
            s.on_send(p, 1);
        }
        let per = s.per_peer();
        assert_eq!(per[&3].bytes_sent, 10);
        assert_eq!(per[&7].bytes_recv, 20);
        for p in strangers {
            assert_eq!(per[&p].packets_sent, 2, "peer {p}");
        }
        assert_eq!(per.len(), 2 + SPARE_SLOTS + 2);
        assert_eq!(s.totals().packets_sent, 1 + 2 * (SPARE_SLOTS as u64 + 2));
    }

    /// Two threads racing to introduce the same new peers must end up
    /// sharing one slot per peer: no count may be lost to a double claim.
    #[test]
    fn concurrent_first_sight_claims_one_slot_per_peer() {
        let s = ChannelStats::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    for round in 0..1000 {
                        s.on_send(round % 4, 1);
                    }
                });
            }
        });
        let per = s.per_peer();
        assert_eq!(per.len(), 4);
        for p in 0..4 {
            assert_eq!(per[&p].packets_sent, 500, "peer {p}");
        }
    }

    #[test]
    fn counters_accumulate_per_peer_and_total() {
        let s = ChannelStats::new();
        s.on_send(1, 100);
        s.on_send(1, 50);
        s.on_send(2, 7);
        s.on_recv(1, 9);
        let t = s.totals();
        assert_eq!(t.packets_sent, 3);
        assert_eq!(t.bytes_sent, 157);
        assert_eq!(t.packets_recv, 1);
        assert_eq!(t.bytes_recv, 9);
        let per = s.per_peer();
        assert_eq!(per[&1].bytes_sent, 150);
        assert_eq!(per[&2].packets_sent, 1);
        assert_eq!(per[&1].bytes_recv, 9);
    }

    #[test]
    fn flush_emits_count_events() {
        let s = ChannelStats::new();
        s.on_send(3, 42);
        let tracer = Tracer::new();
        s.flush_to(&tracer, "ch:test@0");
        let totals = tracer.snapshot().counter_totals();
        assert_eq!(
            totals[&(
                "ch:test@0".to_string(),
                "channel".to_string(),
                "bytes_sent".to_string()
            )],
            42
        );
    }
}
