//! Per-channel traffic counters — the generalization of the gateway's
//! `GatewayStats` to every channel on every node.
//!
//! Counting is always on (it does not require an enabled tracer) and sits
//! on every packet sent or received on every channel, so it is two
//! relaxed adds on one slot and nothing else. A channel's peers are fixed
//! when it is assembled ([`ChannelStats::with_peers`]), and each gets a
//! slot then; one catch-all slot counts a peer that has none (only a
//! [`ChannelStats::new`] with no peers reaches it). The
//! [`ChannelStats::totals`] are the sum of the slots, cheap and safe to
//! take mid-run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::Tracer;

/// The four counts of a channel, or of one peer of it (a consistent-
/// enough relaxed snapshot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTotals {
    /// Packets sent.
    pub packets_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Packets received.
    pub packets_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
}

impl ChannelTotals {
    /// Every total with its trace event name, in one place.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("packets_sent", self.packets_sent),
            ("bytes_sent", self.bytes_sent),
            ("packets_recv", self.packets_recv),
            ("bytes_recv", self.bytes_recv),
        ]
    }
}

/// The per-peer events of a channel's track, each keyed by a `peer` arg:
/// bytes sent to and received from that peer.
pub const PEER_EVENT_NAMES: [&str; 2] = ["peer_bytes_sent", "peer_bytes_recv"];

/// One peer's relaxed counters.
#[derive(Debug, Default)]
struct PeerSlot {
    packets_sent: AtomicU64,
    bytes_sent: AtomicU64,
    packets_recv: AtomicU64,
    bytes_recv: AtomicU64,
}

impl PeerSlot {
    fn load(&self) -> ChannelTotals {
        ChannelTotals {
            packets_sent: self.packets_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            packets_recv: self.packets_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
        }
    }
}

/// Per-channel traffic counters, shared by everything that touches the
/// channel (app threads, gateway polling/forwarding threads).
#[derive(Debug)]
pub struct ChannelStats {
    /// The channel's peers, sorted: `slots[i]` counts `peers[i]`.
    peers: Box<[u32]>,
    /// One slot per peer, then the catch-all.
    slots: Box<[PeerSlot]>,
}

impl Default for ChannelStats {
    fn default() -> Self {
        ChannelStats::with_peers(&[])
    }
}

impl ChannelStats {
    /// Fresh zeroed counters with no peer known: every count lands in the
    /// catch-all.
    pub fn new() -> Self {
        ChannelStats::default()
    }

    /// Fresh zeroed counters with a slot for each of `peers` (a channel's
    /// connections, fixed when it is assembled).
    pub fn with_peers(peers: &[u32]) -> Self {
        let mut peers = peers.to_vec();
        peers.sort_unstable();
        peers.dedup();
        ChannelStats {
            slots: (0..=peers.len()).map(|_| PeerSlot::default()).collect(),
            peers: peers.into(),
        }
    }

    /// `peer`'s slot, or the catch-all after the last one.
    fn slot(&self, peer: u32) -> &PeerSlot {
        let i = self.peers.binary_search(&peer).unwrap_or(self.peers.len());
        &self.slots[i]
    }

    /// Count one packet of `bytes` sent to `peer`.
    pub fn on_send(&self, peer: u32, bytes: usize) {
        self.on_sends(peer, 1, bytes);
    }

    /// Count `packets` packets of `bytes` in all sent to `peer` — a
    /// gateway's run, counted once per outgoing conduit.
    pub fn on_sends(&self, peer: u32, packets: u64, bytes: usize) {
        let s = self.slot(peer);
        s.packets_sent.fetch_add(packets, Ordering::Relaxed);
        s.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Count one packet of `bytes` received from `peer`.
    pub fn on_recv(&self, peer: u32, bytes: usize) {
        self.on_recvs(peer, 1, bytes);
    }

    /// Count `packets` packets of `bytes` in all received from `peer` — a
    /// gateway's backlog, counted once per polling turn.
    pub fn on_recvs(&self, peer: u32, packets: u64, bytes: usize) {
        let s = self.slot(peer);
        s.packets_recv.fetch_add(packets, Ordering::Relaxed);
        s.bytes_recv.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// The sum of every slot; safe to call while traffic is in flight
    /// (each field is individually consistent and monotone).
    pub fn totals(&self) -> ChannelTotals {
        let mut t = ChannelTotals::default();
        for s in self.slots.iter().map(PeerSlot::load) {
            t.packets_sent += s.packets_sent;
            t.bytes_sent += s.bytes_sent;
            t.packets_recv += s.packets_recv;
            t.bytes_recv += s.bytes_recv;
        }
        t
    }

    /// The counts of each peer that saw traffic (the catch-all is in
    /// [`ChannelStats::totals`] only).
    fn per_peer(&self) -> BTreeMap<u32, ChannelTotals> {
        let slots = self.slots.iter().map(PeerSlot::load);
        self.peers
            .iter()
            .copied()
            .zip(slots)
            .filter(|(_, c)| *c != ChannelTotals::default())
            .collect()
    }

    /// Emit the counters as `count` events on `track` (done once at
    /// session teardown so traces carry the final per-channel totals).
    pub fn flush_to(&self, tracer: &Tracer, track: &str) {
        if !tracer.enabled() {
            return;
        }
        tracer.count_all_on(track, "channel", &self.totals().named());
        for (peer, c) in self.per_peer() {
            let sent_recv = [c.bytes_sent, c.bytes_recv];
            for (name, v) in PEER_EVENT_NAMES.into_iter().zip(sent_recv) {
                tracer.count_on(track, "channel", name, v as i64, &[("peer", peer as u64)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer without a slot — every peer of a [`ChannelStats::new`], as
    /// in the benchmark's probe — counts in the totals and in no
    /// per-peer entry.
    #[test]
    fn peer_without_a_slot_counts_in_totals_only() {
        let s = ChannelStats::new();
        s.on_send(3, 10);
        s.on_recv(3, 20);
        let t = s.totals();
        assert_eq!((t.packets_sent, t.bytes_sent), (1, 10));
        assert_eq!((t.packets_recv, t.bytes_recv), (1, 20));
        assert!(s.per_peer().is_empty());

        let s = ChannelStats::with_peers(&[7, 3, 7]);
        s.on_send(3, 10);
        s.on_send(5, 1);
        assert_eq!(s.totals().packets_sent, 2);
        assert_eq!(s.per_peer().keys().collect::<Vec<_>>(), [&3]);
    }

    /// Two threads counting the channel's own peers lose no count.
    #[test]
    fn concurrent_counts_on_own_peers_lose_nothing() {
        let s = ChannelStats::with_peers(&[0, 1, 2, 3]);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    for round in 0..1000 {
                        s.on_send(round % 4, 1);
                        s.on_recv(round % 4, 2);
                    }
                });
            }
        });
        let per = s.per_peer();
        assert_eq!(per.len(), 4);
        for p in 0..4 {
            assert_eq!(per[&p].packets_sent, 500, "peer {p}");
            assert_eq!(per[&p].bytes_recv, 1000, "peer {p}");
        }
        let t = s.totals();
        assert_eq!((t.packets_sent, t.bytes_recv), (2000, 4000));
    }

    #[test]
    fn counters_accumulate_per_peer_and_total() {
        let s = ChannelStats::with_peers(&[1, 2]);
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
        // A counted form is that many single counts.
        s.on_sends(2, 3, 30);
        s.on_recvs(1, 4, 40);
        let per = s.per_peer();
        assert_eq!((per[&2].packets_sent, per[&2].bytes_sent), (4, 37));
        assert_eq!((per[&1].packets_recv, per[&1].bytes_recv), (5, 49));
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
