//! Serialized point-to-point link model.
//!
//! A [`Link`] is one *direction* of a physical cable: packets occupy it back
//! to back at the link bandwidth, then experience a fixed propagation +
//! switching latency. Full-duplex networks (Myrinet, SCI) use two `Link`
//! instances per cable, so opposite directions never queue behind each other.

use mad_util::sync::Mutex;
use vtime::{SimDuration, SimTime};

/// One direction of a cable: bandwidth-serialized occupancy plus latency.
#[derive(Debug)]
pub struct Link {
    bw_bps: f64,
    latency: SimDuration,
    busy_until_ns: Mutex<u64>,
}

impl Link {
    /// Create a link with `bw_bps` bytes/second and fixed `latency`.
    pub fn new(bw_bps: f64, latency: SimDuration) -> Self {
        assert!(bw_bps > 0.0, "link bandwidth must be positive");
        Link {
            bw_bps,
            latency,
            busy_until_ns: Mutex::new(0),
        }
    }

    /// Propagation + switching latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Reserve occupancy for a `bytes`-long packet entering the link at
    /// `now` (or as soon as the wire frees up) and return its delivery time
    /// at the far end.
    pub fn schedule(&self, now: SimTime, bytes: u64) -> SimTime {
        let occupancy_ns = ((bytes as f64 / self.bw_bps) * 1e9).ceil() as u64;
        let mut busy = self.busy_until_ns.lock();
        let start = (*busy).max(now.as_nanos());
        *busy = start.saturating_add(occupancy_ns);
        SimTime(*busy).after(self.latency)
    }
}
