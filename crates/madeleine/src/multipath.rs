//! The multi-path routing plane of a virtual channel.
//!
//! This module is the transport-side owner of the policy crate
//! [`mad_route`]: it holds the virtual channel's one
//! [`mad_route::RoutingTable`] (session build computes it; every node's
//! control plane routes by its own plan from it), feeds the adaptive
//! [`mad_route::Selector`] with live gateway load (one [`GatewayWindow`]
//! of its own per engine), and keeps the per-path byte accounting that
//! ends up on the `route:` trace track. Session build creates the plane
//! only when some plan of the table has two or more paths. Path choice,
//! completion, death and readmission go straight to the
//! [`MultiPath::selector`].
//!
//! One [`MultiPath`] instance is shared by every node of a virtual
//! channel, which is what makes the cost model *global*: a sender on
//! rank 0 sheds load off a gateway that rank 5's streams congested. The
//! per-node send machinery (path choice at `begin_packing`, failover
//! re-issue) lives in [`crate::vchannel`]; this module only decides
//! *where* packets should go.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mad_route::{GatewayLoad, RoutePlan, RoutingTable, Selector};
use mad_trace::schema::PATH_BYTES;
use mad_trace::Tracer;
use mad_util::sync::Mutex;

use crate::gateway::{GatewayStats, GatewayWindow};
use crate::types::NodeId;

/// Minimum interval between cost-model refreshes: a send-path call to
/// [`MultiPath::refresh`] inside the window is free.
const REFRESH_INTERVAL_NS: u64 = 2_000_000;

/// The shared routing plane of one virtual channel: multi-path plans,
/// the adaptive selector, registered gateway feeds, and per-path byte
/// accounting.
pub struct MultiPath {
    table: RoutingTable,
    selector: Selector,
    last_refresh: AtomicU64,
    /// Live counter feeds of the session's gateway engines, registered
    /// after spawn: (gateway rank, the selector's window over its stats).
    feeds: Mutex<Vec<(u32, GatewayWindow)>>,
    /// Payload bytes the session's senders bound to each gateway path.
    path_bytes: Mutex<BTreeMap<u32, u64>>,
}

impl std::fmt::Debug for MultiPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiPath")
            .field("nodes", &self.table.nodes().collect::<Vec<_>>())
            .finish()
    }
}

impl MultiPath {
    /// The routing plane over a virtual channel's routing table.
    pub fn new(table: RoutingTable) -> Self {
        MultiPath {
            table,
            selector: Selector::new(),
            last_refresh: AtomicU64::new(0),
            feeds: Mutex::new(Vec::new()),
            path_bytes: Mutex::new(BTreeMap::new()),
        }
    }

    /// The multi-path plan of one node.
    pub fn plan(&self, src: NodeId) -> &RoutePlan {
        self.table.plan(src.0)
    }

    /// The adaptive path selector every node of the virtual channel
    /// shares: path choice and completion, dead and readmitted gateways,
    /// and its routing-decision counters.
    pub fn selector(&self) -> &Selector {
        &self.selector
    }

    /// Register one gateway engine's live counters as a cost-model feed;
    /// the first refresh window runs from `now_ns`.
    pub fn register_gateway(&self, gw: NodeId, stats: Arc<GatewayStats>, now_ns: u64) {
        let window = GatewayWindow::open(stats, now_ns);
        self.feeds.lock().push((gw.0, window));
    }

    /// Rate-limited cost-model refresh, called from the send path: at most
    /// once per `REFRESH_INTERVAL_NS`, fold every registered gateway's
    /// delta since the previous window into the selector's EWMA costs.
    pub fn refresh(&self, now_ns: u64) {
        let last = self.last_refresh.load(Ordering::Relaxed);
        if now_ns.saturating_sub(last) < REFRESH_INTERVAL_NS {
            return;
        }
        if self
            .last_refresh
            .compare_exchange(last, now_ns, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // another sender refreshed this window
        }
        for (gw, window) in self.feeds.lock().iter_mut() {
            let d = window.advance(now_ns);
            let secs = d.interval_ns as f64 / 1e9;
            let load = GatewayLoad {
                stall_rate: if secs > 0.0 {
                    d.stalls as f64 / secs
                } else {
                    0.0
                },
                occupancy_bytes: d.occupancy_bytes.max(0) as f64,
                bytes_per_sec: d.bytes_per_sec,
            };
            self.selector.feed(*gw, load);
        }
    }

    /// Account payload bytes bound to gateway path `gw`.
    pub fn note_bytes(&self, gw: u32, bytes: u64) {
        *self.path_bytes.lock().entry(gw).or_insert(0) += bytes;
    }

    /// Payload bytes sent per gateway path, sorted by gateway rank.
    pub fn path_bytes(&self) -> Vec<(u32, u64)> {
        self.path_bytes
            .lock()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// Emit the final `route:` track of virtual channel `vc`: per-path
    /// byte splits plus the switch/failover counters (session teardown
    /// calls this once, with its tracer on).
    pub fn flush_trace(&self, tracer: &Tracer, vc: &str) {
        let track = format!("route:{vc}");
        for (gw, bytes) in self.path_bytes() {
            tracer.count_on(
                &track,
                "route",
                PATH_BYTES,
                bytes as i64,
                &[("gateway", gw as u64)],
            );
        }
        tracer.count_all_on(&track, "route", &self.selector.counters().named());
    }
}
