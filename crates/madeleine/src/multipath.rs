//! The multi-path routing plane of a virtual channel.
//!
//! This module is the transport-side owner of the policy crate
//! [`mad_route`]: it holds the virtual channel's one
//! [`mad_route::RoutingTable`] (session build computes it; every node's
//! control plane routes by its own plan from it), feeds the adaptive
//! [`mad_route::Selector`] with live gateway load (one [`GatewayWindow`]
//! of its own per engine), and keeps the per-path byte accounting that
//! ends up on the `route:` trace track. Session build creates the plane
//! only when some plan of the table has two or more paths.
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

use mad_route::{GatewayLoad, PathHop, RoutePlan, RoutingTable, Selector, SelectorCounters};
use mad_trace::Tracer;
use mad_util::sync::Mutex;

use crate::gateway::{GatewayStats, GatewayWindow};
use crate::types::NodeId;

/// Minimum interval between cost-model refreshes: a send-path call to
/// [`MultiPath::refresh`] inside the window is free. Windows also pace
/// the `gw:` delta trace events.
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
    tracer: Mutex<Option<(Tracer, String)>>,
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
            tracer: Mutex::new(None),
        }
    }

    /// The multi-path plan of one node.
    pub fn plan(&self, src: NodeId) -> &RoutePlan {
        self.table.plan(src.0)
    }

    /// Attach a trace sink: refresh windows emit `gw:` delta counters and
    /// [`MultiPath::flush_trace`] emits the final `route:` track.
    pub fn set_trace(&self, tracer: Tracer, vc_name: &str) {
        *self.tracer.lock() = Some((tracer, vc_name.to_string()));
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
        let trace = self.tracer.lock().clone();
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
            if let Some((tracer, vc)) = &trace {
                if tracer.enabled() && d.interval_ns > 0 {
                    let track = format!("gw:{vc}@{gw}");
                    tracer.count_on(&track, "gateway", "delta_bytes", d.bytes as i64, &[]);
                    tracer.count_on(&track, "gateway", "delta_stalls", d.stalls as i64, &[]);
                    tracer.count_on(&track, "gateway", "delta_occupancy", d.occupancy_bytes, &[]);
                }
            }
        }
    }

    /// Pick a path for a new stream toward `dest`, skipping gateways in
    /// `exclude` (failed attempts of this stream). Bumps the pick's
    /// in-flight count — pair with [`MultiPath::complete`].
    pub fn choose(&self, dest: NodeId, paths: &[PathHop], exclude: &[u32]) -> Option<PathHop> {
        self.selector.choose(dest.0, paths, exclude)
    }

    /// A stream bound to gateway `gw` finished or failed.
    pub fn complete(&self, gw: u32) {
        self.selector.complete(gw);
    }

    /// A send through gateway `gw` hit a dead host: exclude it from every
    /// future choice. Returns true the first time (worth tracing).
    pub fn mark_dead(&self, gw: u32) -> bool {
        self.selector.mark_dead(gw)
    }

    /// Count one stream successfully re-issued on a surviving path.
    pub fn note_failover(&self) {
        self.selector.note_failover();
    }

    /// Feed a membership (gateway, incarnation epoch) observation to the
    /// selector: a higher epoch than previously recorded readmits a path
    /// declared dead (the old incarnation died; the new one is alive).
    pub fn observe_epoch(&self, gw: u32, epoch: u64) -> mad_route::EpochObservation {
        self.selector.observe_epoch(gw, epoch)
    }

    /// Unconditionally readmit gateway `gw` if it was dead. Returns true
    /// when a path actually came back.
    pub fn readmit(&self, gw: u32) -> bool {
        self.selector.readmit(gw)
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

    /// The selector's routing-decision counters.
    pub fn counters(&self) -> SelectorCounters {
        self.selector.counters()
    }

    /// Emit the final `route:` track: per-path byte splits plus the
    /// switch/failover counters (session teardown calls this once).
    pub fn flush_trace(&self) {
        let Some((tracer, vc)) = self.tracer.lock().clone() else {
            return;
        };
        if !tracer.enabled() {
            return;
        }
        let track = format!("route:{vc}");
        for (gw, bytes) in self.path_bytes() {
            tracer.count_on(
                &track,
                "route",
                "path_bytes",
                bytes as i64,
                &[("gateway", gw as u64)],
            );
        }
        let c = self.counters();
        tracer.count_on(&track, "route", "switches", c.switches as i64, &[]);
        tracer.count_on(&track, "route", "failovers", c.failovers as i64, &[]);
        tracer.count_on(&track, "route", "deaths", c.deaths as i64, &[]);
        tracer.count_on(&track, "route", "readmissions", c.readmissions as i64, &[]);
    }
}
