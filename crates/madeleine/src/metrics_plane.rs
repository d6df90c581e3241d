//! The live telemetry plane: one [`mad_metrics::Registry`] per node,
//! wired into the hot paths of the forwarding engines, plus the in-band
//! machinery that makes every node's metrics visible to every other node
//! *while the session runs*.
//!
//! Three cooperating pieces live here:
//!
//! * **[`MetricsPlane`]** — the per-(virtual channel, node) hub. It owns
//!   the node's [`Registry`] handle, serves kind-10 metrics-pull requests
//!   ([`crate::gtm`]) arriving on the node's special conduits, forwards
//!   in-transit pull packets along the routing table (so a pull crosses
//!   gateways exactly like any forwarded message), and collects replies
//!   for a local [`MetricsPlane::pull`] caller. Kind-10 packets reach it
//!   through the node's [`ControlPlane`] dispatcher, whoever read them:
//!   the gateway engine on a gateway node, a pumping writer or the
//!   [`run_responder`] thread on an endpoint.
//!
//! * **Health watchdogs** — one per gateway node per channel, each driven
//!   by a thread of its own ([`crate::ticker`]). Each tick advances the
//!   watchdog's own [`GatewayWindow`] over the engine's counters and turns
//!   threshold breaches into typed `health:` trace events plus registry
//!   counters: credit starvation, queue saturation, stalled streams,
//!   dead-path flapping.
//!
//! * **Exposition** — [`flush_snapshot_to_trace`] folds a final snapshot
//!   into the session trace on `metrics:` tracks (validated by
//!   `trace_check --require-metrics`).
//!
//! Recording stays lock-free: the plane only touches locks at wiring
//! time (handle interning) and pull time — never on a per-packet path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};

use mad_metrics::{Counter, Gauge, Hist, Registry, Snapshot};
use mad_trace::schema::{HEALTH_EVENT_NAMES, METRICS_EVENT_NAMES};
use mad_trace::Tracer;
use mad_util::sync::Mutex;

use crate::channel::Channel;
use crate::control_plane::{self, ControlPlane};
use crate::error::MadError;
use crate::gateway::{GatewayStats, GatewayStop, GatewayWindow};
use crate::gtm::{self, PacketBody, StreamTag};
use crate::multipath::MultiPath;
use crate::runtime::{RtEvent, Runtime};
use crate::types::NodeId;

/// Turns a virtual channel's telemetry plane on
/// ([`crate::session::VcOptions::metrics`]): registry, in-band pull and
/// the health watchdog. It has no fields — nobody ever set one — and stays
/// a type because the frozen `benchmark/` names `MetricsOptions::default`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsOptions {}

/// Cached hot-path metric handles of one gateway engine, cloned into
/// every `FwdShared`. Absent (engine-wide) when the channel runs without
/// a telemetry plane, which keeps the metrics-off fast path free of even
/// the atomic adds.
#[derive(Clone)]
pub(crate) struct GwMetrics {
    /// Receive→retransmit latency of forwarded fragments.
    pub(crate) forward_ns: Hist,
    /// Time spent blocked waiting for an outbound credit.
    pub(crate) credit_wait_ns: Hist,
    /// Sizes of relay copies, wherever the copy-placement scheduler put
    /// them (receive- and flush-placed alike).
    pub(crate) copy_bytes: Hist,
    /// Packets resident in the engine's outbound pipeline queues.
    pub(crate) queue_depth: Gauge,
}

impl GwMetrics {
    pub(crate) fn new(plane: &MetricsPlane) -> Self {
        let r = plane.registry();
        GwMetrics {
            forward_ns: r.histogram("gw_forward_ns"),
            credit_wait_ns: r.histogram("credit_wait_ns"),
            copy_bytes: r.histogram("gw_copy_bytes"),
            queue_depth: r.gauge("queue_depth"),
        }
    }
}

/// Reply collection state of the current in-band pull.
#[derive(Default)]
struct HubState {
    /// Sequence number of the pull in flight (replies carrying any other
    /// id are stale and dropped).
    seq: u32,
    replies: BTreeMap<NodeId, Snapshot>,
}

/// The per-(virtual channel, node) telemetry hub: the node's registry
/// plus the in-band pull endpoint riding the channel's special conduits.
pub struct MetricsPlane {
    rank: NodeId,
    registry: Arc<Registry>,
    /// The node's control plane (which owns this plane): pulls and
    /// replies leave through its route table and special channels.
    ctl: Weak<ControlPlane>,
    /// The node's arrival event: reply deposits bump it so a blocked
    /// [`MetricsPlane::pull`] wakes.
    event: Arc<dyn RtEvent>,
    runtime: Arc<dyn Runtime>,
    next_pull: AtomicU32,
    hub: Mutex<HubState>,
    /// Gateway engines feeding this node's live gauges, each behind the
    /// plane's own window.
    feeds: Mutex<Vec<GatewayWindow>>,
    /// The channel's multi-path plane, for the per-path byte gauges.
    mp: Mutex<Option<Arc<MultiPath>>>,
    // Cached refresh handles (interned once at wiring time).
    rt_threads: Gauge,
    pool_gets: Gauge,
    pool_hits: Gauge,
    pool_misses: Gauge,
    gw_held: Gauge,
    gw_open: Gauge,
    gw_bps: Gauge,
}

impl std::fmt::Debug for MetricsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsPlane")
            .field("rank", &self.rank)
            .finish()
    }
}

impl MetricsPlane {
    /// Build the plane of one node on one virtual channel (session
    /// bootstrap). `registry` is the *node's* registry, shared across
    /// the node's channels; pulls leave through `ctl`, so they route
    /// exactly like forwarded messages.
    pub(crate) fn new(
        ctl: &Arc<ControlPlane>,
        registry: Arc<Registry>,
        runtime: Arc<dyn Runtime>,
    ) -> Arc<Self> {
        // Intern the standard instruments eagerly so even an idle node's
        // snapshot exposes the full schema.
        registry.counter("degradations");
        Arc::new(MetricsPlane {
            rank: ctl.rank(),
            rt_threads: registry.gauge("rt_threads_spawned"),
            pool_gets: registry.gauge("pool_gets"),
            pool_hits: registry.gauge("pool_hits"),
            pool_misses: registry.gauge("pool_misses"),
            gw_held: registry.gauge("gw_held_bytes"),
            gw_open: registry.gauge("open_streams"),
            gw_bps: registry.gauge("gw_bytes_per_sec"),
            registry,
            ctl: Arc::downgrade(ctl),
            event: ctl.event().clone(),
            runtime,
            next_pull: AtomicU32::new(1),
            hub: Mutex::new(HubState::default()),
            feeds: Mutex::new(Vec::new()),
            mp: Mutex::new(None),
        })
    }

    /// The node's local rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// The node's live registry (shared with every instrumented
    /// subsystem of the node).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Register a gateway engine whose stats feed the live gauges.
    pub(crate) fn register_gateway(&self, stats: &Arc<GatewayStats>) {
        let window = GatewayWindow::open(stats.clone(), self.runtime.now_nanos());
        self.feeds.lock().push(window);
    }

    /// Register the channel's multi-path plane (per-path byte gauges).
    pub(crate) fn register_multipath(&self, mp: &Arc<MultiPath>) {
        *self.mp.lock() = Some(mp.clone());
    }

    /// Refresh the sampled gauges that mirror other subsystems: runtime
    /// thread count (live, not just at teardown), pool hit/miss
    /// counters, gateway occupancy and throughput (over the plane's own
    /// windows, so no other reader's are touched), and per-path bytes.
    pub fn refresh_live(&self) {
        self.rt_threads.set(self.runtime.threads_spawned() as i64);
        let ps = self.runtime.pool().stats();
        self.pool_gets.set(ps.gets as i64);
        self.pool_hits.set(ps.hits as i64);
        self.pool_misses.set(ps.misses as i64);
        let now = self.runtime.now_nanos();
        let mut held = 0i64;
        let mut open = 0i64;
        let mut bps = 0f64;
        for window in self.feeds.lock().iter_mut() {
            let d = window.advance(now);
            held += d.occupancy_bytes;
            bps += d.bytes_per_sec;
            open += window.stats().open_streams();
        }
        self.gw_held.set(held);
        self.gw_open.set(open);
        self.gw_bps.set(bps as i64);
        if let Some(mp) = self.mp.lock().as_ref() {
            for (gw, bytes) in mp.path_bytes() {
                self.registry
                    .gauge(&format!("path_bytes_gw{gw}"))
                    .set(bytes as i64);
            }
        }
    }

    /// Refresh the sampled gauges and snapshot the whole registry.
    pub fn local_snapshot(&self) -> Snapshot {
        self.refresh_live();
        self.registry.snapshot()
    }

    /// Pull the live snapshot of every node in `targets` over the
    /// channel itself — requests and replies travel as kind-10 GTM
    /// control packets on the existing special conduits, crossing
    /// gateways along the ordinary routing table. Returns whatever
    /// arrived by the deadline (partial on timeout; the local node is
    /// always present when listed). One pull at a time per node: a
    /// newer pull retires the previous one's outstanding replies.
    pub fn pull(&self, targets: &[NodeId], timeout_ns: u64) -> BTreeMap<NodeId, Snapshot> {
        let seq = self.next_pull.fetch_add(1, Ordering::Relaxed);
        {
            let mut hub = self.hub.lock();
            hub.seq = seq;
            hub.replies.clear();
        }
        let mut out = BTreeMap::new();
        let mut want = 0usize;
        for &t in targets {
            if t == self.rank {
                out.insert(t, self.local_snapshot());
                continue;
            }
            let tag = StreamTag {
                src: self.rank,
                dest: t,
                msg_id: seq,
            };
            let pkt = gtm::encode_metrics_request(&tag);
            if control_plane::send_via(&self.ctl, t, &pkt).is_ok() {
                want += 1;
            }
        }
        let deadline = self.runtime.now_nanos().saturating_add(timeout_ns);
        loop {
            let seen = self.event.epoch();
            if self.hub.lock().replies.len() >= want {
                break;
            }
            let now = self.runtime.now_nanos();
            if now >= deadline {
                break;
            }
            let _ = self.event.wait_past_timeout(seen, deadline - now);
        }
        let mut hub = self.hub.lock();
        if hub.seq == seq {
            out.append(&mut hub.replies);
        }
        out
    }

    /// Handle one kind-10 packet that arrived on a special conduit:
    /// serve a request addressed here, deposit a reply addressed here,
    /// or relay an in-transit pull toward its destination. Errors are
    /// swallowed — telemetry must never take a data path down.
    pub(crate) fn handle_packet(&self, tag: &StreamTag, body: &PacketBody, packet: &[u8]) {
        if tag.dest != self.rank {
            let _ = control_plane::send_via(&self.ctl, tag.dest, packet);
            return;
        }
        match body {
            PacketBody::MetricsRequest => self.serve_request(tag),
            PacketBody::MetricsReply => self.deposit_reply(tag, gtm::metrics_payload(packet)),
            _ => {}
        }
    }

    /// Answer a pull request: encode the local snapshot within the
    /// kind-10 payload budget and route the reply back to the requester.
    fn serve_request(&self, req: &StreamTag) {
        let snap = self.local_snapshot();
        let mut payload = Vec::new();
        snap.encode_into(&mut payload, gtm::METRICS_MAX);
        let reply_tag = StreamTag {
            src: self.rank,
            dest: req.src,
            msg_id: req.msg_id,
        };
        let pkt = gtm::encode_metrics_reply(&reply_tag, &payload);
        let _ = control_plane::send_via(&self.ctl, req.src, &pkt);
    }

    /// File a reply under the pull it answers (stale ids are dropped)
    /// and wake the waiting puller.
    fn deposit_reply(&self, tag: &StreamTag, payload: &[u8]) {
        let Ok(snap) = Snapshot::decode(payload) else {
            return;
        };
        {
            let mut hub = self.hub.lock();
            if hub.seq == tag.msg_id {
                hub.replies.insert(tag.src, snap);
            }
        }
        self.event.bump();
    }
}

/// The endpoint-side responder: on non-gateway nodes nothing drains the
/// special conduits between writer pumps, so arriving pull requests,
/// membership events and replies to this node's own pulls would sit
/// unread. This loop pumps every special conduit through the node's
/// control plane. Streams never arrive on an endpoint's special conduit,
/// so a stray or undecodable packet is dropped silently — telemetry must
/// never take a node down. Exits when the session's stop coordinator
/// fires (teardown bumps the node event).
pub(crate) fn run_responder(ctl: Arc<ControlPlane>, stop: Arc<GatewayStop>) {
    let channels: Vec<Arc<Channel>> = ctl.special().values().cloned().collect();
    loop {
        let seen = ctl.event().epoch();
        let mut any = true;
        while any {
            any = false;
            for ch in &channels {
                for peer in ch.peers() {
                    match ctl.pump(ch, peer) {
                        Ok(consumed) => any |= consumed,
                        // The offending packet is gone; keep draining.
                        Err(MadError::Protocol(_)) => any = true,
                        Err(_) => {}
                    }
                }
            }
        }
        if stop.stop_requested() {
            return;
        }
        ctl.event().wait_past(seen);
    }
}

/// Minimum backpressure stalls in a window before queue saturation is
/// even considered (filters one-off blips).
const SATURATION_MIN_STALLS: u64 = 8;
/// Stall fraction `stalls / (stalls + fragments)` at or above which a
/// window counts as queue saturation.
const SATURATION_STALL_RATIO: f64 = 0.75;
/// Consecutive zero-progress ticks (open streams but no fragments and no
/// messages) before a stalled stream is reported.
const STALLED_STREAM_TICKS: u32 = 2;

/// One gateway node's health evaluator: turns windowed stat deltas into
/// typed `health:` trace events and registry counters, driven by its own
/// thread ([`crate::ticker`]). Teardown gets one final evaluation, so a
/// fault that lands between the last tick and the stop request is still
/// reported.
pub(crate) struct Watchdog {
    /// This watchdog's own window over the engine's counters.
    window: GatewayWindow,
    mp: Option<Arc<MultiPath>>,
    tracer: Tracer,
    /// The `health:{vc}@{rank}` trace track.
    track: String,
    /// One per [`HEALTH_EVENT_NAMES`] entry, in its order.
    counters: [Counter; 4],
    degradations: Counter,
    /// Consecutive zero-progress ticks with streams open.
    idle_ticks: u32,
    /// Selector failovers + deaths at the previous tick.
    prev_flap: u64,
}

impl Watchdog {
    pub(crate) fn new(
        window: GatewayWindow,
        mp: Option<Arc<MultiPath>>,
        registry: &Registry,
        tracer: Tracer,
        track: String,
    ) -> Self {
        let counters = HEALTH_EVENT_NAMES.map(|n| registry.counter(&format!("health_{n}")));
        Watchdog {
            window,
            mp,
            tracer,
            track,
            counters,
            degradations: registry.counter("degradations"),
            idle_ticks: 0,
            prev_flap: 0,
        }
    }

    fn fire(&self, which: usize, n: u64) {
        self.tracer.count_on(
            &self.track,
            "health",
            HEALTH_EVENT_NAMES[which],
            n as i64,
            &[],
        );
        self.counters[which].add(n);
        self.degradations.add(n);
    }

    /// Evaluate one window ending `now`.
    pub(crate) fn tick(&mut self, now_ns: u64) {
        let d = self.window.advance(now_ns);
        // Credit starvation: the outbound side hit its credit deadline
        // (each hit already cancelled a stream).
        if d.credit_timeouts > 0 {
            self.fire(0, d.credit_timeouts);
        }
        // Queue saturation: nearly every handoff in a busy window found
        // the pipeline full.
        if d.saturated(SATURATION_MIN_STALLS, SATURATION_STALL_RATIO) {
            self.fire(1, 1);
        }
        // Stalled stream: accepted streams are open but the window moved
        // no fragments and finished no messages — the upstream or
        // downstream side went quiet mid-stream. Fires once per episode
        // (on the tick crossing the threshold), not on every idle tick.
        if self.window.stats().open_streams() > 0 && d.fragments == 0 && d.messages == 0 {
            self.idle_ticks = self.idle_ticks.saturating_add(1);
            if self.idle_ticks == STALLED_STREAM_TICKS {
                self.fire(2, 1);
            }
        } else {
            self.idle_ticks = 0;
        }
        // Dead-path flap: the multi-path selector failed streams over or
        // declared gateways dead since the previous tick.
        if let Some(mp) = &self.mp {
            let c = mp.counters();
            let flap = c.failovers + c.deaths;
            let delta = flap.saturating_sub(self.prev_flap);
            if delta > 0 {
                self.fire(3, delta);
            }
            self.prev_flap = flap;
        }
    }
}

/// The `metrics:` event name equal to `name`: only names the trace schema
/// validates reach the trace (event names must be static). Dynamic or
/// application-defined registry entries are exposed through snapshots
/// alone.
fn static_scalar_name(name: &str) -> Option<&'static str> {
    METRICS_EVENT_NAMES.iter().copied().find(|n| *n == name)
}

/// Fold one node's final snapshot into the session trace on a
/// `metrics:` track: counters and gauges as-is, histograms as derived
/// quantiles, per-path byte gauges folded into one event family keyed
/// by a `gateway` arg.
pub(crate) fn flush_snapshot_to_trace(snap: &Snapshot, tracer: &Tracer, track: &str) {
    for (name, v) in &snap.counters {
        if let Some(n) = static_scalar_name(name) {
            tracer.count_on(track, "metrics", n, *v as i64, &[]);
        }
    }
    for (name, v, peak) in &snap.gauges {
        if let Some(rest) = name.strip_prefix("path_bytes_gw") {
            if let Ok(gw) = rest.parse::<u64>() {
                tracer.count_on(track, "metrics", "path_bytes", *v, &[("gateway", gw)]);
            }
            continue;
        }
        if let Some(n) = static_scalar_name(name) {
            tracer.count_on(track, "metrics", n, *v, &[]);
        }
        if name == "queue_depth" {
            tracer.count_on(track, "metrics", "queue_depth_peak", *peak, &[]);
        }
    }
    for (name, h) in &snap.hists {
        let values = [
            ("_p50", h.quantile(0.50)),
            ("_p90", h.quantile(0.90)),
            ("_p99", h.quantile(0.99)),
            ("_max", h.max),
            ("_count", h.count()),
        ];
        for (suffix, v) in values {
            let derived = METRICS_EVENT_NAMES
                .iter()
                .find(|n| n.strip_prefix(name.as_str()) == Some(suffix));
            if let Some(n) = derived {
                tracer.count_on(track, "metrics", n, v as i64, &[]);
            }
        }
    }
}
