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
//!   [`run_responder`] thread on an endpoint. Before each snapshot it
//!   samples levels other subsystems own — thread budget, pool counters,
//!   each registered engine's occupancy and open streams — straight off
//!   their owners; it keeps no window and copies no engine total.
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
//!   `trace_check --require metrics:`).
//!
//! Recording stays lock-free: the plane only touches locks at wiring
//! time (handle interning) and pull time — never on a per-packet path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use mad_metrics::{Counter, Gauge, Hist, Registry, Snapshot};
use mad_trace::schema::PATH_BYTES;
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
/// the health watchdog. A unit marker that stays a type because the frozen
/// `benchmark/` names `MetricsOptions::default`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsOptions;

// The registry's standard instruments; the teardown flush puts each on
// the node's `metrics:` track by name.
const DEGRADATIONS: &str = "degradations";
const QUEUE_DEPTH: &str = "queue_depth";
/// The high-water mark of [`QUEUE_DEPTH`], flushed beside it.
const QUEUE_DEPTH_PEAK: &str = "queue_depth_peak";
/// The gauges [`MetricsPlane::refresh_live`] samples from other
/// subsystems, in the order it sets them.
const SAMPLED: [&str; 6] = [
    "rt_threads_spawned",
    "pool_gets",
    "pool_hits",
    "pool_misses",
    "gw_held_bytes",
    "open_streams",
];
/// A gateway engine's histograms, in [`GwMetrics`] field order; each is
/// flushed as its quantiles, one event per [`HIST_SUFFIXES`] entry.
const HISTOGRAMS: [&str; 2] = ["gw_forward_ns", "credit_wait_ns"];
const HIST_SUFFIXES: [&str; 5] = ["_p50", "_p90", "_p99", "_max", "_count"];
/// Per-path byte gauges are `path_bytes_gw<N>`; the flush folds them into
/// one [`PATH_BYTES`] event family keyed by a `gateway` arg.
const PATH_GAUGE_PREFIX: &str = "path_bytes_gw";

/// The watchdog's verdicts, one `health:` event per detector firing, each
/// also counted in the registry as `health_<name>`.
pub(crate) const HEALTH_EVENT_NAMES: [&str; 4] = [
    "credit_starvation",
    "queue_saturation",
    "stalled_stream",
    "dead_path_flap",
];

/// The registry counter that tallies the `name` verdicts.
fn health_counter(name: &str) -> String {
    format!("health_{name}")
}

/// Every event name a `metrics:` track carries. Built once, derived names
/// included: trace event names are `'static`, so those are leaked with it.
pub(crate) fn metrics_event_names() -> &'static [&'static str] {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let mut names = vec![DEGRADATIONS, QUEUE_DEPTH, QUEUE_DEPTH_PEAK, PATH_BYTES];
        names.extend(SAMPLED);
        names.extend(HEALTH_EVENT_NAMES.map(|n| leak(health_counter(n))));
        for h in HISTOGRAMS {
            names.extend(HIST_SUFFIXES.map(|q| leak(format!("{h}{q}"))));
        }
        names
    })
}

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
    /// Packets resident in the engine's outbound pipeline queues.
    pub(crate) queue_depth: Gauge,
}

impl GwMetrics {
    pub(crate) fn new(plane: &MetricsPlane) -> Self {
        let r = plane.registry();
        let [forward_ns, credit_wait_ns] = HISTOGRAMS.map(|n| r.histogram(n));
        GwMetrics {
            forward_ns,
            credit_wait_ns,
            queue_depth: r.gauge(QUEUE_DEPTH),
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
    /// Gateway engines whose occupancy and open streams feed this node's
    /// live gauges.
    gateways: Mutex<Vec<Arc<GatewayStats>>>,
    /// The channel's multi-path plane, for the per-path byte gauges.
    mp: Mutex<Option<Arc<MultiPath>>>,
    /// The [`SAMPLED`] gauges, in its order (interned once at wiring
    /// time).
    sampled: [Gauge; 6],
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
        registry.counter(DEGRADATIONS);
        Arc::new(MetricsPlane {
            rank: ctl.rank(),
            sampled: SAMPLED.map(|n| registry.gauge(n)),
            registry,
            ctl: Arc::downgrade(ctl),
            event: ctl.event().clone(),
            runtime,
            next_pull: AtomicU32::new(1),
            hub: Mutex::new(HubState::default()),
            gateways: Mutex::new(Vec::new()),
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
        self.gateways.lock().push(stats.clone());
    }

    /// Register the channel's multi-path plane (per-path byte gauges).
    pub(crate) fn register_multipath(&self, mp: &Arc<MultiPath>) {
        *self.mp.lock() = Some(mp.clone());
    }

    /// Refresh the sampled gauges that mirror other subsystems: runtime
    /// thread count (live, not just at teardown), pool hit/miss
    /// counters, gateway occupancy and open streams (levels read straight
    /// off the engines), and per-path bytes.
    pub fn refresh_live(&self) {
        let ps = self.runtime.pool().stats();
        let (mut held, mut open) = (0, 0);
        for stats in self.gateways.lock().iter() {
            held += stats.totals().held_bytes;
            open += stats.open_streams();
        }
        let values = [
            self.runtime.threads_spawned() as i64,
            ps.gets as i64,
            ps.hits as i64,
            ps.misses as i64,
            held,
            open,
        ];
        for (gauge, v) in self.sampled.iter().zip(values) {
            gauge.set(v);
        }
        if let Some(mp) = self.mp.lock().as_ref() {
            for (gw, bytes) in mp.path_bytes() {
                self.registry
                    .gauge(&format!("{PATH_GAUGE_PREFIX}{gw}"))
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
        let counters = HEALTH_EVENT_NAMES.map(|n| registry.counter(&health_counter(n)));
        Watchdog {
            window,
            mp,
            tracer,
            track,
            counters,
            degradations: registry.counter(DEGRADATIONS),
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
            let c = mp.selector().counters();
            let flap = c.failovers + c.deaths;
            let delta = flap.saturating_sub(self.prev_flap);
            if delta > 0 {
                self.fire(3, delta);
            }
            self.prev_flap = flap;
        }
    }
}

/// Fold one node's final snapshot into the session trace on a
/// `metrics:` track: counters and gauges as-is, histograms as derived
/// quantiles, per-path byte gauges folded into one event family keyed
/// by a `gateway` arg. Only names [`metrics_event_names`] lists reach the
/// trace (event names must be static); dynamic or application-defined
/// registry entries are exposed through snapshots alone.
pub(crate) fn flush_snapshot_to_trace(snap: &Snapshot, tracer: &Tracer, track: &str) {
    let names = metrics_event_names();
    let known = |name: &str| names.iter().copied().find(|n| *n == name);
    for (name, v) in &snap.counters {
        if let Some(n) = known(name) {
            tracer.count_on(track, "metrics", n, *v as i64, &[]);
        }
    }
    for (name, v, peak) in &snap.gauges {
        if let Some(rest) = name.strip_prefix(PATH_GAUGE_PREFIX) {
            if let Ok(gw) = rest.parse::<u64>() {
                tracer.count_on(track, "metrics", PATH_BYTES, *v, &[("gateway", gw)]);
            }
            continue;
        }
        if let Some(n) = known(name) {
            tracer.count_on(track, "metrics", n, *v, &[]);
        }
        if name == QUEUE_DEPTH {
            tracer.count_on(track, "metrics", QUEUE_DEPTH_PEAK, *peak, &[]);
        }
    }
    for (name, h) in &snap.hists {
        let values = [
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99),
            h.max,
            h.count(),
        ];
        for (suffix, v) in HIST_SUFFIXES.into_iter().zip(values) {
            let derived = names
                .iter()
                .find(|n| n.strip_prefix(name.as_str()) == Some(suffix));
            if let Some(n) = derived {
                tracer.count_on(track, "metrics", n, v as i64, &[]);
            }
        }
    }
}
