//! In-process session bootstrap.
//!
//! The original Madeleine launches one process per node; this reproduction
//! runs the whole session in one process with one thread per node, which is
//! what lets the hardware model time everything on a single virtual clock.
//! [`SessionBuilder`] declares networks (driver + members), plain channels,
//! and virtual channels; [`SessionBuilder::run`] materializes every conduit
//! mesh, spawns gateway engines on nodes attached to several networks, runs
//! the application closure on every node, and tears the session down in
//! dependency order.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mad_route::NetworkDecl;
use mad_util::sync::Mutex;

use crate::channel::Channel;
use crate::conduit::{Conduit, Driver};
use crate::control_plane::ControlPlane;
use crate::credit::{CreditLedger, FlowControl};
use crate::gateway::{spawn_gateway, GatewayConfig, GatewayHandles, GatewayStop, GatewayWindow};
use crate::membership::MembershipPlane;
use crate::metrics_plane::{self, MetricsOptions, MetricsPlane, Watchdog};
use crate::multipath::MultiPath;
use crate::runtime::{RtEvent, Runtime, StdRuntime};
use crate::ticker;
use crate::types::{ChannelId, NetworkId, NodeId};
use crate::vchannel::VirtualChannel;

/// A session-wide rendezvous point for application code (benchmarks use it
/// to synchronize measurement phases).
#[derive(Clone)]
pub struct SessionBarrier {
    inner: Arc<BarrierInner>,
}

struct BarrierInner {
    state: Mutex<(usize, u64)>, // (arrived, generation)
    event: Arc<dyn RtEvent>,
    n: usize,
}

impl SessionBarrier {
    /// A barrier for `n` participants.
    pub fn new(rt: &dyn Runtime, n: usize) -> Self {
        SessionBarrier {
            inner: Arc::new(BarrierInner {
                state: Mutex::new((0, 0)),
                event: rt.event(),
                n,
            }),
        }
    }

    /// Wait until all `n` participants have arrived.
    pub fn wait(&self) {
        let generation = {
            let mut st = self.inner.state.lock();
            st.0 += 1;
            if st.0 == self.inner.n {
                st.0 = 0;
                st.1 += 1;
                drop(st);
                self.inner.event.bump();
                return;
            }
            st.1
        };
        loop {
            let seen = self.inner.event.epoch();
            if self.inner.state.lock().1 != generation {
                return;
            }
            self.inner.event.wait_past(seen);
        }
    }
}

/// Per-gateway forwarding statistics returned by
/// [`SessionBuilder::run_with_gateway_stats`]: (virtual channel name,
/// gateway rank, counters).
pub type GatewayStatsReport = Vec<(String, NodeId, Arc<crate::gateway::GatewayStats>)>;

/// Options of one virtual channel declaration.
#[derive(Debug, Clone, Default)]
pub struct VcOptions {
    /// Route-wide fragment size; defaults to the minimum preferred MTU of
    /// the spanned drivers.
    pub mtu: Option<usize>,
    /// Gateway engine tuning.
    pub gateway: GatewayConfig,
    /// Live telemetry plane: when set, every member node gets a metrics
    /// registry wired into the engine hot paths and answers in-band
    /// kind-10 snapshot pulls, and each gateway node runs a health
    /// watchdog. `None` (the default) compiles the recording out of every
    /// hot path.
    pub metrics: Option<MetricsOptions>,
    /// Dynamic membership plane: when set, every member node gets a
    /// [`crate::membership::MembershipPlane`] speaking the epoch-stamped
    /// kind-11 join/leave/rejoin protocol over the channel's special
    /// conduits. `false` (the default) keeps the static-membership wire
    /// behaviour byte-identical.
    pub membership: bool,
}

struct NetworkDef {
    name: String,
    driver: Arc<dyn Driver>,
    members: Vec<NodeId>,
}

struct ChannelDef {
    name: String,
    net: usize,
}

struct VcDef {
    name: String,
    nets: Vec<usize>,
    options: VcOptions,
}

/// Declarative builder of an in-process Madeleine session.
pub struct SessionBuilder {
    n_nodes: u32,
    runtime: Arc<dyn Runtime>,
    networks: Vec<NetworkDef>,
    channels: Vec<ChannelDef>,
    vchannels: Vec<VcDef>,
}

impl SessionBuilder {
    /// A session of `n_nodes` ranks on the real-threads runtime.
    pub fn new(n_nodes: u32) -> Self {
        assert!(n_nodes >= 1, "a session needs at least one node");
        SessionBuilder {
            n_nodes,
            runtime: StdRuntime::shared(),
            networks: Vec::new(),
            channels: Vec::new(),
            vchannels: Vec::new(),
        }
    }

    /// Replace the runtime (e.g. with the simulated one).
    pub fn with_runtime(mut self, rt: Arc<dyn Runtime>) -> Self {
        self.runtime = rt;
        self
    }

    /// Record the session into `tracer` by installing a traced
    /// real-threads runtime (binds the tracer's clock to the runtime's
    /// monotonic epoch). For simulated sessions attach the tracer
    /// through the simulated runtime instead (`Testbed::with_trace`).
    pub fn with_tracer(self, tracer: mad_trace::Tracer) -> Self {
        self.with_runtime(StdRuntime::traced(tracer))
    }

    /// The session's runtime.
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.runtime
    }

    /// Declare a network: a driver plus the ranks attached to it.
    pub fn network(
        &mut self,
        name: impl Into<String>,
        driver: Arc<dyn Driver>,
        members: &[u32],
    ) -> NetworkId {
        let members: Vec<NodeId> = members.iter().map(|&m| NodeId(m)).collect();
        for m in &members {
            assert!(m.0 < self.n_nodes, "network member {m} out of range");
        }
        assert!(members.len() >= 2, "a network needs at least two members");
        let name = name.into();
        assert!(
            !self.networks.iter().any(|n| n.name == name),
            "duplicate network name `{name}`"
        );
        self.networks.push(NetworkDef {
            name,
            driver,
            members,
        });
        NetworkId(self.networks.len() as u32 - 1)
    }

    /// Declare a plain channel over one network.
    pub fn channel(&mut self, name: impl Into<String>, net: NetworkId) {
        assert!((net.0 as usize) < self.networks.len(), "unknown network");
        self.channels.push(ChannelDef {
            name: name.into(),
            net: net.0 as usize,
        });
    }

    /// Declare a virtual channel spanning several networks.
    pub fn vchannel(&mut self, name: impl Into<String>, nets: &[NetworkId], options: VcOptions) {
        assert!(
            !nets.is_empty(),
            "a virtual channel spans at least one network"
        );
        for n in nets {
            assert!((n.0 as usize) < self.networks.len(), "unknown network");
        }
        self.vchannels.push(VcDef {
            name: name.into(),
            nets: nets.iter().map(|n| n.0 as usize).collect(),
            options,
        });
    }

    /// Materialize the session, run `f` on every node, and tear down.
    /// Returns the per-rank results.
    pub fn run<T, F>(self, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(Node) -> T + Send + Sync + 'static,
    {
        self.run_with_gateway_stats(f).0
    }

    /// Like [`SessionBuilder::run`], additionally returning the forwarding
    /// statistics of every gateway engine, keyed by (virtual channel name,
    /// gateway rank).
    pub fn run_with_gateway_stats<T, F>(self, f: F) -> (Vec<T>, GatewayStatsReport)
    where
        T: Send + 'static,
        F: Fn(Node) -> T + Send + Sync + 'static,
    {
        let n = self.n_nodes as usize;
        let runtime = self.runtime.clone();
        let guard = runtime.setup_guard();

        // One arrival event per node, shared by its conduits so a node can
        // block for "anything from anyone" — all of them but a gateway's
        // special channels, which each get their own (see the virtual
        // channels below).
        let node_events: Vec<Arc<dyn RtEvent>> = (0..n).map(|_| runtime.event()).collect();

        let mut next_channel_id = 0u32;
        let mut alloc_channel_id = || {
            let id = ChannelId(next_channel_id);
            next_channel_id += 1;
            id
        };

        // Builds one channel over a network: a full conduit mesh among the
        // members, assembled into one per-node Channel. `own_event` names
        // the members whose end of it gets an arrival event of its own;
        // every other end bumps its node's.
        let build_channel = |id: ChannelId,
                             label: String,
                             net_idx: usize,
                             own_event: &[NodeId]|
         -> HashMap<NodeId, Channel> {
            let def = &self.networks[net_idx];
            let events: HashMap<NodeId, Arc<dyn RtEvent>> = def
                .members
                .iter()
                .map(|&m| {
                    if own_event.contains(&m) {
                        (m, runtime.event())
                    } else {
                        (m, node_events[m.index()].clone())
                    }
                })
                .collect();
            let mut per_node: HashMap<NodeId, BTreeMap<NodeId, Box<dyn Conduit>>> =
                def.members.iter().map(|&m| (m, BTreeMap::new())).collect();
            for (i, &a) in def.members.iter().enumerate() {
                for &b in def.members.iter().skip(i + 1) {
                    let (ca, cb) = def
                        .driver
                        .connect(a, b, events[&a].clone(), events[&b].clone());
                    per_node.get_mut(&a).unwrap().insert(b, ca);
                    per_node.get_mut(&b).unwrap().insert(a, cb);
                }
            }
            per_node
                .into_iter()
                .map(|(rank, conduits)| {
                    let ch = Channel::assemble(
                        id,
                        label.clone(),
                        NetworkId(net_idx as u32),
                        rank,
                        def.driver.caps(),
                        conduits,
                        events[&rank].clone(),
                        runtime.clone(),
                    );
                    (rank, ch)
                })
                .collect()
        };

        // Per-channel traffic counters, collected for the end-of-run
        // trace flush: (channel label, rank, counters).
        let mut channel_stats: Vec<(String, NodeId, Arc<mad_trace::ChannelStats>)> = Vec::new();

        // Plain channels.
        let mut plain: Vec<(String, HashMap<NodeId, Arc<Channel>>)> = Vec::new();
        for cdef in &self.channels {
            let id = alloc_channel_id();
            let built: HashMap<NodeId, Arc<Channel>> =
                build_channel(id, cdef.name.clone(), cdef.net, &[])
                    .into_iter()
                    .map(|(k, v)| (k, Arc::new(v)))
                    .collect();
            for (&rank, ch) in &built {
                channel_stats.push((cdef.name.clone(), rank, ch.stats().clone()));
            }
            plain.push((cdef.name.clone(), built));
        }

        // Virtual channels: two real channels per network, routing tables,
        // gateway engines.
        let mut vcs: Vec<(String, HashMap<NodeId, Arc<VirtualChannel>>)> = Vec::new();
        let mut gateway_handles: Vec<GatewayHandles> = Vec::new();
        let mut gateway_stats: GatewayStatsReport = Vec::new();
        let mut route_planes: Vec<Arc<MultiPath>> = Vec::new();
        let gateway_stop = Arc::new(GatewayStop::new());
        // Live telemetry: one registry per *node* (shared by all its
        // telemetry-enabled virtual channels), one plane per (virtual
        // channel, node), plus the auxiliary threads driving watchdogs and
        // endpoint responders.
        let mut node_registries: HashMap<NodeId, Arc<mad_metrics::Registry>> = HashMap::new();
        let mut metrics_planes: Vec<Arc<MetricsPlane>> = Vec::new();
        let mut member_planes: Vec<Arc<MembershipPlane>> = Vec::new();
        let mut aux_threads = Vec::new();
        for vdef in &self.vchannels {
            // One routing table per virtual channel: every node's control
            // plane routes by its own plan from it, and the multi-path
            // plane (below) holds it.
            let decls: Vec<NetworkDecl> = vdef
                .nets
                .iter()
                .map(|&i| NetworkDecl {
                    net: i as u32,
                    members: self.networks[i].members.iter().map(|m| m.0).collect(),
                })
                .collect();
            let table = mad_route::compute_table(&decls);

            // A gateway's polling thread sleeps on its inbound special
            // channel alone, so that channel's arrivals get an event of
            // their own: a packet from the left wakes the left polling
            // thread and nobody else. Everything else on the node — its
            // regular channels, its ledger, an endpoint's special channels
            // — stays on the node event, where a pumping writer or a reader
            // needs "an arrival or a deposit" in one wait.
            let gateways: Vec<NodeId> = mad_route::gateways(&decls)
                .into_iter()
                .map(NodeId)
                .collect();

            // Build the per-network channel pairs.
            let mut regular_by_node: HashMap<NodeId, BTreeMap<NetworkId, Arc<Channel>>> =
                HashMap::new();
            let mut special_by_node: HashMap<NodeId, BTreeMap<NetworkId, Arc<Channel>>> =
                HashMap::new();
            for &net_idx in &vdef.nets {
                let net_id = NetworkId(net_idx as u32);
                let net_name = &self.networks[net_idx].name;
                let reg_id = alloc_channel_id();
                let reg_label = format!("{}.regular.{net_name}", vdef.name);
                for (rank, ch) in build_channel(reg_id, reg_label.clone(), net_idx, &[]) {
                    let ch = Arc::new(ch);
                    channel_stats.push((reg_label.clone(), rank, ch.stats().clone()));
                    regular_by_node.entry(rank).or_default().insert(net_id, ch);
                }
                let spec_id = alloc_channel_id();
                let spec_label = format!("{}.special.{net_name}", vdef.name);
                for (rank, ch) in build_channel(spec_id, spec_label.clone(), net_idx, &gateways) {
                    let ch = Arc::new(ch);
                    channel_stats.push((spec_label.clone(), rank, ch.stats().clone()));
                    special_by_node.entry(rank).or_default().insert(net_id, ch);
                }
            }

            // Route-wide MTU.
            let min_pref = vdef
                .nets
                .iter()
                .map(|&i| self.networks[i].driver.caps().preferred_mtu)
                .min()
                .expect("at least one network");
            let max_pkt = vdef
                .nets
                .iter()
                .map(|&i| self.networks[i].driver.caps().max_packet)
                .min()
                .expect("at least one network");
            let mtu = vdef.options.mtu.unwrap_or(min_pref);
            assert!(
                mtu <= max_pkt,
                "virtual channel `{}` MTU {mtu} exceeds the smallest driver packet limit {max_pkt}",
                vdef.name
            );

            // One control plane per (virtual channel, node): the node's
            // credit ledger — keyed off the node's arrival event so a
            // blocked writer wakes on either an arrival on a conduit it
            // pumps or a credit deposit, and present even without a credit
            // window because it doubles as the cancellation bus — plus its
            // plan from the channel's routing table and its special
            // channels. The node's gateway engine (if any), its writers,
            // its responder and its optional planes all share it.
            let ctls: HashMap<NodeId, Arc<ControlPlane>> = special_by_node
                .into_iter()
                .map(|(rank, special)| {
                    let ctl = ControlPlane::new(
                        rank,
                        CreditLedger::new(node_events[rank.index()].clone()),
                        table.plan(rank.0).clone(),
                        special,
                    );
                    (rank, ctl)
                })
                .collect();

            // Multi-path routing plane, shared by every node of the
            // virtual channel so the cost model is session-global; it
            // exists when the topology has parallel gateways, i.e. some
            // plan has two or more paths to a destination.
            let parallel = table.nodes().any(|n| table.plan(n).max_width() >= 2);
            let mp = parallel.then(|| {
                let mp = Arc::new(MultiPath::new(table));
                mp.set_trace(runtime.tracer(), &vdef.name);
                mp
            });

            // Telemetry planes: one per member node, answering in-band
            // kind-10 pulls on the channel's special conduits and feeding
            // the node's live gauges.
            if vdef.options.metrics.is_some() {
                for (&rank, ctl) in &ctls {
                    let registry = node_registries.entry(rank).or_default().clone();
                    let plane = MetricsPlane::new(ctl, registry, runtime.clone());
                    if let Some(mp) = &mp {
                        plane.register_multipath(mp);
                    }
                    metrics_planes.push(plane.clone());
                    ctl.attach_metrics(plane);
                }
            }

            // Membership planes: one per member node, speaking the
            // kind-11 protocol on the channel's special conduits.
            if vdef.options.membership {
                for ctl in ctls.values() {
                    let plane = MembershipPlane::new(ctl, runtime.clone(), &vdef.name);
                    if let Some(mp) = &mp {
                        plane.register_multipath(mp);
                    }
                    member_planes.push(plane.clone());
                    ctl.attach_membership(plane);
                }
            }

            // Gateway engines.
            for &gw in &gateways {
                let handles = spawn_gateway(
                    gw,
                    &vdef.name,
                    regular_by_node[&gw].clone(),
                    vdef.options.gateway,
                    runtime.clone(),
                    gateway_stop.clone(),
                    ctls[&gw].clone(),
                );
                if let Some(mp) = &mp {
                    mp.register_gateway(gw, handles.stats().clone(), runtime.now_nanos());
                }
                if let Some(plane) = ctls[&gw].metrics() {
                    plane.register_gateway(handles.stats());
                    // The health watchdog beside the engine, on its own
                    // thread, reads the engine's counters through a window
                    // of its own.
                    let wd = Watchdog::new(
                        GatewayWindow::open(handles.stats().clone(), runtime.now_nanos()),
                        mp.clone(),
                        plane.registry(),
                        runtime.tracer(),
                        format!("health:{}@{}", vdef.name, gw.0),
                    );
                    aux_threads.push(ticker::spawn(
                        wd,
                        format!("gw{}-{}-watchdog", gw.0, vdef.name),
                        &runtime,
                        &node_events[gw.index()],
                        &gateway_stop,
                    ));
                }
                gateway_stats.push((vdef.name.clone(), gw, handles.stats().clone()));
                gateway_handles.push(handles);
            }
            if let Some(mp) = &mp {
                route_planes.push(mp.clone());
            }

            // Endpoint responders: on non-gateway members nothing else
            // drains the special conduits between writer pumps, so pull
            // requests, membership events, and replies to this node's own
            // pulls would sit unread. Gateway nodes are served by their
            // engine instead. One responder per node covers both control
            // planes — either may be enabled without the other.
            if vdef.options.metrics.is_some() || vdef.options.membership {
                for (&rank, ctl) in &ctls {
                    if gateways.contains(&rank) {
                        continue;
                    }
                    let ctl = ctl.clone();
                    let stop = gateway_stop.clone();
                    aux_threads.push(runtime.spawn(
                        format!("resp-{}-{}", vdef.name, rank.0),
                        Box::new(move || metrics_plane::run_responder(ctl, stop)),
                    ));
                }
            }

            // Per-node virtual channel objects.
            let mut per_node = HashMap::new();
            for (&rank, regular) in &regular_by_node {
                let flow = vdef.options.gateway.credit_window.map(|w| {
                    FlowControl::new(
                        ctls[&rank].clone(),
                        w,
                        vdef.options.gateway.credit_timeout_ns,
                    )
                });
                let vc = VirtualChannel::assemble(
                    vdef.name.clone(),
                    regular.clone(),
                    ctls[&rank].clone(),
                    mtu,
                    gateways.contains(&rank),
                    flow,
                    mp.clone(),
                );
                per_node.insert(rank, Arc::new(vc));
            }
            vcs.push((vdef.name.clone(), per_node));
        }

        // Per-rank view of the gateway counters, so application code can
        // poll its own node's forwarding engine mid-run.
        let mut gw_stats_by_rank: HashMap<
            NodeId,
            HashMap<String, Arc<crate::gateway::GatewayStats>>,
        > = HashMap::new();
        for (vc, gw, st) in &gateway_stats {
            gw_stats_by_rank
                .entry(*gw)
                .or_default()
                .insert(vc.clone(), st.clone());
        }

        // Spawn the application on every node.
        let barrier = SessionBarrier::new(&*runtime, n);
        let f = Arc::new(f);
        let results: Arc<Mutex<Vec<Option<T>>>> =
            Arc::new(Mutex::new((0..n).map(|_| None).collect()));
        let mut app_threads = Vec::new();
        for rank in 0..n {
            let rank = NodeId(rank as u32);
            let channels: HashMap<String, Arc<Channel>> = plain
                .iter()
                .filter_map(|(name, map)| map.get(&rank).map(|c| (name.clone(), c.clone())))
                .collect();
            let vchannels: HashMap<String, Arc<VirtualChannel>> = vcs
                .iter()
                .filter_map(|(name, map)| map.get(&rank).map(|c| (name.clone(), c.clone())))
                .collect();
            let node = Node {
                rank,
                size: self.n_nodes,
                channels,
                vchannels,
                gateway_stats: gw_stats_by_rank.get(&rank).cloned().unwrap_or_default(),
                runtime: runtime.clone(),
                barrier: barrier.clone(),
            };
            let f = f.clone();
            let results = results.clone();
            app_threads.push(runtime.spawn(
                format!("node{}", rank.0),
                Box::new(move || {
                    let out = f(node);
                    results.lock()[rank.index()] = Some(out);
                }),
            ));
        }

        // Release the (possibly virtual) timeline and run to completion.
        drop(guard);
        drop(plain);
        drop(vcs);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for t in app_threads {
            if let Err(e) = t.join() {
                panic.get_or_insert(e);
            }
        }
        // With every application thread done, tell the gateway engines to
        // stop — but only once every in-flight stream has drained, so no
        // already-sent message is lost (two gateways listening on opposite
        // ends of one channel would otherwise keep each other's receive
        // sides open forever). If a node panicked, streams may never
        // complete: force the stop instead of hanging the teardown.
        gateway_stop.request_stop();
        if panic.is_some() {
            gateway_stop.force();
        }
        for ev in &node_events {
            ev.bump();
        }
        for g in gateway_handles {
            g.join();
        }
        // Auxiliary telemetry threads (watchdogs, responders) exit once
        // the stop latch is set and their node event bumps.
        for t in aux_threads {
            if let Err(e) = t.join() {
                panic.get_or_insert(e);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        // Flush the final per-channel and per-gateway counters into the
        // trace, one named track per channel/gateway instance.
        let tracer = runtime.tracer();
        if tracer.enabled() {
            for (label, rank, st) in &channel_stats {
                st.flush_to(&tracer, &format!("ch:{label}@{}", rank.0));
            }
            for (vc, gw, st) in &gateway_stats {
                let t = st.totals();
                let track = format!("gw:{vc}@{}", gw.0);
                tracer.count_on(&track, "gateway", "messages", t.messages as i64, &[]);
                tracer.count_on(&track, "gateway", "fragments", t.fragments as i64, &[]);
                tracer.count_on(
                    &track,
                    "gateway",
                    "fragment_bytes",
                    t.fragment_bytes as i64,
                    &[],
                );
                tracer.count_on(&track, "gateway", "stalls", t.stalls as i64, &[]);
                tracer.count_on(
                    &track,
                    "gateway",
                    "buffer_switches",
                    t.buffer_switches as i64,
                    &[],
                );
                tracer.count_on(
                    &track,
                    "gateway",
                    "credits_granted",
                    t.credits_granted as i64,
                    &[],
                );
                tracer.count_on(&track, "gateway", "grants_sent", t.grants_sent as i64, &[]);
                tracer.count_on(&track, "gateway", "cancelled", t.cancelled as i64, &[]);
                tracer.count_on(
                    &track,
                    "gateway",
                    "credit_timeouts",
                    t.credit_timeouts as i64,
                    &[],
                );
                tracer.count_on(&track, "gateway", "errors", t.errors as i64, &[]);
                tracer.count_on(&track, "gateway", "peak_held_bytes", t.peak_held_bytes, &[]);
                tracer.count_on(
                    &track,
                    "gateway",
                    "threads_spawned",
                    t.threads_spawned as i64,
                    &[],
                );
                // Copy-placement accounting, on the `rt:` family beside the
                // session's thread count: where the scheduler put relay
                // copies and how busy each stage was.
                let rt = format!("rt:{vc}@{}", gw.0);
                tracer.count_on(&rt, "runtime", "copies_recv", t.copies_recv as i64, &[]);
                tracer.count_on(&rt, "runtime", "copies_flush", t.copies_flush as i64, &[]);
                tracer.count_on(
                    &rt,
                    "runtime",
                    "copy_idle_hits",
                    t.copy_idle_hits as i64,
                    &[],
                );
                tracer.count_on(
                    &rt,
                    "runtime",
                    "recv_busy_ns",
                    st.recv_busy_ns.load(std::sync::atomic::Ordering::Relaxed) as i64,
                    &[],
                );
                tracer.count_on(
                    &rt,
                    "runtime",
                    "flush_busy_ns",
                    st.flush_busy_ns.load(std::sync::atomic::Ordering::Relaxed) as i64,
                    &[],
                );
            }
            // Session-wide thread-budget accounting: how many OS (or sim
            // actor) threads the runtime ever spawned.
            tracer.count_on(
                "rt:session",
                "runtime",
                "threads_spawned",
                runtime.threads_spawned() as i64,
                &[],
            );
            // Routing-plane summary: per-path byte splits plus the
            // selector's switch/failover counters, one `route:` track per
            // multi-path virtual channel.
            for mp in &route_planes {
                mp.flush_trace();
            }
            // Membership totals, one `member:` track per (channel, node)
            // (validated by `trace_check --require-membership`).
            for plane in &member_planes {
                plane.flush_trace();
            }
            // Final live-registry snapshot of every telemetry-enabled
            // node, one `metrics:` track each (validated by `trace_check
            // --require-metrics`).
            for plane in &metrics_planes {
                plane.refresh_live();
            }
            let mut regs: Vec<_> = node_registries.iter().collect();
            regs.sort_by_key(|(rank, _)| rank.0);
            for (rank, reg) in regs {
                metrics_plane::flush_snapshot_to_trace(
                    &reg.snapshot(),
                    &tracer,
                    &format!("metrics:node{}", rank.0),
                );
            }
            // Session-wide buffer-pool counters: `misses` is the number of
            // real heap allocations behind every staging/landing/control
            // buffer — a warmed-up fault-free run keeps it flat while
            // `gets` grows with traffic (the zero-alloc-per-fragment
            // property the soak test asserts).
            let p = runtime.pool().stats();
            tracer.count_on("pool", "pool", "gets", p.gets as i64, &[]);
            tracer.count_on("pool", "pool", "hits", p.hits as i64, &[]);
            tracer.count_on("pool", "pool", "misses", p.misses as i64, &[]);
            tracer.count_on("pool", "pool", "recycled", p.recycled as i64, &[]);
            tracer.count_on("pool", "pool", "discarded", p.discarded as i64, &[]);
        }
        let mut res = results.lock();
        let out = res
            .iter_mut()
            .map(|r| r.take().expect("node result recorded"))
            .collect();
        (out, gateway_stats)
    }
}

/// One node's view of the running session, handed to the application
/// closure.
pub struct Node {
    rank: NodeId,
    size: u32,
    channels: HashMap<String, Arc<Channel>>,
    vchannels: HashMap<String, Arc<VirtualChannel>>,
    gateway_stats: HashMap<String, Arc<crate::gateway::GatewayStats>>,
    runtime: Arc<dyn Runtime>,
    barrier: SessionBarrier,
}

impl Node {
    /// This node's rank.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// Number of nodes in the session.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// A plain channel this node belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the channel does not exist or this node is not a member —
    /// a configuration bug worth failing loudly on.
    pub fn channel(&self, name: &str) -> &Arc<Channel> {
        self.channels
            .get(name)
            .unwrap_or_else(|| panic!("node {} has no channel `{name}`", self.rank))
    }

    /// A virtual channel this node belongs to (same panic contract).
    pub fn vchannel(&self, name: &str) -> &Arc<VirtualChannel> {
        self.vchannels
            .get(name)
            .unwrap_or_else(|| panic!("node {} has no virtual channel `{name}`", self.rank))
    }

    /// True if this node is attached to the named virtual channel.
    pub fn has_vchannel(&self, name: &str) -> bool {
        self.vchannels.contains_key(name)
    }

    /// The forwarding counters of this node's gateway engine for the
    /// named virtual channel, if this node is one of its gateways. The
    /// counters are live: `GatewayStats::totals` is a cheap mid-run
    /// snapshot.
    pub fn gateway_stats(&self, vc: &str) -> Option<&Arc<crate::gateway::GatewayStats>> {
        self.gateway_stats.get(vc)
    }

    /// The session runtime (timestamps, cost accounting).
    pub fn runtime(&self) -> &Arc<dyn Runtime> {
        &self.runtime
    }

    /// The session-wide barrier.
    pub fn barrier(&self) -> &SessionBarrier {
        &self.barrier
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("channels", &self.channels.keys().collect::<Vec<_>>())
            .field("vchannels", &self.vchannels.keys().collect::<Vec<_>>())
            .finish()
    }
}
