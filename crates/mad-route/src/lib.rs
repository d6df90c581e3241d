//! mad-route: a routing plane for multi-path gateway fabrics.
//!
//! The paper's flagged open problem is the relay host itself: one gateway's
//! internal bus carries every inter-cluster byte, so bidirectional flows
//! keep only ~63–65 % of one-way bandwidth and chains inherit the worst
//! link. This crate attacks the bottleneck with *path count* instead of a
//! hotter box: a session declares several parallel gateways between
//! cluster pairs, and traffic spreads across them.
//!
//! The crate is deliberately policy-only — plain graph + cost-model code
//! over `u32` network/node ids, with no knowledge of channels, packets or
//! threads — so the transport layer (`madeleine`) owns all I/O and this
//! layer stays trivially unit-testable.
//!
//! Two pieces:
//!
//! * [`RoutePlan`] / [`RoutingTable`] — per-source multi-path first-hop
//!   tables computed from the session topology. `paths(dest)[0]` is
//!   **byte-for-byte the hop the legacy single-path BFS would pick** (same
//!   algorithm, same tie-breaks), so a one-path plan reproduces existing
//!   behavior exactly; the remaining entries are every other minimum-hop
//!   first edge, in deterministic `(net, node)` order.
//! * [`Selector`] — the adaptive cost model. Live gateway snapshots
//!   (occupancy, stall and throughput *rates*, not lifetime counters) are
//!   folded into an EWMA per-gateway cost; `choose` picks the live path
//!   where a new stream would finish soonest — the cost scales the
//!   gateway's in-flight stream count, it does not compete with it — with
//!   deterministic round-robin tie-breaking, and a dead-set drives
//!   failover.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;

/// One network's membership within a virtual channel (ids are the session's
/// `NetworkId`/`NodeId` raw values).
#[derive(Debug, Clone)]
pub struct NetworkDecl {
    /// Network id.
    pub net: u32,
    /// Ranks attached to it.
    pub members: Vec<u32>,
}

/// The first edge of one minimum-hop path toward a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathHop {
    /// Network to send on.
    pub net: u32,
    /// Node to send to: the destination itself, or a gateway.
    pub node: u32,
    /// True if `node` is the final destination (direct delivery).
    pub last: bool,
}

/// Per-source multi-path routing plan: for every reachable destination,
/// all first edges of minimum-hop paths.
///
/// Invariants: `paths(dest)` is non-empty for reachable destinations,
/// contains no duplicate `(net, node)` edges, every entry starts a path of
/// the same (minimum) length, and `paths(dest)[0]` equals the hop the
/// legacy single-path breadth-first search returns (kept as the reference
/// oracle in `tests/prop_model.rs`) — the anchor that keeps one-path
/// plans byte-identical to the pre-multipath library.
#[derive(Debug, Clone, Default)]
pub struct RoutePlan {
    paths: BTreeMap<u32, Vec<PathHop>>,
}

impl RoutePlan {
    /// All minimum-hop first edges toward `dest` (empty if unreachable).
    /// The first entry is the legacy single-path hop.
    pub fn paths(&self, dest: u32) -> &[PathHop] {
        self.paths.get(&dest).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The legacy (single-path) hop toward `dest`.
    pub fn primary(&self, dest: u32) -> Option<PathHop> {
        self.paths(dest).first().copied()
    }

    /// Number of parallel paths toward `dest`.
    pub fn width(&self, dest: u32) -> usize {
        self.paths(dest).len()
    }

    /// Maximum path count over all destinations (1 for a single-gateway
    /// topology).
    pub fn max_width(&self) -> usize {
        self.paths.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Reachable destinations, ascending.
    pub fn destinations(&self) -> impl Iterator<Item = u32> + '_ {
        self.paths.keys().copied()
    }
}

/// Routing plans for every node of the session.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    plans: BTreeMap<u32, RoutePlan>,
}

impl RoutingTable {
    /// The plan computed for `src` (empty plan if `src` is isolated).
    pub fn plan(&self, src: u32) -> &RoutePlan {
        static EMPTY: RoutePlan = RoutePlan {
            paths: BTreeMap::new(),
        };
        self.plans.get(&src).unwrap_or(&EMPTY)
    }

    /// Nodes with a computed plan, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.plans.keys().copied()
    }
}

struct Graph {
    nets_of: BTreeMap<u32, Vec<u32>>,
    members_of: BTreeMap<u32, Vec<u32>>,
}

impl Graph {
    fn build(networks: &[NetworkDecl]) -> Graph {
        let mut nets_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut members_of: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for nm in networks {
            let mut members = nm.members.clone();
            members.sort_unstable();
            members.dedup();
            for &n in &members {
                nets_of.entry(n).or_default().push(nm.net);
            }
            members_of.insert(nm.net, members);
        }
        for nets in nets_of.values_mut() {
            nets.sort_unstable();
            nets.dedup();
        }
        Graph {
            nets_of,
            members_of,
        }
    }

    /// BFS distances and legacy first hops from `src` — the *same*
    /// traversal order as the transport's single-path router: networks of
    /// a node ascending, members of a network ascending, queue FIFO.
    fn bfs(&self, src: u32) -> (BTreeMap<u32, u32>, BTreeMap<u32, PathHop>) {
        let mut dist: BTreeMap<u32, u32> = BTreeMap::new();
        let mut first_hop: BTreeMap<u32, PathHop> = BTreeMap::new();
        let mut queue = VecDeque::new();
        dist.insert(src, 0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            let Some(nets) = self.nets_of.get(&u) else {
                continue;
            };
            for &net in nets {
                for &v in &self.members_of[&net] {
                    if v == u || dist.contains_key(&v) {
                        continue;
                    }
                    dist.insert(v, du + 1);
                    let hop = if u == src {
                        PathHop {
                            net,
                            node: v,
                            last: true,
                        }
                    } else {
                        let mut h = first_hop[&u];
                        h.last = false;
                        h
                    };
                    first_hop.insert(v, hop);
                    queue.push_back(v);
                }
            }
        }
        for (dest, hop) in first_hop.iter_mut() {
            hop.last = dist[dest] == 1;
        }
        (dist, first_hop)
    }
}

/// Compute `src`'s multi-path plan over the given networks.
///
/// For every reachable destination: the legacy BFS hop first, then every
/// other first edge that starts a path of the same minimum length —
/// for distance-1 destinations the other directly shared networks, for
/// farther ones every other adjacent gateway `g` with
/// `1 + dist(g, dest) == dist(src, dest)` (via the lowest network shared
/// with `src`), ordered by `(net, node)`.
pub fn compute_plan(networks: &[NetworkDecl], src: u32) -> RoutePlan {
    let g = Graph::build(networks);
    let (dist, legacy) = g.bfs(src);

    // Direct neighbors of src and the sorted (net, neighbor) edge list.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    if let Some(nets) = g.nets_of.get(&src) {
        for &net in nets {
            for &v in &g.members_of[&net] {
                if v != src {
                    edges.push((net, v));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    // Distance maps from each distinct neighbor (gateway candidates).
    let mut neigh_dist: BTreeMap<u32, BTreeMap<u32, u32>> = BTreeMap::new();
    for &(_, v) in &edges {
        neigh_dist.entry(v).or_insert_with(|| g.bfs(v).0);
    }

    let mut plan = RoutePlan::default();
    for (&dest, &d) in &dist {
        if dest == src {
            continue;
        }
        let primary = legacy[&dest];
        let mut alts: Vec<PathHop> = Vec::new();
        if d == 1 {
            // Every directly shared network is a parallel path.
            for &(net, v) in &edges {
                if v == dest {
                    alts.push(PathHop {
                        net,
                        node: v,
                        last: true,
                    });
                }
            }
        } else {
            // Every adjacent node continuing a minimum-hop path, entered
            // via the lowest shared network (one path per gateway host:
            // parallel wires into the same relay share its internal bus,
            // which is the very bottleneck multipath works around).
            for (&v, dv) in &neigh_dist {
                if dv.get(&dest) == Some(&(d - 1)) {
                    let net = edges.iter().find(|&&(_, w)| w == v).map(|&(n, _)| n);
                    if let Some(net) = net {
                        alts.push(PathHop {
                            net,
                            node: v,
                            last: false,
                        });
                    }
                }
            }
            alts.sort_unstable_by_key(|h| (h.net, h.node));
        }
        let mut paths = vec![primary];
        paths.extend(alts.into_iter().filter(|&h| h != primary));
        plan.paths.insert(dest, paths);
    }
    plan
}

/// Compute the plans of every node appearing in the topology.
pub fn compute_table(networks: &[NetworkDecl]) -> RoutingTable {
    let mut nodes: BTreeSet<u32> = BTreeSet::new();
    for nm in networks {
        nodes.extend(nm.members.iter().copied());
    }
    RoutingTable {
        plans: nodes
            .into_iter()
            .map(|n| (n, compute_plan(networks, n)))
            .collect(),
    }
}

/// The gateway ranks of a topology: nodes attached to at least two of its
/// networks, ascending. A node listed twice in one network is not thereby
/// a gateway.
pub fn gateways(networks: &[NetworkDecl]) -> Vec<u32> {
    Graph::build(networks)
        .nets_of
        .into_iter()
        .filter_map(|(n, nets)| (nets.len() >= 2).then_some(n))
        .collect()
}

// ------------------------------------------------------------ cost model

/// One gateway's load over the last observation window — *rates*, not
/// lifetime totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatewayLoad {
    /// Pipeline stalls per second (writer waited for a free buffer).
    pub stall_rate: f64,
    /// Payload bytes currently held in the forwarding pipeline.
    pub occupancy_bytes: f64,
    /// Forwarded payload bytes per second.
    pub bytes_per_sec: f64,
}

impl GatewayLoad {
    /// Scalar congestion cost; occupancy is normalized so that 256 KiB of
    /// queued payload costs as much as one stall per second.
    fn cost(&self) -> f64 {
        self.stall_rate + self.occupancy_bytes / (256.0 * 1024.0)
    }
}

/// EWMA smoothing factor for fed gateway costs.
const EWMA_ALPHA: f64 = 0.5;
/// Costs within this margin are ties, resolved round-robin.
const TIE_EPSILON: f64 = 1e-9;

#[derive(Default)]
struct SelectorState {
    cost: BTreeMap<u32, f64>,
    inflight: BTreeMap<u32, u32>,
    dead: BTreeSet<u32>,
    last_pick: BTreeMap<u32, u32>,
    rr: BTreeMap<u32, usize>,
    /// Highest membership epoch (incarnation) observed per node.
    epoch: BTreeMap<u32, u64>,
    switches: u64,
    failovers: u64,
    deaths: u64,
    readmissions: u64,
}

/// Counter snapshot of the selector's routing decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectorCounters {
    /// Times a destination's chosen path differed from the previous pick.
    pub switches: u64,
    /// Streams re-issued on a surviving path after a gateway died.
    pub failovers: u64,
    /// Gateways retired from the live set (first `mark_dead` per node).
    /// A death with zero failovers means every affected stream was caught
    /// at its header send, before any payload needed replaying.
    pub deaths: u64,
    /// Retired gateways returned to the live set (rejoin at a higher
    /// epoch, or an explicit [`Selector::readmit`]).
    pub readmissions: u64,
}

impl SelectorCounters {
    /// Every counter with its trace event name, in one place.
    pub fn named(&self) -> [(&'static str, u64); 4] {
        [
            ("switches", self.switches),
            ("failovers", self.failovers),
            ("deaths", self.deaths),
            ("readmissions", self.readmissions),
        ]
    }
}

/// What [`Selector::observe_epoch`] concluded about an epoch observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochObservation {
    /// The epoch advanced and the node was dead: it is readmitted to the
    /// live set with a reset cost.
    Readmitted,
    /// The epoch advanced (new incarnation) for a node that was not
    /// retired.
    Advanced,
    /// Same epoch as already known — nothing to do.
    Unchanged,
    /// The epoch is *older* than the recorded incarnation: the packet or
    /// event carrying it is from a dead incarnation and must be dropped.
    Stale,
}

/// Adaptive, failure-aware path selection. Thread-safe; every decision is
/// deterministic given the sequence of `feed`/`mark_dead` calls.
#[derive(Default)]
pub struct Selector {
    state: Mutex<SelectorState>,
}

impl Selector {
    /// A fresh selector: all gateways cost 0, none dead.
    pub fn new() -> Selector {
        Selector::default()
    }

    /// Fold one observation window of `node`'s load into its EWMA cost.
    pub fn feed(&self, node: u32, load: GatewayLoad) {
        let mut st = self.lock();
        let prev = st.cost.get(&node).copied().unwrap_or(0.0);
        st.cost
            .insert(node, prev * (1.0 - EWMA_ALPHA) + load.cost() * EWMA_ALPHA);
    }

    /// Mark `node`'s host dead (failover trigger). Returns true the first
    /// time.
    pub fn mark_dead(&self, node: u32) -> bool {
        let mut st = self.lock();
        let first = st.dead.insert(node);
        if first {
            st.deaths += 1;
        }
        first
    }

    #[cfg(test)]
    fn is_dead(&self, node: u32) -> bool {
        self.lock().dead.contains(&node)
    }

    /// Return a retired node to the live set (the inverse of
    /// [`Selector::mark_dead`]). Its EWMA cost is reset — the pre-death
    /// congestion history says nothing about the revived incarnation.
    /// Returns true if the node was actually dead.
    pub fn readmit(&self, node: u32) -> bool {
        let mut st = self.lock();
        let was_dead = st.dead.remove(&node);
        if was_dead {
            st.cost.insert(node, 0.0);
            st.readmissions += 1;
        }
        was_dead
    }

    /// Fold a membership epoch observation for `node` into the selector.
    /// A *higher* epoch than recorded is a new incarnation: it readmits a
    /// retired node (reset cost) and advances the recorded epoch. A
    /// *lower* epoch is stale — the caller must drop whatever carried it.
    pub fn observe_epoch(&self, node: u32, epoch: u64) -> EpochObservation {
        let mut st = self.lock();
        let known = st.epoch.get(&node).copied().unwrap_or(0);
        if epoch < known {
            return EpochObservation::Stale;
        }
        st.epoch.insert(node, epoch);
        if epoch == known {
            return EpochObservation::Unchanged;
        }
        if st.dead.remove(&node) {
            st.cost.insert(node, 0.0);
            st.readmissions += 1;
            EpochObservation::Readmitted
        } else {
            EpochObservation::Advanced
        }
    }

    /// The highest membership epoch observed for `node` (0 if never fed).
    pub fn epoch(&self, node: u32) -> u64 {
        self.lock().epoch.get(&node).copied().unwrap_or(0)
    }

    /// Count one stream re-issued on a surviving path.
    pub fn note_failover(&self) {
        self.lock().failovers += 1;
    }

    /// Pick a path for a new stream toward `dest`, skipping dead gateways
    /// and any in `exclude` (already-failed attempts of this stream).
    /// Lowest `(1 + EWMA cost) x (1 + in-flight streams)` wins; ties rotate
    /// round-robin per destination. Bumps the winner's in-flight count —
    /// pair with [`Selector::complete`].
    pub fn choose(&self, dest: u32, paths: &[PathHop], exclude: &[u32]) -> Option<PathHop> {
        let mut st = self.lock();
        let live: Vec<PathHop> = paths
            .iter()
            .filter(|h| !st.dead.contains(&h.node) && !exclude.contains(&h.node))
            .copied()
            .collect();
        if live.is_empty() {
            return None;
        }
        // A stream bound to `h` shares the gateway with the `inflight`
        // streams already there, and each of them runs `1 + cost` times
        // slower than on an idle gateway: the product estimates when the
        // new stream would finish. In-flight counts are exact and current;
        // costs are a window old and noisy, so they must outweigh a whole
        // stream's share (2x against one in flight, 1.5x against two)
        // before they overrule the count.
        let score = |st: &SelectorState, h: &PathHop| {
            (1.0 + st.cost.get(&h.node).copied().unwrap_or(0.0))
                * (1.0 + st.inflight.get(&h.node).copied().unwrap_or(0) as f64)
        };
        let best = live
            .iter()
            .map(|h| score(&st, h))
            .fold(f64::INFINITY, f64::min);
        let tied: Vec<PathHop> = live
            .iter()
            .filter(|h| score(&st, h) <= best + TIE_EPSILON)
            .copied()
            .collect();
        let cursor = st.rr.entry(dest).or_insert(0);
        let pick = tied[*cursor % tied.len()];
        *cursor = cursor.wrapping_add(1);
        *st.inflight.entry(pick.node).or_insert(0) += 1;
        if let Some(&prev) = st.last_pick.get(&dest) {
            if prev != pick.node {
                st.switches += 1;
            }
        }
        st.last_pick.insert(dest, pick.node);
        Some(pick)
    }

    /// A stream bound to `node` finished (or failed): release its
    /// in-flight slot.
    pub fn complete(&self, node: u32) {
        let mut st = self.lock();
        if let Some(c) = st.inflight.get_mut(&node) {
            *c = c.saturating_sub(1);
        }
    }

    /// Routing-decision counters (for the `route:` trace track).
    pub fn counters(&self) -> SelectorCounters {
        let st = self.lock();
        SelectorCounters {
            switches: st.switches,
            failovers: st.failovers,
            deaths: st.deaths,
            readmissions: st.readmissions,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SelectorState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(net: u32, members: &[u32]) -> NetworkDecl {
        NetworkDecl {
            net,
            members: members.to_vec(),
        }
    }

    #[test]
    fn single_network_gives_one_direct_path() {
        let plan = compute_plan(&[nm(0, &[0, 1, 2])], 0);
        assert_eq!(
            plan.paths(2),
            &[PathHop {
                net: 0,
                node: 2,
                last: true
            }]
        );
        assert_eq!(plan.width(1), 1);
        assert_eq!(plan.max_width(), 1);
    }

    #[test]
    fn parallel_networks_are_parallel_direct_paths() {
        // Two wires between the same pair: lowest net first (legacy
        // tie-break), both listed.
        let plan = compute_plan(&[nm(1, &[0, 1]), nm(0, &[0, 1])], 0);
        assert_eq!(
            plan.paths(1),
            &[
                PathHop {
                    net: 0,
                    node: 1,
                    last: true
                },
                PathHop {
                    net: 1,
                    node: 1,
                    last: true
                },
            ]
        );
    }

    #[test]
    fn parallel_gateways_fan_out() {
        // net0: {0,1,2,3}; net1: {1,2,3,4} — gateways 1,2,3 all bridge.
        let plan = compute_plan(&[nm(0, &[0, 1, 2, 3]), nm(1, &[1, 2, 3, 4])], 0);
        assert_eq!(
            plan.paths(4),
            &[
                PathHop {
                    net: 0,
                    node: 1,
                    last: false
                },
                PathHop {
                    net: 0,
                    node: 2,
                    last: false
                },
                PathHop {
                    net: 0,
                    node: 3,
                    last: false
                },
            ]
        );
        assert_eq!(plan.width(1), 1); // gateways themselves are direct
        assert_eq!(plan.max_width(), 3);
    }

    #[test]
    fn longer_detours_are_not_paths() {
        // 0 —net0— 1 —net1— 3, and 0 —net0— 2 —net2— 4 —net3— 3:
        // the 3-hop detour via 2 must not appear next to the 2-hop path.
        let nets = [
            nm(0, &[0, 1, 2]),
            nm(1, &[1, 3]),
            nm(2, &[2, 4]),
            nm(3, &[4, 3]),
        ];
        let plan = compute_plan(&nets, 0);
        assert_eq!(
            plan.paths(3),
            &[PathHop {
                net: 0,
                node: 1,
                last: false
            }]
        );
    }

    #[test]
    fn direct_beats_gateway_and_stays_single() {
        // Legacy `prefers_direct_over_gateway`: a directly shared net and
        // a 2-hop alternative — only the direct edge is minimum-hop.
        let nets = [nm(0, &[0, 1]), nm(1, &[0, 2]), nm(2, &[2, 1])];
        let plan = compute_plan(&nets, 0);
        assert_eq!(
            plan.paths(1),
            &[PathHop {
                net: 0,
                node: 1,
                last: true
            }]
        );
    }

    #[test]
    fn table_covers_every_node() {
        let nets = [nm(0, &[0, 1, 2]), nm(1, &[1, 2, 3])];
        let table = compute_table(&nets);
        assert_eq!(table.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(table.plan(3).width(0), 2); // via gateway 1 or 2
        assert_eq!(table.plan(0).primary(3).unwrap().node, 1);
        assert_eq!(gateways(&nets), vec![1, 2]);

        // A two-gateway chain, 0 listed twice in net0: each node's first
        // hop toward 3 is the next gateway along it, then 3 itself.
        let nets = [nm(0, &[0, 0, 1]), nm(1, &[1, 2]), nm(2, &[2, 3])];
        let table = compute_table(&nets);
        let hop = |net, node, last| Some(PathHop { net, node, last });
        assert_eq!(table.plan(0).primary(3), hop(0, 1, false));
        assert_eq!(table.plan(1).primary(3), hop(1, 2, false));
        assert_eq!(table.plan(2).primary(3), hop(2, 3, true));
        assert_eq!(gateways(&nets), vec![1, 2]);

        // Two islands: nothing crosses, and nobody is a gateway.
        let nets = [nm(0, &[0, 1]), nm(1, &[2, 3])];
        let table = compute_table(&nets);
        assert_eq!(table.plan(0).primary(2), None);
        assert!(table.plan(0).paths(2).is_empty());
        assert_eq!(table.plan(0).primary(1), hop(0, 1, true));
        assert!(gateways(&nets).is_empty());
    }

    #[test]
    fn selector_round_robins_equal_paths() {
        let sel = Selector::new();
        let paths = [
            PathHop {
                net: 0,
                node: 1,
                last: false,
            },
            PathHop {
                net: 0,
                node: 2,
                last: false,
            },
        ];
        let a = sel.choose(9, &paths, &[]).unwrap();
        sel.complete(a.node);
        let b = sel.choose(9, &paths, &[]).unwrap();
        sel.complete(b.node);
        assert_ne!(a.node, b.node, "equal-cost paths must alternate");
        assert_eq!(sel.counters().switches, 1);
    }

    #[test]
    fn selector_sheds_load_from_congested_gateway() {
        let sel = Selector::new();
        let paths = [
            PathHop {
                net: 0,
                node: 1,
                last: false,
            },
            PathHop {
                net: 0,
                node: 2,
                last: false,
            },
        ];
        sel.feed(
            1,
            GatewayLoad {
                stall_rate: 50.0,
                occupancy_bytes: 4.0 * 1024.0 * 1024.0,
                bytes_per_sec: 1e6,
            },
        );
        for _ in 0..4 {
            let h = sel.choose(9, &paths, &[]).unwrap();
            assert_eq!(h.node, 2, "congested gateway must shed load");
        }
    }

    #[test]
    fn selector_skips_dead_and_excluded() {
        let sel = Selector::new();
        let paths = [
            PathHop {
                net: 0,
                node: 1,
                last: false,
            },
            PathHop {
                net: 0,
                node: 2,
                last: false,
            },
        ];
        assert!(sel.mark_dead(1));
        assert!(!sel.mark_dead(1), "second mark is not news");
        assert_eq!(sel.choose(9, &paths, &[]).unwrap().node, 2);
        assert_eq!(sel.choose(9, &paths, &[2]), None);
        assert!(sel.is_dead(1) && !sel.is_dead(2));
    }

    #[test]
    fn readmit_revives_a_dead_path_and_resets_cost() {
        let sel = Selector::new();
        let paths = [
            PathHop {
                net: 0,
                node: 1,
                last: false,
            },
            PathHop {
                net: 0,
                node: 2,
                last: false,
            },
        ];
        sel.feed(
            1,
            GatewayLoad {
                stall_rate: 100.0,
                ..Default::default()
            },
        );
        assert!(sel.mark_dead(1));
        assert!(sel.is_dead(1));
        assert!(sel.readmit(1));
        assert!(!sel.readmit(1), "second readmit is not news");
        assert!(!sel.is_dead(1));
        // Cost was reset: node 1 competes again instead of being shunned
        // for its pre-death congestion.
        let picks: Vec<u32> = (0..2)
            .map(|_| sel.choose(9, &paths, &[]).unwrap().node)
            .collect();
        assert!(picks.contains(&1), "readmitted path must win ties again");
        let c = sel.counters();
        assert_eq!((c.deaths, c.readmissions), (1, 1));
    }

    #[test]
    fn epoch_observations_readmit_and_reject_stale() {
        let sel = Selector::new();
        assert_eq!(sel.observe_epoch(3, 1), EpochObservation::Advanced);
        assert_eq!(sel.observe_epoch(3, 1), EpochObservation::Unchanged);
        assert!(sel.mark_dead(3));
        assert_eq!(sel.observe_epoch(3, 2), EpochObservation::Readmitted);
        assert!(!sel.is_dead(3));
        assert_eq!(sel.epoch(3), 2);
        // An echo from the dead incarnation must be flagged for dropping.
        assert_eq!(sel.observe_epoch(3, 1), EpochObservation::Stale);
        assert_eq!(sel.epoch(3), 2, "stale observation must not regress");
        assert_eq!(sel.counters().readmissions, 1);
    }

    #[test]
    fn inflight_penalty_balances_new_streams() {
        let sel = Selector::new();
        let paths = [
            PathHop {
                net: 0,
                node: 1,
                last: false,
            },
            PathHop {
                net: 0,
                node: 2,
                last: false,
            },
        ];
        // Without complete() calls, in-flight counts force alternation.
        let picks: Vec<u32> = (0..4)
            .map(|_| sel.choose(9, &paths, &[]).unwrap().node)
            .collect();
        assert_eq!(picks.iter().filter(|&&n| n == 1).count(), 2);
        assert_eq!(picks.iter().filter(|&&n| n == 2).count(), 2);
    }

    #[test]
    fn noisy_costs_do_not_overrule_inflight_counts() {
        // Four equally loaded gateways whose fed costs differ in the third
        // digit (what A8's fabric reports): streams must spread one per
        // gateway, not pile onto the one that reads a hair cheaper.
        let sel = Selector::new();
        let paths: Vec<PathHop> = (1..=4)
            .map(|node| PathHop {
                net: 0,
                node,
                last: false,
            })
            .collect();
        for (node, stall_rate) in [(1, 88.4), (2, 88.4), (3, 87.9), (4, 88.4)] {
            sel.feed(
                node,
                GatewayLoad {
                    stall_rate,
                    ..Default::default()
                },
            );
        }
        let mut picks: Vec<u32> = (0..4)
            .map(|dest| sel.choose(dest, &paths, &[]).unwrap().node)
            .collect();
        assert_eq!(picks[0], 3, "an idle fabric still prefers the cheapest");
        picks.sort_unstable();
        assert_eq!(picks, [1, 2, 3, 4]);
    }
}
