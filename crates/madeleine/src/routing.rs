//! Route lookup for virtual channels (paper §2.2.2).
//!
//! A virtual channel spans several networks; nodes attached to more than
//! one of them are gateways. Routes are minimum-hop paths over the
//! bipartite node↔network graph with deterministic tie-breaking (lowest
//! network id, then lowest node rank), so every node in the session
//! derives the same next-hop tables and multi-gateway forwarding chains
//! compose correctly. The search itself lives in [`mad_route`] — the one
//! router of the workspace; a [`RouteTable`] is the single-path view of a
//! node's [`mad_route::RoutePlan`] (its `primary` hop per destination).

use std::collections::BTreeMap;

use mad_route::{NetworkDecl, RoutePlan};

use crate::error::{MadError, Result};
use crate::types::{NetworkId, NodeId};

/// Declaration of one network's membership within a virtual channel.
#[derive(Debug, Clone)]
pub struct NetworkMembers {
    /// The network.
    pub net: NetworkId,
    /// Ranks attached to it.
    pub members: Vec<NodeId>,
}

/// The topology in `mad_route`'s raw-id form.
pub(crate) fn decls(networks: &[NetworkMembers]) -> Vec<NetworkDecl> {
    networks
        .iter()
        .map(|nm| NetworkDecl {
            net: nm.net.0,
            members: nm.members.iter().map(|m| m.0).collect(),
        })
        .collect()
}

/// The first hop toward a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Network to send on.
    pub net: NetworkId,
    /// Node to send to: the destination itself, or a gateway.
    pub node: NodeId,
    /// True if `node` is the final destination (direct delivery).
    pub last: bool,
}

/// Per-source routing table over one virtual channel: for every reachable
/// destination the *first* edge of a minimum-hop path. Gateways hold the
/// table computed for their own rank, so a message progresses hop by hop
/// along consistent shortest paths.
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    plan: RoutePlan,
}

impl RouteTable {
    /// `src`'s routing table over the given networks.
    pub fn compute(networks: &[NetworkMembers], src: NodeId) -> RouteTable {
        RouteTable {
            plan: mad_route::compute_plan(&decls(networks), src.0),
        }
    }

    /// The first hop toward `dest`, if reachable.
    pub fn hop(&self, dest: NodeId) -> Result<Hop> {
        self.plan
            .primary(dest.0)
            .map(|h| Hop {
                net: NetworkId(h.net),
                node: NodeId(h.node),
                last: h.last,
            })
            .ok_or(MadError::Unroutable(dest))
    }

    /// Destinations reachable from this source (excluding itself).
    pub fn destinations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.plan.destinations().map(NodeId)
    }

    /// Number of reachable destinations.
    pub fn len(&self) -> usize {
        self.plan.destinations().count()
    }

    /// True if nothing is reachable.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The set of gateway ranks of a virtual channel: nodes attached to at
/// least two of its networks, in rank order.
pub fn gateways(networks: &[NetworkMembers]) -> Vec<NodeId> {
    let mut count: BTreeMap<NodeId, usize> = BTreeMap::new();
    for nm in networks {
        let mut seen = nm.members.clone();
        seen.sort_unstable();
        seen.dedup();
        for n in seen {
            *count.entry(n).or_default() += 1;
        }
    }
    count
        .into_iter()
        .filter_map(|(n, c)| (c >= 2).then_some(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nm(net: u32, members: &[u32]) -> NetworkMembers {
        NetworkMembers {
            net: NetworkId(net),
            members: members.iter().map(|&m| NodeId(m)).collect(),
        }
    }

    #[test]
    fn direct_route_on_shared_network() {
        let nets = [nm(0, &[0, 1, 2])];
        let t = RouteTable::compute(&nets, NodeId(0));
        assert_eq!(
            t.hop(NodeId(2)).unwrap(),
            Hop {
                net: NetworkId(0),
                node: NodeId(2),
                last: true
            }
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn one_gateway_route() {
        // net0: {0,1,2}; net1: {2,3,4}; 2 is the gateway.
        let nets = [nm(0, &[0, 1, 2]), nm(1, &[2, 3, 4])];
        let t = RouteTable::compute(&nets, NodeId(0));
        let hop = t.hop(NodeId(4)).unwrap();
        assert_eq!(
            hop,
            Hop {
                net: NetworkId(0),
                node: NodeId(2),
                last: false
            }
        );
        // The gateway's own table delivers directly.
        let tg = RouteTable::compute(&nets, NodeId(2));
        assert_eq!(
            tg.hop(NodeId(4)).unwrap(),
            Hop {
                net: NetworkId(1),
                node: NodeId(4),
                last: true
            }
        );
    }

    #[test]
    fn two_gateway_chain() {
        // net0: {0,1}; net1: {1,2}; net2: {2,3} — 0→3 crosses gateways 1,2.
        let nets = [nm(0, &[0, 1]), nm(1, &[1, 2]), nm(2, &[2, 3])];
        let t0 = RouteTable::compute(&nets, NodeId(0));
        assert_eq!(
            t0.hop(NodeId(3)).unwrap(),
            Hop {
                net: NetworkId(0),
                node: NodeId(1),
                last: false
            }
        );
        let t1 = RouteTable::compute(&nets, NodeId(1));
        assert_eq!(
            t1.hop(NodeId(3)).unwrap(),
            Hop {
                net: NetworkId(1),
                node: NodeId(2),
                last: false
            }
        );
        let t2 = RouteTable::compute(&nets, NodeId(2));
        assert_eq!(
            t2.hop(NodeId(3)).unwrap(),
            Hop {
                net: NetworkId(2),
                node: NodeId(3),
                last: true
            }
        );
    }

    #[test]
    fn unreachable_is_an_error() {
        let nets = [nm(0, &[0, 1]), nm(1, &[2, 3])];
        let t = RouteTable::compute(&nets, NodeId(0));
        assert_eq!(t.hop(NodeId(2)), Err(MadError::Unroutable(NodeId(2))));
        assert!(t.hop(NodeId(1)).is_ok());
    }

    #[test]
    fn prefers_direct_over_gateway() {
        // Both on net0 and also connected via a 2-hop path; direct wins.
        let nets = [nm(0, &[0, 1]), nm(1, &[0, 2]), nm(2, &[2, 1])];
        let t = RouteTable::compute(&nets, NodeId(0));
        let hop = t.hop(NodeId(1)).unwrap();
        assert!(hop.last);
        assert_eq!(hop.net, NetworkId(0));
    }

    #[test]
    fn deterministic_tie_break_lowest_network() {
        // Two parallel networks both containing {0,1}: net0 chosen.
        let nets = [nm(1, &[0, 1]), nm(0, &[0, 1])];
        let t = RouteTable::compute(&nets, NodeId(0));
        assert_eq!(t.hop(NodeId(1)).unwrap().net, NetworkId(0));
    }

    #[test]
    fn gateway_detection() {
        let nets = [nm(0, &[0, 1, 2]), nm(1, &[2, 3]), nm(2, &[3, 4])];
        assert_eq!(gateways(&nets), vec![NodeId(2), NodeId(3)]);
        // A node listed twice in one network is not thereby a gateway.
        let nets2 = [nm(0, &[0, 0, 1])];
        assert!(gateways(&nets2).is_empty());
    }
}
