//! Shortest-path routing over the switch graph.
//!
//! Deterministic Dijkstra (latency-weighted, lowest-id tie-break) plus
//! equal-cost path enumeration for the load-balancing scenario of paper
//! Fig. 3.

use crate::topology::Topology;
use simnet::time::SimDuration;
use southbound::types::{HostId, SwitchId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A host-to-host route: the switch path, `path[0]` being the source ToR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Ordered switch path from source ToR to destination ToR (inclusive).
    pub path: Vec<SwitchId>,
    /// Total propagation latency along the path (switch hops only).
    pub latency: SimDuration,
}

impl Route {
    /// Number of switch hops (edges between switches).
    pub fn hop_count(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// An undirected link key, normalized so `(a, b) == (b, a)`.
pub fn link_key(a: SwitchId, b: SwitchId) -> (SwitchId, SwitchId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Dijkstra from `src` over the switch graph, skipping `avoid`ed links;
/// returns per-switch `(cost, predecessor)`.
fn dijkstra(
    topo: &Topology,
    src: SwitchId,
    avoid: &std::collections::BTreeSet<(SwitchId, SwitchId)>,
) -> BTreeMap<SwitchId, (u64, Option<SwitchId>)> {
    let mut best: BTreeMap<SwitchId, (u64, Option<SwitchId>)> = BTreeMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, SwitchId, Option<SwitchId>)>> = BinaryHeap::new();
    heap.push(Reverse((0, src, None)));
    while let Some(Reverse((cost, node, pred))) = heap.pop() {
        // Accept strictly better cost, or equal cost with a lower
        // predecessor id (deterministic tie-break across replicas).
        let better = match best.get(&node) {
            None => true,
            Some(&(c, p)) => cost < c || (cost == c && pred < p),
        };
        if !better {
            continue;
        }
        best.insert(node, (cost, pred));
        for (next, lat) in topo.neighbours(node) {
            if avoid.contains(&link_key(node, next)) {
                continue;
            }
            let ncost = cost + lat.as_nanos();
            let better = match best.get(&next) {
                None => true,
                Some(&(c, p)) => ncost < c || (ncost == c && Some(node) < p),
            };
            if better {
                heap.push(Reverse((ncost, next, Some(node))));
            }
        }
    }
    best
}

/// Computes the shortest switch path between two switches.
///
/// Returns `None` if disconnected. Tie-breaking is deterministic (lowest
/// predecessor id), so every controller replica computes the identical path —
/// a requirement for the replicated control plane to agree on updates.
pub fn shortest_switch_path(
    topo: &Topology,
    from: SwitchId,
    to: SwitchId,
) -> Option<(Vec<SwitchId>, SimDuration)> {
    shortest_switch_path_avoiding(topo, from, to, &std::collections::BTreeSet::new())
}

/// As [`shortest_switch_path`], but treating the `avoid`ed (undirected)
/// links as failed — the primitive behind link-failure rerouting
/// (paper Fig. 2).
pub fn shortest_switch_path_avoiding(
    topo: &Topology,
    from: SwitchId,
    to: SwitchId,
    avoid: &std::collections::BTreeSet<(SwitchId, SwitchId)>,
) -> Option<(Vec<SwitchId>, SimDuration)> {
    if from == to {
        return Some((vec![from], SimDuration::ZERO));
    }
    let best = dijkstra(topo, from, avoid);
    let &(cost, _) = best.get(&to)?;
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        let (_, pred) = best[&cur];
        cur = pred.expect("non-source nodes have predecessors");
        path.push(cur);
    }
    path.reverse();
    Some((path, SimDuration::from_nanos(cost)))
}

/// Computes the route between two hosts (via their ToR switches).
///
/// Returns `None` for unknown hosts or a partitioned fabric.
pub fn route(topo: &Topology, src: HostId, dst: HostId) -> Option<Route> {
    route_avoiding(topo, src, dst, &std::collections::BTreeSet::new())
}

/// As [`route`], but avoiding failed links.
pub fn route_avoiding(
    topo: &Topology,
    src: HostId,
    dst: HostId,
    avoid: &std::collections::BTreeSet<(SwitchId, SwitchId)>,
) -> Option<Route> {
    let s = topo.host(src)?;
    let d = topo.host(dst)?;
    let (path, latency) = shortest_switch_path_avoiding(topo, s.attached, d.attached, avoid)?;
    Some(Route {
        src,
        dst,
        path,
        latency,
    })
}

/// Enumerates all equal-cost shortest switch paths between two switches (up
/// to `limit` paths), for multipath load balancing.
pub fn equal_cost_paths(
    topo: &Topology,
    from: SwitchId,
    to: SwitchId,
    limit: usize,
) -> Vec<Vec<SwitchId>> {
    let Some((_, best_cost)) = shortest_switch_path(topo, from, to) else {
        return Vec::new();
    };
    let best_cost = best_cost.as_nanos();
    // DFS with cost pruning; graph diameters here are tiny.
    let mut out = Vec::new();
    let mut stack = vec![(from, vec![from], 0u64)];
    while let Some((node, path, cost)) = stack.pop() {
        if out.len() >= limit {
            break;
        }
        if node == to {
            if cost == best_cost {
                out.push(path);
            }
            continue;
        }
        for (next, lat) in topo.neighbours(node).into_iter().rev() {
            let ncost = cost + lat.as_nanos();
            if ncost > best_cost || path.contains(&next) {
                continue;
            }
            let mut npath = path.clone();
            npath.push(next);
            stack.push((next, npath, ncost));
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Location, SwitchRole, Topology};
    use southbound::types::SwitchId as S;

    fn diamond() -> Topology {
        // s0 - s1 - s3,  s0 - s2 - s3 (equal cost), plus slow direct s0 - s3.
        let mut t = Topology::empty();
        let loc = Location {
            dc: 0,
            pod: 0,
            rack: 0,
        };
        for i in 0..4 {
            t.add_switch(S(i), SwitchRole::TopOfRack, loc);
        }
        let fast = SimDuration::from_micros(10);
        t.add_link(S(0), S(1), fast, 100);
        t.add_link(S(1), S(3), fast, 100);
        t.add_link(S(0), S(2), fast, 100);
        t.add_link(S(2), S(3), fast, 100);
        t.add_link(S(0), S(3), SimDuration::from_micros(100), 100);
        t.add_host(HostId(0), S(0));
        t.add_host(HostId(1), S(3));
        t
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let t = diamond();
        let (path, lat) = shortest_switch_path(&t, S(0), S(3)).unwrap();
        assert_eq!(lat.as_micros(), 20);
        assert_eq!(path.len(), 3);
        // Deterministic tie-break picks the lower middle id.
        assert_eq!(path, vec![S(0), S(1), S(3)]);
    }

    #[test]
    fn host_route_spans_tors() {
        let t = diamond();
        let r = route(&t, HostId(0), HostId(1)).unwrap();
        assert_eq!(r.path.first(), Some(&S(0)));
        assert_eq!(r.path.last(), Some(&S(3)));
        assert_eq!(r.hop_count(), 2);
    }

    #[test]
    fn same_switch_route() {
        let t = diamond();
        let (path, lat) = shortest_switch_path(&t, S(1), S(1)).unwrap();
        assert_eq!(path, vec![S(1)]);
        assert_eq!(lat, SimDuration::ZERO);
    }

    #[test]
    fn equal_cost_enumeration() {
        let t = diamond();
        let paths = equal_cost_paths(&t, S(0), S(3), 10);
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&vec![S(0), S(1), S(3)]));
        assert!(paths.contains(&vec![S(0), S(2), S(3)]));
    }

    #[test]
    fn avoiding_a_link_takes_the_detour() {
        let t = diamond();
        let mut avoid = std::collections::BTreeSet::new();
        avoid.insert(link_key(S(1), S(3)));
        let (path, _) = shortest_switch_path_avoiding(&t, S(0), S(3), &avoid).unwrap();
        assert_eq!(path, vec![S(0), S(2), S(3)], "detour around the failed link");
        // Failing both fast paths falls back to the slow direct link.
        avoid.insert(link_key(S(2), S(3)));
        let (path, lat) = shortest_switch_path_avoiding(&t, S(0), S(3), &avoid).unwrap();
        assert_eq!(path, vec![S(0), S(3)]);
        assert_eq!(lat.as_micros(), 100);
        // Failing everything disconnects.
        avoid.insert(link_key(S(0), S(3)));
        avoid.insert(link_key(S(0), S(1)));
        avoid.insert(link_key(S(0), S(2)));
        assert!(shortest_switch_path_avoiding(&t, S(0), S(3), &avoid).is_none());
    }

    #[test]
    fn link_key_is_symmetric() {
        assert_eq!(link_key(S(5), S(2)), link_key(S(2), S(5)));
    }

    #[test]
    fn disconnected_returns_none() {
        let mut t = diamond();
        let loc = Location {
            dc: 9,
            pod: 0,
            rack: 0,
        };
        t.add_switch(S(99), SwitchRole::TopOfRack, loc);
        assert!(shortest_switch_path(&t, S(0), S(99)).is_none());
    }

    #[test]
    fn pod_routes_are_two_hops_max_three_switches() {
        let t = Topology::single_pod(8, 4, 2);
        let hosts = t.hosts();
        let r = route(&t, hosts[0].id, hosts.last().unwrap().id).unwrap();
        // ToR -> edge -> ToR.
        assert_eq!(r.path.len(), 3);
    }

    #[test]
    fn replicas_compute_identical_paths() {
        let t = Topology::multi_pod(2, 6, 4, 2, 2);
        let hosts = t.hosts();
        let a = route(&t, hosts[0].id, hosts.last().unwrap().id).unwrap();
        for _ in 0..5 {
            let b = route(&t, hosts[0].id, hosts.last().unwrap().id).unwrap();
            assert_eq!(a, b);
        }
    }
}
