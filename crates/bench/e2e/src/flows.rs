//! Flow generation for the node workloads: the benchmark owns the inputs,
//! the program only ever sees the resulting `FlowSpec`s.
//!
//! Rules are reused once installed, so a `(src, dst)` pair raises a
//! `PacketIn` (and so does any control-plane work at all) only the first
//! time it is seen. Every generated flow therefore uses a pair of its own.

use netmodel::topology::Topology;
use simnet::time::SimTime;
use southbound::types::{FlowId, FlowMatch, HostId};
use substrate::rng::{Rng, SeedableRng, StdRng};
use workload::gen::FlowSpec;
use workload::spec::LocalityClass;

/// Bytes per flow: small enough that transmission time (80 µs at the
/// default host bandwidth) does not hide the control plane's share.
const FLOW_BYTES: u64 = 1000;

/// Which host pairs a node workload draws its flows from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pairs {
    /// Source and destination in different pods: three domains, five
    /// updates, the cross-domain ordering handshake.
    CrossPod,
    /// Same pod, different racks: one domain, three updates, no handshake.
    IntraPod,
}

/// The match a flow's rules carry: how the `Obs` log names the flow.
pub fn matcher(f: &FlowSpec) -> FlowMatch {
    FlowMatch {
        src: f.src,
        dst: f.dst,
    }
}

/// Every unique `(src, dst)` pair of the class, shuffled by `seed`, as
/// flows numbered from 1. A pure function of `(topo, pairs, seed)`.
pub fn unique_pair_flows(topo: &Topology, pairs: Pairs, seed: u64) -> Vec<FlowSpec> {
    let hosts = topo.hosts();
    let mut all: Vec<(HostId, HostId)> = Vec::new();
    for a in hosts {
        for b in hosts {
            let wanted = match pairs {
                Pairs::CrossPod => a.loc.pod != b.loc.pod,
                Pairs::IntraPod => a.loc.pod == b.loc.pod && a.loc.rack != b.loc.rack,
            };
            if wanted {
                all.push((a.id, b.id));
            }
        }
    }
    StdRng::seed_from_u64(seed).shuffle(&mut all);
    all.into_iter()
        .enumerate()
        .map(|(i, (src, dst))| FlowSpec {
            id: FlowId(i as u64 + 1),
            src,
            dst,
            bytes: FLOW_BYTES,
            start: SimTime::ZERO,
            locality: match pairs {
                Pairs::CrossPod => LocalityClass::IntraDc,
                Pairs::IntraPod => LocalityClass::IntraPod,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn fabric() -> Topology {
        Topology::multi_pod(2, 2, 2, 8, 2)
    }

    fn pod_rack(topo: &Topology, h: HostId) -> (u16, u16) {
        let loc = topo.host(h).expect("generated host exists").loc;
        (loc.pod, loc.rack)
    }

    #[test]
    fn generators_are_a_pure_function_of_the_seed() {
        let topo = fabric();
        for pairs in [Pairs::CrossPod, Pairs::IntraPod] {
            let a = unique_pair_flows(&topo, pairs, 7);
            assert_eq!(a, unique_pair_flows(&topo, pairs, 7));
            assert_ne!(a, unique_pair_flows(&topo, pairs, 8));
        }
    }

    #[test]
    fn cross_pod_pairs_are_unique_and_cross_pods() {
        let topo = fabric();
        let flows = unique_pair_flows(&topo, Pairs::CrossPod, 1);
        // 16 hosts per pod, both directions.
        assert_eq!(flows.len(), 2 * 16 * 16);
        let distinct: BTreeSet<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        assert_eq!(distinct.len(), flows.len());
        assert!(flows
            .iter()
            .all(|f| pod_rack(&topo, f.src).0 != pod_rack(&topo, f.dst).0));
        assert_eq!(flows[0].id, FlowId(1));
        assert_eq!(flows.last().map(|f| f.id), Some(FlowId(512)));
    }

    #[test]
    fn intra_pod_pairs_stay_in_the_pod_and_leave_the_rack() {
        let topo = fabric();
        let flows = unique_pair_flows(&topo, Pairs::IntraPod, 1);
        // Per pod: 8 hosts x 8 hosts x 2 directions.
        assert_eq!(flows.len(), 2 * 2 * 8 * 8);
        let distinct: BTreeSet<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
        assert_eq!(distinct.len(), flows.len());
        for f in &flows {
            let (a, b) = (pod_rack(&topo, f.src), pod_rack(&topo, f.dst));
            assert_eq!(a.0, b.0);
            assert_ne!(a.1, b.1);
        }
    }
}
