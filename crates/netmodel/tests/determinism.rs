//! Routing determinism over the BTreeMap-backed topology and Dijkstra state.
//!
//! `Topology::adjacency` and the Dijkstra `best` map were once `HashMap`s:
//! correct within one process, but with per-process iteration order. Any
//! code that ever iterates them (path enumeration, tie-breaking, debugging
//! output) could silently produce different-but-equally-short routes from
//! run to run, breaking seed replay. This test pins the migrated behaviour:
//! route computation is a pure function of the topology.

use netmodel::routing::{equal_cost_paths, route};
use netmodel::topology::Topology;

fn stable_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders every host-pair route and every switch-pair ECMP set to one
/// canonical string.
fn route_fingerprint(topo: &Topology) -> String {
    let mut out = String::new();
    for a in topo.hosts() {
        for b in topo.hosts() {
            if a.id == b.id {
                continue;
            }
            match route(topo, a.id, b.id) {
                Some(r) => out.push_str(&format!("{:?}->{:?}: {:?}\n", a.id, b.id, r.path)),
                None => out.push_str(&format!("{:?}->{:?}: none\n", a.id, b.id)),
            }
        }
    }
    for sa in topo.switches() {
        for sb in topo.switches() {
            if sa.id == sb.id {
                continue;
            }
            let paths = equal_cost_paths(topo, sa.id, sb.id, 8);
            out.push_str(&format!("ecmp {:?}->{:?}: {paths:?}\n", sa.id, sb.id));
        }
    }
    out
}

#[test]
fn routes_are_a_pure_function_of_the_topology() {
    let build = || Topology::multi_pod(2, 2, 2, 2, 2);
    let fp_a = route_fingerprint(&build());
    let fp_b = route_fingerprint(&build());
    assert_eq!(fp_a, fp_b, "route computation diverged between two builds");
    assert_eq!(stable_hash(&fp_a), stable_hash(&fp_b));
    assert!(!fp_a.is_empty());
}
