//! Cross-domain ordering end-to-end tests (zero faults).
//!
//! A flow whose route crosses domain boundaries is installed by several
//! independent control planes. The cross-domain handshake (DESIGN.md §3)
//! must serialize those per-domain segments destination-first: an upstream
//! domain's boundary update is held until a quorum of the downstream
//! domain acknowledges its segment applied. These tests drive 2- and
//! 3-domain chains with boundary-crossing flows and assert (a) the flow
//! converges, (b) the end-to-end audit never observes a black hole, and
//! (c) boundary updates apply strictly after every downstream update.

use cicero_core::prelude::*;
use controller::policy::DomainMap;
use netmodel::topology::Topology;
use southbound::types::{FlowId, FlowMatch, HostId, SwitchId};

fn engine(domains: u16, racks: u16, seed: u64) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = seed;
    let topo = Topology::single_pod(racks, 1, 2);
    let dm = DomainMap::split_racks(&topo, domains);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

fn completed(engine: &Engine, flow: FlowId) -> bool {
    engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::FlowCompleted { flow: f, .. } if f == flow))
}

/// Apply times of every update observed for the flow's route, indexed by
/// the update's position along the path (seq 0 = ingress ToR).
fn apply_times(engine: &Engine, path: &[SwitchId]) -> Vec<(u32, SimTime)> {
    let mut out = Vec::new();
    for o in engine.observations() {
        if let Obs::UpdateApplied { switch, update, .. } = o.value {
            if path.contains(&switch) {
                out.push((update.seq, o.at));
            }
        }
    }
    out
}

/// Runs one boundary-crossing flow through a `domains`-domain chain and
/// checks convergence, audit cleanliness, and destination-first ordering
/// across every boundary.
fn run_chain(domains: u16, racks: u16, src: HostId, dst: HostId, seed: u64) {
    let (mut engine, topo) = engine(domains, racks, seed);
    let start = engine.now() + SimDuration::from_millis(2);
    let r = engine.inject_flow(FlowId(1), src, dst, 10_000, start).expect("connected");
    let crossings = r
        .path
        .windows(2)
        .filter(|w| engine.shared().policy.domains().domain_of(w[0]) != engine.shared().policy.domains().domain_of(w[1]))
        .count();
    assert!(
        crossings >= 1,
        "test flow must cross at least one domain boundary (path {:?})",
        r.path
    );
    engine.run(SimTime::ZERO + SimDuration::from_secs(10));

    assert!(completed(&engine, FlowId(1)), "boundary-crossing flow must converge");

    // (b) End-to-end audit: replaying every applied update must never put
    // the flow's path into a black-hole (or loop/policy) state.
    let ingress = topo.host(src).unwrap().attached;
    let m = FlowMatch { src, dst };
    let hazards = audit_flow(engine.observations(), ingress, m, false);
    assert!(hazards.is_empty(), "end-to-end audit found hazards: {hazards:?}");

    // (c) Destination-first across boundaries: reverse-path scheduling plus
    // the handshake serializes the whole chain, so sorting applies by seq
    // descending must give non-decreasing times, strictly increasing at
    // every boundary crossing.
    let mut times = apply_times(&engine, &r.path);
    assert_eq!(times.len(), r.path.len(), "one update per path switch");
    times.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    for pair in times.windows(2) {
        let (downstream, upstream) = (pair[0], pair[1]);
        assert!(
            upstream.1 >= downstream.1,
            "update seq {} applied at {:?}, before its downstream dep seq {} at {:?}",
            upstream.0,
            upstream.1,
            downstream.0,
            downstream.1
        );
        let a = engine.shared().policy.domains().domain_of(r.path[upstream.0 as usize]);
        let b = engine.shared().policy.domains().domain_of(r.path[downstream.0 as usize]);
        if a != b {
            assert!(
                upstream.1 > downstream.1,
                "boundary update seq {} must apply strictly after the \
                 downstream domain's update seq {}",
                upstream.0,
                downstream.0
            );
        }
    }

    // The handshake must actually have fired: every upstream domain
    // observes a release for each held boundary segment.
    let releases = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::BoundaryReleased { .. }))
        .count();
    assert!(releases >= 1, "expected at least one BoundaryReleased observation");
}

#[test]
fn two_domain_chain_is_consistent() {
    // single_pod(2 racks): ToR(rack0) in domain 0, ToR(rack1) in domain 1,
    // edge in domain 0. Host in rack 1 -> host in rack 0 crosses one
    // boundary.
    run_chain(2, 2, HostId(2), HostId(0), 0xC1CE_2201);
}

#[test]
fn two_domain_chain_reverse_direction_is_consistent() {
    run_chain(2, 2, HostId(0), HostId(3), 0xC1CE_2202);
}

#[test]
fn three_domain_chain_is_consistent() {
    // single_pod(3 racks): ToRs in domains 0/1/2, edge in domain 0. Host in
    // rack 1 -> host in rack 2 traverses domains 1 -> 0 -> 2: a three-
    // segment chain with two boundaries.
    run_chain(3, 3, HostId(2), HostId(4), 0xC1CE_3301);
}

#[test]
fn three_domain_chain_reverse_direction_is_consistent() {
    run_chain(3, 3, HostId(5), HostId(2), 0xC1CE_3302);
}
