//! Dynamic control-plane membership (paper §4.3): a fifth controller joins
//! a live 4-controller domain. The join runs the share-redistribution
//! protocol over the network — real DKG-style dealings, real threshold BLS —
//! and the group public key installed on the switches **does not change**,
//! so no switch needs re-keying. Updates keep flowing before and after.
//!
//! Run with: `cargo run --example membership_change`

use cicero::prelude::*;
use substrate::rng::{SeedableRng, StdRng};

fn main() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    let topo = Topology::single_pod(2, 2, 4);
    let dm = DomainMap::single(&topo);
    // One standby controller, ready to be admitted.
    let mut engine = Engine::build(cfg, topo.clone(), dm, 1);
    let domain = DomainId(0);

    let pk_before = engine.shared().keys.domains[&domain].public_key.key();
    println!("group public key (before): {:02x?}…", &pk_before.to_bytes()[1..9]);

    // Warm up with a few flows under the 4-member control plane.
    let mut spec = hadoop();
    spec.flows = 5;
    let flows = generate(&topo, &spec, &mut StdRng::seed_from_u64(1));
    engine.inject_flows(&flows);
    engine.run(SimTime::ZERO + SimDuration::from_secs(30));
    let completed_before = count_completed(&engine);
    println!("flows completed with n=4 : {completed_before}");

    // The bootstrap controller proposes admitting controller 5.
    let join_at = engine.now() + SimDuration::from_millis(100);
    engine.inject_membership(join_at, domain, OrderedOp::AddController(ControllerId(5)));
    engine.run(join_at + SimDuration::from_secs(5));

    // Every member finished the phase change.
    let phase_changes = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::PhaseChanged { .. }))
        .count();
    println!("controllers that completed the reshare: {phase_changes}");
    assert!(phase_changes >= 5, "all 5 members re-key");

    // The group public key is unchanged (paper: switches never re-key).
    let pk_after = engine.with_controller(domain, ControllerId(5), |c| {
        assert!(c.is_active(), "the joiner is now active");
        assert_eq!(c.view().len(), 5);
        c.group().public_key()
    });
    assert_eq!(pk_before, pk_after, "group public key must be invariant");
    println!("group public key (after) : unchanged ✓  (n=5, quorum={})", 2);

    // New flows complete under the 5-member plane with fresh shares.
    let mut spec = hadoop();
    spec.flows = 5;
    let mut flows = generate(&topo, &spec, &mut StdRng::seed_from_u64(2));
    let offset = engine.now() + SimDuration::from_millis(200);
    for f in flows.iter_mut() {
        f.start = offset + SimDuration::from_nanos(f.start.as_nanos());
    }
    engine.inject_flows(&flows);
    engine.run(engine.now() + SimDuration::from_secs(30));
    let completed_after = count_completed(&engine);
    println!("flows completed total    : {completed_after}");
    assert!(completed_after > completed_before, "updates still flow post-join");
    println!("membership change complete — same key, bigger quorum, no downtime.");
}

fn count_completed(engine: &Engine) -> usize {
    engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::FlowCompleted { .. }))
        .count()
}
