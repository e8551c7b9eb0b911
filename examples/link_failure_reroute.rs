//! Link-failure repair (paper Fig. 2): a flow's route crosses a link that
//! dies; the control plane agrees on the failure event and repairs the
//! route **make-before-break** — the replacement path is installed
//! destination-first, the ingress flips last, and only then are the
//! abandoned rules removed. The replay audit proves no packet could ever
//! have been black-holed or looped by the repair itself.
//!
//! Run with: `cargo run --example link_failure_reroute`

use cicero::prelude::*;
use cicero_core::audit::{audit_flow, ReplayState, WalkOutcome};
use netmodel::topology::{Location, SwitchRole};

fn main() {
    // The paper's five-switch fabric (Fig. 2): two paths into s5.
    let mut topo = Topology::empty();
    let loc = Location {
        dc: 0,
        pod: 0,
        rack: 0,
    };
    for i in 1..=5 {
        topo.add_switch(SwitchId(i), SwitchRole::TopOfRack, loc);
    }
    let lat = SimDuration::from_micros(20);
    topo.add_link(SwitchId(1), SwitchId(3), lat, 5);
    topo.add_link(SwitchId(2), SwitchId(3), lat, 5);
    topo.add_link(SwitchId(3), SwitchId(4), lat, 5);
    topo.add_link(SwitchId(3), SwitchId(5), lat, 5);
    topo.add_link(SwitchId(4), SwitchId(5), lat, 5);
    topo.add_host(HostId(1), SwitchId(1));
    topo.add_host(HostId(5), SwitchId(5));

    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real; // genuine threshold signatures throughout
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);

    // 1. Establish the flow h1 → h5 (shortest path s1-s3-s5).
    let (src, dst) = (HostId(1), HostId(5));
    let m = FlowMatch { src, dst };
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(1), src, dst, 1000, start).unwrap();
    println!("initial route: {:?}", r.path);
    engine.run(start + SimDuration::from_secs(10));

    // 2. The s3-s5 link dies; s3 raises a tagged LinkFailure event.
    let fail_at = engine.now() + SimDuration::from_millis(5);
    println!("failing link s3-s5 …");
    engine.fail_link(fail_at, SwitchId(3), SwitchId(5));
    engine.run(fail_at + SimDuration::from_secs(10));

    // 3. Audit every intermediate state the repair created.
    let hazards = audit_flow(engine.observations(), SwitchId(1), m, false);
    println!("transient hazards during repair: {}", hazards.len());
    assert!(hazards.is_empty(), "make-before-break must be hazard-free");

    // 4. The final state detours via s4.
    let mut state = ReplayState::new();
    for o in engine.observations() {
        if let Obs::UpdateApplied { switch, kind, .. } = o.value {
            state.apply(switch, kind);
        }
    }
    assert_eq!(state.walk(SwitchId(1), m), WalkOutcome::Delivered(dst));
    println!(
        "s3 now forwards via: {:?}",
        state.rule(SwitchId(3), m).unwrap()
    );
    let removed = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { kind: UpdateKind::Remove(_), .. }))
        .count();
    println!("stale rules removed after the flip: {removed}");
    println!("route repaired around the failed link, hazard-free ✓");
}
