//! The consistency hazards of paper Table 1 (Figs. 1–3), demonstrated and
//! then prevented.
//!
//! Two identical deployments handle the same flow on the paper's five-switch
//! example topology. The first uses an **unordered** scheduler (updates race
//! to the switches, like plain OpenFlow); replaying its applied-update
//! sequence exposes a *transient black hole*: the ingress rule lands before
//! the downstream rules, so in-flight packets would be lost. The second runs
//! Cicero's reverse-path scheduler, and the audit finds no hazardous
//! intermediate state. Finally, a firewall policy shows a denied pair is
//! stopped at the ingress, and link-capacity accounting shows the
//! congestion-freedom check of Fig. 3.
//!
//! Run with: `cargo run --example consistency_hazards`

use cicero::prelude::*;
use cicero_core::audit::{audit_flow, WalkOutcome};
use netmodel::linkload::LinkLoad;
use netmodel::topology::{Location, SwitchRole};

/// The five-switch topology of the paper's Figs. 1–3:
/// s1, s2 on the left, s3 in the middle, s4, s5 on the right.
fn paper_topology() -> Topology {
    let mut t = Topology::empty();
    let loc = Location {
        dc: 0,
        pod: 0,
        rack: 0,
    };
    for i in 1..=5 {
        t.add_switch(SwitchId(i), SwitchRole::TopOfRack, loc);
    }
    let lat = SimDuration::from_micros(20);
    t.add_link(SwitchId(1), SwitchId(3), lat, 5);
    t.add_link(SwitchId(2), SwitchId(3), lat, 5);
    t.add_link(SwitchId(3), SwitchId(4), lat, 5);
    t.add_link(SwitchId(3), SwitchId(5), lat, 5);
    t.add_link(SwitchId(4), SwitchId(5), lat, 5);
    t.add_host(HostId(1), SwitchId(1));
    t.add_host(HostId(2), SwitchId(2));
    t.add_host(HostId(5), SwitchId(5));
    t
}

fn run_one(unordered: bool) -> (Vec<cicero_core::audit::Hazard>, usize) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = paper_topology();
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    if unordered {
        // Swap in the hazard-prone baseline scheduler on every controller.
        for c in 1..=4u32 {
            engine.with_controller(DomainId(0), ControllerId(c), |ctrl| {
                ctrl.set_scheduler(Box::new(UnorderedScheduler));
            });
        }
    }
    let (src, dst) = (HostId(1), HostId(5));
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(1), src, dst, 1000, start).expect("connected");
    engine.run(start + SimDuration::from_secs(10));
    let hazards = audit_flow(
        engine.observations(),
        r.path[0],
        FlowMatch { src, dst },
        false,
    );
    let applied = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count();
    (hazards, applied)
}

fn main() {
    println!("== Black-hole freedom (paper Fig. 2 / Table 1) ==");
    let (hazards, applied) = run_one(true);
    println!("unordered scheduler : {applied} updates applied, hazards found:");
    for h in &hazards {
        println!("  step {}: {:?}", h.step, h.outcome);
    }
    assert!(
        hazards
            .iter()
            .any(|h| matches!(h.outcome, WalkOutcome::BlackHole(_))),
        "the unordered baseline must exhibit a transient black hole"
    );

    let (hazards, applied) = run_one(false);
    println!("Cicero reverse-path : {applied} updates applied, hazards found: {}", hazards.len());
    assert!(
        hazards.is_empty(),
        "Cicero's ordered updates must never expose a hazardous state"
    );

    println!();
    println!("== Firewall enforcement (paper Fig. 1 / Table 1) ==");
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = paper_topology();
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let denied_pair = FlowMatch {
        src: HostId(2),
        dst: HostId(5),
    };
    for c in 1..=4u32 {
        engine.with_controller(DomainId(0), ControllerId(c), |ctrl| {
            ctrl.app_mut().firewall.deny(denied_pair);
        });
    }
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(2), denied_pair.src, denied_pair.dst, 1000, start).unwrap();
    engine.run(start + SimDuration::from_secs(10));
    let denied = engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::FlowDenied { .. }));
    let completed = engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::FlowCompleted { .. }));
    println!("denied flow stopped at ingress: {denied}; leaked: {completed}");
    assert!(denied && !completed, "firewall must hold");
    let fw_hazards = audit_flow(engine.observations(), r.path[0], denied_pair, true);
    assert!(fw_hazards.is_empty(), "no transient firewall bypass");

    println!();
    println!("== Congestion freedom (paper Fig. 3 / Table 1) ==");
    // Migrating a 5-unit flow between two paths that share the capacity-5
    // s4-s5 link must not transiently double-book it (Fig. 3c's 10/5).
    let topo = paper_topology();
    let mut load = LinkLoad::new();
    let path_a = [SwitchId(1), SwitchId(3), SwitchId(4), SwitchId(5)];
    let path_b = [SwitchId(2), SwitchId(3), SwitchId(4), SwitchId(5)];
    load.reserve_path(&path_a, 5);
    assert!(
        load.would_overload(&topo, &path_b, 5),
        "the shared s4-s5 link cannot hold both"
    );
    load.reserve_path(&path_b, 5);
    // A naive migration reserving the new path before releasing the old one
    // overloads s3's links:
    let naive_overload = !load.overloaded_links(&topo).is_empty();
    println!("naive make-before-break overloads: {naive_overload}");
    assert!(naive_overload);
    // The congestion-free order releases first.
    let mut load = LinkLoad::new();
    load.reserve_path(&path_a, 5);
    load.release_path(&path_a, 5);
    load.reserve_path(&path_b, 5);
    assert!(load.overloaded_links(&topo).is_empty());
    println!("release-before-reserve keeps every link within capacity ✓");

    println!();
    println!("All Table 1 consistency properties verified.");
}
