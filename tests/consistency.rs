//! Table 1 consistency properties as integration tests: the hazards exist
//! under unordered updates and are absent under Cicero's schedulers.
//!
//! Engine setup lives in `simcheck::harness`; these tests only express the
//! scenario and the property.

use cicero::prelude::*;
use cicero_core::audit::{audit_flow, WalkOutcome};
use simcheck::harness;

enum Sched {
    Unordered,
    ReversePath,
    DependencyGraph,
}

fn run_with_scheduler(sched: Sched) -> Vec<cicero_core::audit::Hazard> {
    let topo = harness::paper_topology();
    let mut engine = harness::build_engine(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
        &topo,
    );
    harness::set_schedulers(&mut engine, move || match sched {
        Sched::Unordered => Box::new(UnorderedScheduler),
        Sched::ReversePath => Box::new(ReversePathScheduler),
        Sched::DependencyGraph => {
            Box::new(controller::scheduler::DependencyGraphScheduler::new())
        }
    });
    let (src, dst) = (HostId(1), HostId(5));
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(1), src, dst, 500, start).expect("connected");
    engine.run(start + SimDuration::from_secs(10));
    // The flow must complete under every scheduler (liveness)...
    assert!(harness::completed_count(&engine) > 0);
    // ...the difference is the safety of intermediate states.
    audit_flow(engine.observations(), r.path[0], FlowMatch { src, dst }, false)
}

#[test]
fn unordered_updates_expose_transient_black_hole() {
    let hazards = run_with_scheduler(Sched::Unordered);
    assert!(
        hazards
            .iter()
            .any(|h| matches!(h.outcome, WalkOutcome::BlackHole(_))),
        "expected a transient black hole, got {hazards:?}"
    );
}

#[test]
fn reverse_path_scheduler_is_hazard_free() {
    assert!(run_with_scheduler(Sched::ReversePath).is_empty());
}

#[test]
fn dependency_graph_scheduler_is_hazard_free() {
    assert!(run_with_scheduler(Sched::DependencyGraph).is_empty());
}

#[test]
fn firewall_policy_is_never_transiently_bypassed() {
    let topo = harness::paper_topology();
    let mut engine = harness::build_engine(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
        &topo,
    );
    let denied_pair = FlowMatch {
        src: HostId(2),
        dst: HostId(5),
    };
    harness::deny_pair(&mut engine, denied_pair);
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(9), denied_pair.src, denied_pair.dst, 500, start).unwrap();
    engine.run(start + SimDuration::from_secs(10));
    assert!(harness::denied_count(&engine) > 0);
    assert_eq!(harness::completed_count(&engine), 0);
    assert!(audit_flow(engine.observations(), r.path[0], denied_pair, true).is_empty());
}

#[test]
fn all_modes_complete_flows_identically() {
    // Consistency must hold in every mode; only timing differs.
    for mode in ALL_MODES {
        let topo = harness::paper_topology();
        let mut engine = harness::build_engine(mode, CryptoMode::Modeled, &topo);
        let (src, dst) = (HostId(1), HostId(5));
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        let r = engine.inject_flow(FlowId(1), src, dst, 500, start).unwrap();
        engine.run(start + SimDuration::from_secs(10));
        assert!(
            harness::completed_count(&engine) > 0,
            "{} failed to complete the flow",
            mode.label()
        );
        assert!(
            audit_flow(engine.observations(), r.path[0], FlowMatch { src, dst }, false)
                .is_empty(),
            "{} exposed a hazard",
            mode.label()
        );
    }
}

#[test]
fn link_failure_reroutes_without_hazards() {
    // Paper Fig. 2: a flow to s5 runs over the s3-s5 link; the link fails;
    // Cicero repairs the route make-before-break — the replay audit must
    // find no transient loop or black hole, and the final path avoids the
    // dead link.
    let topo = harness::paper_topology();
    let mut engine = harness::build_engine(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
        &topo,
    );

    let (src, dst) = (HostId(1), HostId(5));
    let m = FlowMatch { src, dst };
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    let r = engine.inject_flow(FlowId(1), src, dst, 500, start).unwrap();
    assert_eq!(r.path, vec![SwitchId(1), SwitchId(3), SwitchId(5)]);
    engine.run(start + SimDuration::from_secs(5));
    assert!(harness::completed_count(&engine) > 0);

    // The s3-s5 link dies; s3 reports it.
    let fail_at = engine.now() + SimDuration::from_millis(10);
    engine.fail_link(fail_at, SwitchId(3), SwitchId(5));
    engine.run(fail_at + SimDuration::from_secs(10));

    // Replay the full applied-update history: no transient hazards, and the
    // final state routes around the failure.
    let hazards = audit_flow(engine.observations(), SwitchId(1), m, false);
    assert!(hazards.is_empty(), "repair must be make-before-break: {hazards:?}");

    let mut state = cicero_core::audit::ReplayState::new();
    for o in engine.observations() {
        if let Obs::UpdateApplied { switch, kind, .. } = o.value {
            state.apply(switch, kind);
        }
    }
    assert_eq!(
        state.walk(SwitchId(1), m),
        WalkOutcome::Delivered(dst),
        "flow still routed after repair"
    );
    // The new path uses s4, not the dead s3-s5 link.
    assert_eq!(
        state.rule(SwitchId(3), m),
        Some(FlowAction::Forward(NextHop::Switch(SwitchId(4)))),
        "repaired route detours via s4"
    );
}
