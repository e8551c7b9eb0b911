//! Control-plane membership changes (paper §4.3) with **real** threshold
//! cryptography end to end: additions and removals re-key the control plane
//! without ever changing the group public key switches hold.

use blscrypto::reshare::deal_reshare_to;
use cicero::prelude::*;
use simcheck::harness::{self, completed_count as completed, inject_poisson_flows as inject_some_flows};
use substrate::rng::{SeedableRng, StdRng};

fn build(n_standby: u32) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    cfg.controllers_per_domain = 5; // allows one removal (minimum is 4)
    let topo = Topology::single_pod(2, 2, 4);
    let engine = harness::build_engine_cfg(cfg, &topo, n_standby);
    (engine, topo)
}

#[test]
fn adding_a_controller_preserves_the_group_key() {
    let (mut engine, topo) = build(1);
    let domain = DomainId(0);
    let pk_before = engine.shared().keys.domains[&domain].public_key.key();

    inject_some_flows(&mut engine, &topo, 1, 3);
    engine.run(engine.now() + SimDuration::from_secs(30));
    let before = completed(&engine);
    assert_eq!(before, 3);

    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::AddController(ControllerId(6)));
    engine.run(at + SimDuration::from_secs(5));

    // All six controllers re-keyed; phases advanced in lock step.
    let phases: Vec<u64> = engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::PhaseChanged { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    assert!(phases.len() >= 6, "all members + joiner re-key, got {phases:?}");
    assert!(phases.iter().all(|&p| p == 1));

    for c in 1..=6u32 {
        let (pk, view_len, active, dealing_checks) =
            engine.with_controller(domain, ControllerId(c), |ctrl| {
                (
                    ctrl.group().public_key(),
                    ctrl.view().len(),
                    ctrl.is_active(),
                    ctrl.auth().dealing_checks(),
                )
            });
        assert!(active, "controller {c} active");
        assert_eq!(view_len, 6);
        assert_eq!(pk, pk_before, "controller {c} sees the same group key");
        // Two designated dealers (1 and 2), each dealing checked once.
        assert_eq!(dealing_checks, 2, "controller {c} checked a dealing twice");
    }

    // The enlarged control plane still serves flows.
    inject_some_flows(&mut engine, &topo, 2, 3);
    engine.run(engine.now() + SimDuration::from_secs(30));
    assert_eq!(completed(&engine), 6);
}

#[test]
fn removing_a_controller_preserves_the_group_key_and_liveness() {
    let (mut engine, topo) = build(0);
    let domain = DomainId(0);
    let pk_before = engine.shared().keys.domains[&domain].public_key.key();

    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::RemoveController(ControllerId(3)));
    engine.run(at + SimDuration::from_secs(5));

    let removed_active =
        engine.with_controller(domain, ControllerId(3), |c| c.is_active());
    assert!(!removed_active, "removed controller must deactivate");
    for c in [1u32, 2, 4, 5] {
        let (pk, view_len) = engine.with_controller(domain, ControllerId(c), |ctrl| {
            (ctrl.group().public_key(), ctrl.view().len())
        });
        assert_eq!(view_len, 4);
        assert_eq!(pk, pk_before);
    }

    // The shrunken control plane still serves flows.
    inject_some_flows(&mut engine, &topo, 3, 3);
    engine.run(engine.now() + SimDuration::from_secs(30));
    assert_eq!(completed(&engine), 3);
}

/// Segway is a signed mode like Cicero (`Mode::is_signed`): a membership
/// change reshares its threshold key too, and its switches follow the
/// group-signed phase notice. With placeholder keys instead, the notice is
/// rejected and the first update after the change finds no key share.
#[test]
fn segway_membership_changes_reshare_under_real_crypto() {
    let mut cfg = EngineConfig::for_mode(Mode::Segway);
    cfg.crypto = CryptoMode::Real;
    cfg.controllers_per_domain = 5;
    let topo = Topology::single_pod(2, 2, 4);
    let mut engine = harness::build_engine_cfg(cfg, &topo, 1);
    let domain = DomainId(0);
    let pk_before = engine.shared().keys.domains[&domain].public_key.key();
    let joiner = ControllerId(6);

    let changes = [
        (OrderedOp::AddController(joiner), vec![1u32, 2, 3, 4, 5, 6]),
        (OrderedOp::RemoveController(ControllerId(3)), vec![1, 2, 4, 5, 6]),
    ];
    for (round, (op, members)) in changes.into_iter().enumerate() {
        let phase = Phase(round as u64 + 1);
        let at = engine.now() + SimDuration::from_millis(50);
        engine.inject_membership(at, domain, op);
        engine.run(at + SimDuration::from_secs(5));
        for &c in &members {
            let (pk, view_len, active) = engine.with_controller(domain, ControllerId(c), |ctrl| {
                (ctrl.group().public_key(), ctrl.view().len(), ctrl.is_active())
            });
            assert!(active, "controller {c} active in {phase:?}");
            assert_eq!(view_len, members.len());
            assert_eq!(pk, pk_before, "controller {c} sees the same group key");
        }
        for sw in topo.switches() {
            let info = engine.with_switch(sw.id, |s| s.phase_info());
            assert_eq!(info.phase, phase, "{:?} accepted the phase notice", sw.id);
        }

        let seen = engine.observations().len();
        inject_some_flows(&mut engine, &topo, 5 + round as u64, 3);
        engine.run(engine.now() + SimDuration::from_secs(30));
        assert_eq!(completed(&engine), 3 * (round + 1));
        // Every controller that delivers an event share-signs its updates,
        // so a delivery by the joiner is the joiner signing with a real share.
        assert!(
            engine.observations()[seen..].iter().any(|o| matches!(
                o.value,
                Obs::EventDelivered { controller, .. } if controller == joiner.0
            )),
            "the joiner serves events in {phase:?}"
        );
    }
}

/// Ahead of the honest dealings of the change 5 → 6 (dealers: controllers 1
/// and 2), every member and the joiner get a forged dealing over a switch's
/// channel, one over the channel of controller 3 (not a dealer, and not a
/// valid dealing), and a genuine dealing of controller 1 twice. Filed as
/// they came, the first two dealings would be tried again and again: the
/// forged ones fail verification and the duplicate fails interpolation.
#[test]
fn bad_and_duplicated_dealings_do_not_stall_the_rekey() {
    let (mut engine, topo) = build(1);
    let domain = DomainId(0);
    let pk_before = engine.shared().keys.domains[&domain].public_key.key();
    let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
    let shared = engine.shared().clone();
    let (_, secrets) = bootstrap_keys(CryptoMode::Real, &switches, &shared.dir, shared.cfg.seed);
    let share = |c: usize| &secrets.domain_dkg[&domain].participants[c - 1].share;
    let mut rng = StdRng::seed_from_u64(0xdea1);
    let members: Vec<u32> = (1..=6).collect();
    let mut deal = |c: usize| deal_reshare_to(share(c), 1, &members, &mut rng);
    let honest = deal(1);
    let injected = [
        (engine.switch_node(switches[0]), deal(2).with_forged_constant()),
        (engine.controller_node(domain, ControllerId(3)), deal(3).with_forged_constant()),
        (engine.controller_node(domain, ControllerId(1)), honest.clone()),
        (engine.controller_node(domain, ControllerId(1)), honest),
    ];
    let at = engine.now() + SimDuration::from_millis(10);
    for (from, dealing) in injected {
        for c in members.iter().map(|&c| ControllerId(c)) {
            let to = engine.controller_node(domain, c);
            let phase = Phase(1);
            engine.inject_raw(at, from, to, Net::Reshare { phase, dealing: dealing.clone() });
        }
    }
    let add = OrderedOp::AddController(ControllerId(6));
    engine.inject_membership(at + SimDuration::from_millis(10), domain, add);
    engine.run(at + SimDuration::from_secs(5));
    for c in members.iter().map(|&c| ControllerId(c)) {
        let (pk, phase, active) = engine.with_controller(domain, c, |ctrl| {
            (ctrl.group().public_key(), ctrl.view().phase(), ctrl.is_active())
        });
        assert!(active, "{c:?} active");
        assert_eq!(phase, Phase(1), "{c:?} re-keyed");
        assert_eq!(pk, pk_before, "{c:?} sees the same group key");
    }
    for s in &switches {
        assert_eq!(engine.with_switch(*s, |a| a.phase_info().phase), Phase(1), "{s:?}");
    }
}

/// The phase notice takes one path at every level: below `Real`, and in
/// the unauthenticated baselines, it is share-signed and collected like the
/// threshold-signed one.
#[test]
fn every_replicated_mode_brings_its_switches_the_phase_notice_under_modeled_crypto() {
    for mode in Mode::ALL.into_iter().filter(|m| *m != Mode::Centralized) {
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine_cfg(EngineConfig::for_mode(mode), &topo, 1);
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_membership(at, DomainId(0), OrderedOp::AddController(ControllerId(5)));
        engine.run(at + SimDuration::from_secs(2));
        for s in topo.switches() {
            let phase = engine.with_switch(s.id, |a| a.phase_info().phase);
            assert_eq!(phase, Phase(1), "{}: {:?}", mode.label(), s.id);
        }
    }
}

#[test]
fn events_arriving_during_the_change_are_queued_and_served() {
    let (mut engine, topo) = build(1);
    let domain = DomainId(0);
    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::AddController(ControllerId(6)));
    // Flows land immediately after the membership op (likely mid-change).
    inject_some_flows(&mut engine, &topo, 4, 3);
    engine.run(engine.now() + SimDuration::from_secs(60));
    assert_eq!(completed(&engine), 3, "queued events must be drained");
}

#[test]
fn non_bootstrap_add_proposals_are_ignored() {
    let (mut engine, _topo) = build(1);
    let domain = DomainId(0);
    // Controller 2 (not the bootstrap) tries to admit someone.
    let node = engine.controller_node(domain, ControllerId(2));
    engine.inject_raw(
        engine.now() + SimDuration::from_millis(1),
        simnet::sim::ENVIRONMENT,
        node,
        Net::MembershipCmd(OrderedOp::AddController(ControllerId(6))),
    );
    engine.run(engine.now() + SimDuration::from_secs(3));
    assert!(
        !engine
            .observations()
            .iter()
            .any(|o| matches!(o.value, Obs::PhaseChanged { .. })),
        "only the bootstrap controller may propose additions"
    );
}

#[test]
fn identifiers_are_never_reused_across_changes() {
    let (mut engine, _topo) = build(2);
    let domain = DomainId(0);
    let t1 = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(t1, domain, OrderedOp::RemoveController(ControllerId(5)));
    engine.run(t1 + SimDuration::from_secs(5));
    // Admitting "5" again must be rejected; the valid next id is 6.
    let t2 = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(t2, domain, OrderedOp::AddController(ControllerId(5)));
    engine.run(t2 + SimDuration::from_secs(5));
    let len = engine.with_controller(domain, ControllerId(1), |c| c.view().len());
    assert_eq!(len, 4, "stale identifier must not re-enter");
    let t3 = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(t3, domain, OrderedOp::AddController(ControllerId(6)));
    engine.run(t3 + SimDuration::from_secs(5));
    let len = engine.with_controller(domain, ControllerId(1), |c| c.view().len());
    assert_eq!(len, 5, "the fresh identifier is admitted");
}

/// A controller added after an earlier reshare activates under `Real`
/// crypto and signs with a share the switches accept. Its dealers deal
/// from their post-reshare shares, so the joiner must check the dealings
/// against the commitment of those shares — which its state sync carries —
/// not against the bootstrap commitment it was built with. With every
/// member but 1 and the joiner cut off from the switches, an update can
/// only reach its quorum of two on the joiner's share.
#[test]
fn a_controller_added_after_a_removal_activates_and_its_shares_certify() {
    let (mut engine, topo) = build(2);
    let (domain, joiner) = (DomainId(0), ControllerId(6));
    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::RemoveController(ControllerId(5)));
    engine.run(at + SimDuration::from_secs(5));
    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::AddController(joiner));
    engine.run(at + SimDuration::from_secs(5));
    let (active, phase) = engine.with_controller(domain, joiner, |c| (c.is_active(), c.view().phase()));
    assert_eq!(phase, Phase(2), "the joiner adopted the view");
    assert!(active, "the joiner re-keyed from the dealers' post-reshare shares");

    let mut plan = simnet::fault::FaultPlan::none();
    for c in [2, 3, 4] {
        let node = engine.controller_node(domain, ControllerId(c));
        for s in topo.switches() {
            plan = plan.with_severed_link(node, engine.switch_node(s.id));
        }
    }
    engine.set_faults(plan);
    // An intra-rack flow: one update, at the shared ToR, held by nothing.
    let tor = topo.switches().iter().find(|s| topo.hosts_on(s.id).len() >= 2).expect("a rack");
    let hosts = topo.hosts_on(tor.id);
    let start = engine.now() + SimDuration::from_millis(10);
    engine.inject_flow(FlowId(1), hosts[0], hosts[1], 500, start).expect("routable");
    engine.run(start + SimDuration::from_secs(5));
    let signers = engine.observations().iter().find_map(|o| match o.value {
        Obs::UpdateApplied { switch, signers, .. } if switch == tor.id => Some(signers),
        _ => None,
    });
    assert_eq!(signers, Some(2), "applied on the shares of controllers 1 and 6");
    assert_eq!(completed(&engine), 1);
}

#[test]
fn failure_detector_removes_a_crashed_controller_automatically() {
    // Paper §4.3 + §5.1: heartbeats detect a crashed member; any member
    // proposes its removal through consensus; the reshare re-keys the
    // remaining plane under the same group public key.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    cfg.controllers_per_domain = 5;
    cfg.heartbeat = Some(SimDuration::from_millis(50));
    let topo = Topology::single_pod(2, 2, 4);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let domain = DomainId(0);
    let pk_before = engine.shared().keys.domains[&domain].public_key.key();

    // Controller 3 dies silently.
    let victim = engine.controller_node(domain, ControllerId(3));
    engine.set_faults(
        simnet::fault::FaultPlan::none()
            .with_crash(SimTime::ZERO + SimDuration::from_millis(10), victim),
    );
    engine.run(SimTime::ZERO + SimDuration::from_secs(5));

    // The survivors detected, agreed, and re-keyed.
    let (len, contains, pk) = engine.with_controller(domain, ControllerId(1), |c| {
        (
            c.view().len(),
            c.view().contains(ControllerId(3)),
            c.group().public_key(),
        )
    });
    assert_eq!(len, 4, "membership shrank automatically");
    assert!(!contains, "the crashed controller was removed");
    assert_eq!(pk, pk_before, "group public key preserved");

    // And the plane still serves flows.
    inject_some_flows(&mut engine, &topo, 9, 2);
    engine.run(engine.now() + SimDuration::from_secs(30));
    assert_eq!(completed(&engine), 2);
}

/// Update retries a controller gave up on.
fn exhausted(engine: &Engine) -> usize {
    let given_up = |o: &Obs| matches!(o, Obs::UpdateRetryExhausted { .. });
    engine.observations().iter().filter(|o| given_up(&o.value)).count()
}

/// A controller added by a membership change hears from the switches like
/// every other member: they acknowledge to the current members, so the
/// joiner's pending graph drains and it retries nothing to exhaustion.
/// (Switches once acknowledged to the bootstrap members only: the joiner
/// retransmitted every update until its budget was spent.)
#[test]
fn a_joiner_receives_the_acks_and_drains_its_pending_graph() {
    let (mut engine, topo) = build(1);
    let (domain, joiner) = (DomainId(0), ControllerId(6));
    let at = engine.now() + SimDuration::from_millis(50);
    engine.inject_membership(at, domain, OrderedOp::AddController(joiner));
    engine.run(at + SimDuration::from_secs(5));
    assert!(engine.with_controller(domain, joiner, |c| c.is_active()), "the joiner activated");

    inject_some_flows(&mut engine, &topo, 4, 5);
    engine.run(engine.now() + SimDuration::from_secs(60));
    assert_eq!(completed(&engine), 5);
    let (drained, failed) = engine.with_controller(domain, joiner, |c| (c.pending().is_drained(), c.pending().failed_count()));
    assert!(drained, "every update the joiner sent was acknowledged to it");
    assert_eq!((failed, exhausted(&engine)), (0, 0), "no update retried to exhaustion");
}

/// Two bootstrap members leave and two others join; then the two
/// bootstrap members left besides controller 1 lose their links to the
/// switches. A held update needs the releases of a quorum (two) of the
/// current members, and a member releases only once it holds the acks of
/// the update's dependencies: so the joiners' releases must count, and
/// they need the acks to send them.
#[test]
fn held_updates_apply_after_bootstrap_members_are_replaced() {
    let (mut engine, topo) = build(2);
    let domain = DomainId(0);
    let changes = [
        OrderedOp::AddController(ControllerId(6)),
        OrderedOp::AddController(ControllerId(7)),
        OrderedOp::RemoveController(ControllerId(4)),
        OrderedOp::RemoveController(ControllerId(5)),
    ];
    for op in changes {
        let at = engine.now() + SimDuration::from_millis(50);
        engine.inject_membership(at, domain, op);
        engine.run(at + SimDuration::from_secs(5));
    }
    let members: Vec<ControllerId> = engine.with_controller(domain, ControllerId(1), |c| c.view().members().collect());
    assert_eq!(members, [1, 2, 3, 6, 7].map(ControllerId));

    let mut plan = simnet::fault::FaultPlan::none();
    for c in [2, 3] {
        let node = engine.controller_node(domain, ControllerId(c));
        for s in topo.switches() {
            plan = plan.with_severed_link(node, engine.switch_node(s.id));
        }
    }
    engine.set_faults(plan);
    // A cross-rack flow: updates at two ToRs and an aggregation switch,
    // each but the first held until its successor is acknowledged.
    let racks: Vec<_> = topo.switches().iter().filter(|s| topo.hosts_on(s.id).len() >= 2).collect();
    let (src, dst) = (topo.hosts_on(racks[0].id)[0], topo.hosts_on(racks[1].id)[0]);
    let start = engine.now() + SimDuration::from_millis(10);
    engine.inject_flow(FlowId(1), src, dst, 500, start).expect("routable");
    engine.run(start + SimDuration::from_secs(30));
    let applied = engine.observations().iter().filter(|o| matches!(o.value, Obs::UpdateApplied { .. })).count();
    assert!(applied >= 3, "the held updates went in ({applied} applied)");
    assert_eq!(completed(&engine), 1);
}
