//! End-to-end protocol tests: flows drive events through consensus,
//! threshold signing, quorum verification, application and acknowledgement.

use cicero_core::prelude::*;
use controller::policy::DomainMap;
use netmodel::routing::route;
use netmodel::topology::Topology;
use southbound::types::{FlowId, HostId};

fn completed_flows(engine: &Engine) -> Vec<FlowId> {
    engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::FlowCompleted { flow, .. } => Some(flow),
            _ => None,
        })
        .collect()
}

fn cross_rack_pair(topo: &Topology) -> (HostId, HostId) {
    let hosts = topo.hosts();
    let src = hosts[0].id;
    let dst = hosts
        .iter()
        .find(|h| h.attached != hosts[0].attached)
        .expect("multiple racks")
        .id;
    (src, dst)
}

fn run_mode_to_completion(mode: Mode, crypto: CryptoMode) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(10));
    (engine, topo)
}

#[test]
fn centralized_flow_completes() {
    let (engine, _) = run_mode_to_completion(Mode::Centralized, CryptoMode::Modeled);
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn crash_tolerant_flow_completes() {
    let (engine, _) = run_mode_to_completion(Mode::CrashTolerant, CryptoMode::Modeled);
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn cicero_switch_agg_flow_completes_modeled() {
    let (engine, _) = run_mode_to_completion(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
    );
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn cicero_controller_agg_flow_completes_modeled() {
    let (engine, _) = run_mode_to_completion(
        Mode::Cicero {
            aggregation: Aggregation::Controller,
        },
        CryptoMode::Modeled,
    );
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn cicero_flow_completes_with_real_threshold_crypto() {
    let (engine, _) = run_mode_to_completion(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Real,
    );
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
    // Every update on the 3-switch path was applied and none rejected.
    let applied = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count();
    assert_eq!(applied, 3);
    assert!(!engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::UpdateRejected { .. })));
}

#[test]
fn reverse_path_order_is_respected() {
    let (engine, topo) = run_mode_to_completion(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
    );
    let (src, dst) = cross_rack_pair(&topo);
    let r = route(&topo, src, dst).unwrap();
    // Updates must be applied destination-first along the path.
    let applied_order: Vec<_> = engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::UpdateApplied { switch, .. } => Some(switch),
            _ => None,
        })
        .collect();
    let mut expected = r.path.clone();
    expected.reverse();
    assert_eq!(applied_order, expected, "downstream-first installation");
}

#[test]
fn rules_are_reused_for_subsequent_flows() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(5));
    let events_after_first = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::EventProcessed { .. }))
        .count();
    engine.inject_flow(FlowId(2), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(10));
    assert_eq!(completed_flows(&engine), vec![FlowId(1), FlowId(2)]);
    let events_after_second = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::EventProcessed { .. }))
        .count();
    assert_eq!(
        events_after_first, events_after_second,
        "the second flow reuses the installed rules (no new event)"
    );
}

#[test]
fn teardown_mode_generates_fresh_setup_per_flow() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.rule_reuse = false;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(5));
    engine.inject_flow(FlowId(2), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(15));
    assert_eq!(completed_flows(&engine).len(), 2);
    // Each flow raised its own PacketIn (plus teardowns): >= 2 PacketIn
    // events processed.
    let events = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::EventProcessed { .. }))
        .count();
    assert!(events >= 3, "setup+teardown per flow, got {events} events");
}

#[test]
fn rogue_controller_update_is_rejected_by_quorum() {
    // A single malicious controller sends an update no quorum backs; the
    // switch must never apply it.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    let topo = Topology::single_pod(2, 2, 2);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);

    // Forge a share-signed "deny everything" update from controller 2 only.
    let victim = topo.switches()[2].id; // a ToR
    let rogue_update = southbound::types::NetworkUpdate {
        id: southbound::types::UpdateId {
            event: southbound::types::EventId(0xdead),
            seq: 0,
        },
        switch: victim,
        kind: southbound::types::UpdateKind::Install(southbound::types::FlowRule {
            matcher: southbound::types::FlowMatch {
                src: HostId(0),
                dst: HostId(1),
            },
            action: southbound::types::FlowAction::Deny,
        }),
    };
    // The rogue only has one share; it fabricates partials under made-up
    // indices to fake a quorum.
    let shared = engine.shared().clone();
    let keys = &shared.keys;
    let _ = keys;
    let ctrl_node = engine.controller_node(southbound::types::DomainId(0), southbound::types::ControllerId(2));
    let body = cicero_core::msg::UpdateBody {
        update: rogue_update,
        gates: Vec::new(),
        notify: Vec::new(),
        held: false,
    };
    let domain = southbound::types::DomainId(0);
    let (set, members) = cicero_core::msg::UpdateSet::of(southbound::merkle::TreeHash::Sha256, rogue_update.id.event, domain, vec![body]);
    for fake_index in [1u32, 2, 3] {
        let msg = southbound::envelope::ShareSigned {
            payload: set,
            phase: southbound::types::Phase(0),
            msg_id: southbound::envelope::MsgId {
                origin: 2,
                seq: 1000 + fake_index as u64,
            },
            partial: blscrypto::bls::PartialSignature {
                index: fake_index,
                sig: blscrypto::curves::g1_generator().to_affine(),
            },
        };
        engine.inject_raw(
            SimTime::ZERO + SimDuration::from_millis(1),
            ctrl_node,
            engine.switch_node(victim),
            Net::UpdateMsg(msg, Box::new(members[0].clone())),
        );
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(5));
    // The aggregate cannot verify; the update must be rejected, not applied.
    assert!(engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::UpdateRejected { .. })));
    assert!(!engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::UpdateApplied { .. })));
    let denied = engine.with_switch(victim, |s| {
        s.table().rule(southbound::types::FlowMatch {
            src: HostId(0),
            dst: HostId(1),
        })
    });
    assert_eq!(denied, None, "rogue rule must not be installed");
}

#[test]
fn multi_domain_cross_pod_flow_completes() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::multi_pod(2, 2, 2, 2, 2);
    let dm = DomainMap::by_pod(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    // Pick hosts in different pods.
    let hosts = topo.hosts();
    let src = hosts[0].id;
    let dst = hosts
        .iter()
        .find(|h| h.loc.pod != hosts[0].loc.pod)
        .expect("two pods")
        .id;
    engine.inject_flow(FlowId(7), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(20));
    assert_eq!(completed_flows(&engine), vec![FlowId(7)]);
    // At least two domains processed the event (origin + forwarded).
    let domains: std::collections::BTreeSet<_> = engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::EventProcessed { domain, .. } => Some(domain),
            _ => None,
        })
        .collect();
    assert!(domains.len() >= 2, "cross-domain forwarding, got {domains:?}");
}

#[test]
fn protocol_tolerates_message_loss() {
    // 5% uniform message loss: PBFT re-forwards and per-update quorums have
    // slack (2-of-4), so flows still complete.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    engine.set_faults(simnet::fault::FaultPlan::none().with_drop_probability(0.05));
    let (src, dst) = cross_rack_pair(&topo);
    for id in 1..=5u64 {
        engine.inject_flow(FlowId(id), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(60));
    assert_eq!(completed_flows(&engine).len(), 5, "all flows complete despite loss");
}

#[test]
fn protocol_tolerates_duplicated_messages() {
    // 20% duplication: unique update/event ids make everything idempotent.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    engine.set_faults(simnet::fault::FaultPlan::none().with_duplicate_probability(0.2));
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(30));
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
    // Updates were applied exactly once per switch despite duplicates.
    let applied = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count();
    assert_eq!(applied, 3);
}

#[test]
fn crashed_controller_does_not_block_cicero() {
    // One of four controllers crashes at t=0: the quorum (2) still forms and
    // the BFT group (f=1) still orders events.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let victim = engine.controller_node(southbound::types::DomainId(0), southbound::types::ControllerId(4));
    engine.set_faults(simnet::fault::FaultPlan::none().with_crash(SimTime::ZERO, victim));
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(30));
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn crashed_primary_controller_recovers_via_view_change() {
    // The consensus primary (controller 1, also the aggregator/lowest id)
    // crashes: PBFT changes views and the protocol continues.
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let primary = engine.controller_node(southbound::types::DomainId(0), southbound::types::ControllerId(1));
    engine.set_faults(simnet::fault::FaultPlan::none().with_crash(SimTime::ZERO, primary));
    let (src, dst) = cross_rack_pair(&topo);
    engine.inject_flow(FlowId(1), src, dst, 1_000, engine.now() + SimDuration::from_millis(1));
    engine.run(SimTime::ZERO + SimDuration::from_secs(60));
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
}

#[test]
fn event_linearizability_holds_across_controllers() {
    // Paper §4.4: Cicero's execution is indistinguishable from a correct
    // sequential controller — concretely, all replicas deliver the same
    // event sequence (prefix-consistent under lag).
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 4);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    // A burst of flows from many sources → many concurrent events.
    let hosts = topo.hosts();
    for i in 0..12u64 {
        let src = hosts[(i as usize) % hosts.len()].id;
        let dst = hosts[(i as usize + 5) % hosts.len()].id;
        if src != dst {
            let start = engine.now() + SimDuration::from_millis(1);
            engine.inject_flow(FlowId(100 + i), src, dst, 1_000, start);
        }
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(30));
    cicero_core::obs::check_event_linearizability(engine.observations(), &Default::default())
        .expect("controllers must deliver identical event sequences");
    // And the sequences are non-trivial.
    let seqs = cicero_core::obs::delivery_sequences(engine.observations());
    assert_eq!(seqs.len(), 4, "one sequence per controller");
    assert!(seqs.values().next().unwrap().len() >= 5);
}

#[test]
fn event_linearizability_holds_under_message_loss() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    let topo = Topology::single_pod(4, 2, 4);
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    engine.set_faults(simnet::fault::FaultPlan::none().with_drop_probability(0.03));
    let hosts = topo.hosts();
    for i in 0..8u64 {
        let src = hosts[(i as usize) % hosts.len()].id;
        let dst = hosts[(i as usize + 7) % hosts.len()].id;
        if src != dst {
            let start = engine.now() + SimDuration::from_millis(1);
            engine.inject_flow(FlowId(200 + i), src, dst, 1_000, start);
        }
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(60));
    cicero_core::obs::check_event_linearizability(engine.observations(), &Default::default())
        .expect("total order must survive message loss");
}

/// A replayed event and a duplicate acknowledgement are dropped on the
/// cheap state check, before their tags are looked at: zero checks, no
/// observation, no pending-graph change. A *fresh* event through the same
/// door is tag-checked — the counter is live.
#[test]
fn duplicates_are_dropped_before_their_signatures_are_checked() {
    use southbound::envelope::{MsgId, Tagged};
    use southbound::types::{ControllerId, DomainId, Event, EventId, EventKind, Phase, UpdateId};

    let (mut engine, topo) = run_mode_to_completion(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Modeled,
    );
    assert_eq!(completed_flows(&engine), vec![FlowId(1)]);
    let (src, dst) = cross_rack_pair(&topo);
    let ingress = topo.host(src).unwrap().attached;
    // The flow's PacketIn was the ingress switch's first event.
    let event = Event {
        id: EventId((u64::from(ingress.0) << 32) | 1),
        kind: EventKind::PacketIn {
            switch: ingress,
            flow: FlowId(1),
            src,
            dst,
        },
        origin: DomainId(0),
        forwarded: false,
    };
    fn envelope<T>(payload: T, origin: u32, seq: u64) -> Tagged<T> {
        Tagged {
            payload,
            phase: Phase(0),
            msg_id: MsgId { origin, seq },
            tag: [0; 32],
        }
    }
    let ack = Tagged {
        payload: cicero_core::msg::AckBody {
            update: UpdateId {
                event: event.id,
                seq: 0,
            },
            switch: ingress,
        },
        phase: Phase(0),
        msg_id: MsgId {
            origin: ingress.0,
            seq: 901,
        },
        tag: [0; 32],
    };
    let snapshot = |engine: &mut Engine| -> Vec<(u64, u64, usize, usize)> {
        (1..=4)
            .map(|c| {
                engine.with_controller(DomainId(0), ControllerId(c), |a| {
                    (
                        a.auth().checks(),
                        a.auth().mac_checks(),
                        a.pending().in_flight_count(),
                        a.pending().waiting_count(),
                    )
                })
            })
            .collect()
    };
    let before = snapshot(&mut engine);
    assert!(before.iter().all(|&(checks, macs, ..)| checks == 0 && macs > 0));
    let n_obs = engine.observations().len();
    let at = engine.now() + SimDuration::from_millis(1);
    let switch = engine.switch_node(ingress);
    for c in 1..=4 {
        let node = engine.controller_node(DomainId(0), ControllerId(c));
        engine.inject_raw(at, switch, node, Net::EventMsg(envelope(event, ingress.0, 900)));
        engine.inject_raw(at, switch, node, Net::AckMsg(ack.clone()));
    }
    engine.run(at + SimDuration::from_secs(1));
    assert_eq!(snapshot(&mut engine), before, "replays must cost and change nothing");
    assert_eq!(engine.observations().len(), n_obs, "replays must be unobservable");

    let fresh = Event {
        id: EventId((u64::from(ingress.0) << 32) | 77),
        kind: EventKind::PolicyChange { policy: 1 },
        ..event
    };
    let at = engine.now() + SimDuration::from_millis(1);
    let node = engine.controller_node(DomainId(0), ControllerId(1));
    engine.inject_raw(at, switch, node, Net::EventMsg(envelope(fresh, ingress.0, 902)));
    engine.run(at + SimDuration::from_secs(1));
    assert_eq!(snapshot(&mut engine)[0].1, before[0].1 + 1);
}
