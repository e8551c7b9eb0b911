//! Security properties (paper §3.2) under **real** cryptography: switches
//! apply updates only with a verifiable quorum; controllers only accept
//! authentic events and acknowledgements.

use blscrypto::bls::{PartialSignature, SecretKey};
use blscrypto::curves::g1_generator;
use cicero::prelude::*;
use cicero_core::auth::{pair_key, Peer};
use cicero_core::msg::{ReadyBody, UpdateBody};
use cicero_core::runtime::SecretStore;
use simcheck::harness::{self, applied_count as applied};
use substrate::rng::{SeedableRng, StdRng};
use simnet::sim::ENVIRONMENT;
use southbound::envelope::{MsgId, QuorumSigned, ShareSigned, Tagged};

fn build() -> (Engine, Topology) {
    let topo = Topology::single_pod(2, 2, 2);
    let engine = harness::build_engine(
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        CryptoMode::Real,
        &topo,
    );
    (engine, topo)
}

fn rogue_update(victim: SwitchId) -> UpdateBody {
    let update = NetworkUpdate {
        id: UpdateId {
            event: EventId(0xbad),
            seq: 0,
        },
        switch: victim,
        kind: UpdateKind::Install(FlowRule {
            matcher: FlowMatch {
                src: HostId(0),
                dst: HostId(1),
            },
            action: FlowAction::Deny,
        }),
    };
    UpdateBody {
        update,
        gates: Vec::new(),
        notify: Vec::new(),
    }
}

/// A share of `body` under `index`, not signed by anyone's key share.
fn rogue_share(body: UpdateBody, index: u32) -> Net {
    Net::UpdateMsg(ShareSigned {
        payload: body,
        phase: Phase(0),
        msg_id: MsgId {
            origin: index,
            seq: 1,
        },
        partial: PartialSignature {
            index,
            sig: g1_generator().to_affine(),
        },
    })
}

/// An "aggregate" over `body` fabricated with a key of the attacker's own.
fn forged_aggregate(body: UpdateBody) -> Net {
    let fake_key = SecretKey::generate(&mut StdRng::seed_from_u64(666));
    let digest = southbound::envelope::signing_digest("CICERO_UPDATE_V1", Phase(0), &body);
    Net::UpdateAggregated(QuorumSigned {
        payload: body,
        phase: Phase(0),
        msg_id: MsgId { origin: 1, seq: 1 },
        signature: fake_key.sign(&digest),
    })
}

#[test]
fn below_quorum_updates_are_never_applied() {
    let (mut engine, topo) = build();
    let victim = topo.switches()[2].id;
    let rogue = engine.controller_node(DomainId(0), ControllerId(2));
    engine.inject_raw(
        SimTime::ZERO + SimDuration::from_millis(1),
        rogue,
        engine.switch_node(victim),
        rogue_share(rogue_update(victim), 2),
    );
    engine.run(SimTime::ZERO + SimDuration::from_secs(3));
    assert_eq!(applied(&engine), 0);
}

/// A switch admits an update only in the arrival form its mode uses. Each
/// form's check is sound only where it is the mode's own: before this was
/// enforced, the rogue update of the test above sent as `UpdatePlain` was
/// applied by a `Cicero` switch on one controller's word (`signers = 1`).
#[test]
fn a_switch_admits_only_its_modes_arrival_form() {
    let cicero = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    let cicero_agg = Mode::Cicero {
        aggregation: Aggregation::Controller,
    };
    let plain: fn(UpdateBody) -> Net = Net::UpdatePlain;
    let share: fn(UpdateBody) -> Net = |body| rogue_share(body, 2);
    let foreign_forms = [
        (cicero, "plain", plain),
        (cicero, "aggregate", forged_aggregate),
        (cicero_agg, "plain", plain),
        (cicero_agg, "share", share),
        (Mode::Segway, "plain", plain),
        (Mode::Segway, "aggregate", forged_aggregate),
    ];
    for (mode, form, envelope) in foreign_forms {
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine(mode, CryptoMode::Real, &topo);
        let victim = topo.switches()[2].id;
        let rogue = engine.controller_node(DomainId(0), ControllerId(2));
        engine.inject_raw(
            SimTime::ZERO + SimDuration::from_millis(1),
            rogue,
            engine.switch_node(victim),
            envelope(rogue_update(victim)),
        );
        engine.run(SimTime::ZERO + SimDuration::from_secs(3));
        let case = format!("{} switch, {form} update", mode.label());
        assert_eq!(applied(&engine), 0, "{case}: applied");
        let rejected = engine
            .observations()
            .iter()
            .filter(|o| matches!(o.value, Obs::UpdateRejected { switch, .. } if switch == victim))
            .count();
        assert_eq!(rejected, 1, "{case}: must be refused at the front door");
        let rules = engine.with_switch(victim, |s| s.table().len());
        assert_eq!(rules, 0, "{case}: flow table touched");
    }
}

#[test]
fn forged_quorum_fails_group_key_verification() {
    let (mut engine, topo) = build();
    let victim = topo.switches()[2].id;
    let rogue = engine.controller_node(DomainId(0), ControllerId(2));
    let update = rogue_update(victim);
    for idx in [1u32, 2, 3, 4] {
        engine.inject_raw(
            SimTime::ZERO + SimDuration::from_millis(1),
            rogue,
            engine.switch_node(victim),
            Net::UpdateMsg(ShareSigned {
                payload: update.clone(),
                phase: Phase(0),
                msg_id: MsgId {
                    origin: 2,
                    seq: idx as u64,
                },
                partial: PartialSignature {
                    index: idx,
                    sig: g1_generator()
                        .mul_fr(blscrypto::fields::Fr::from_u64(idx as u64 + 7))
                        .to_affine(),
                },
            }),
        );
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(3));
    assert_eq!(applied(&engine), 0);
    assert!(engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::UpdateRejected { .. })));
}

#[test]
fn forged_aggregated_update_is_rejected_in_controller_agg_mode() {
    let topo = Topology::single_pod(2, 2, 2);
    let mut engine = harness::build_engine(
        Mode::Cicero {
            aggregation: Aggregation::Controller,
        },
        CryptoMode::Real,
        &topo,
    );
    let victim = topo.switches()[2].id;
    // A malicious "aggregator" fabricates an aggregated signature.
    let rogue = engine.controller_node(DomainId(0), ControllerId(1));
    engine.inject_raw(
        SimTime::ZERO + SimDuration::from_millis(1),
        rogue,
        engine.switch_node(victim),
        forged_aggregate(rogue_update(victim)),
    );
    engine.run(SimTime::ZERO + SimDuration::from_secs(3));
    assert_eq!(applied(&engine), 0);
    assert!(engine
        .observations()
        .iter()
        .any(|o| matches!(o.value, Obs::UpdateRejected { .. })));
}

#[test]
fn unauthenticated_events_are_ignored() {
    let (mut engine, topo) = build();
    // An attacker injects a PacketIn claiming to be from a switch, over that
    // switch's channel, tagged for each controller under a key it derived
    // with a secret of its own: controllers must not process it.
    let switch = topo.switches()[2].id;
    let attacker_key = SecretKey::generate(&mut StdRng::seed_from_u64(1234));
    let event = Event {
        id: EventId(0xf00),
        kind: EventKind::PacketIn {
            switch,
            flow: FlowId(1),
            src: HostId(0),
            dst: HostId(1),
        },
        origin: DomainId(0),
        forwarded: false,
    };
    let msg_id = MsgId { origin: switch.0, seq: 1 };
    for c in 1..=4u32 {
        let reader = Peer::Controller(DomainId(0), ControllerId(c));
        let victim = engine.shared().keys.controller_pk[&(DomainId(0), ControllerId(c))];
        let key = pair_key(&attacker_key, &victim, Peer::Switch(switch), reader);
        let forged = Tagged::tag("CICERO_EVENT_V1", event, Phase(0), msg_id, &key);
        let node = engine.controller_node(DomainId(0), ControllerId(c));
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        engine.inject_raw(at, engine.switch_node(switch), node, Net::EventMsg(forged));
    }
    engine.run(SimTime::ZERO + SimDuration::from_secs(3));
    assert!(
        !engine
            .observations()
            .iter()
            .any(|o| matches!(o.value, Obs::EventProcessed { .. })),
        "forged events must not enter agreement"
    );
    assert_eq!(applied(&engine), 0);
    for c in 1..=4 {
        let macs = engine.with_controller(DomainId(0), ControllerId(c), |a| a.auth().mac_checks());
        assert_eq!(macs, 1, "controller {c}: checked and refused");
    }
}

// ----- switch events: one body, one id, tagged once per reader -----

mod events {
    use super::*;
    use simnet::node::NodeId;

    const EVENT: &str = "CICERO_EVENT_V1";

    /// The [`build`] fabric, its ingress switch for the tests' event, and
    /// the secrets the key ceremony handed its actors.
    fn fabric() -> (Engine, SwitchId, SecretStore) {
        let (engine, topo) = build();
        let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
        let shared = engine.shared().clone();
        let (_, secrets) = bootstrap_keys(CryptoMode::Real, &switches, &shared.dir, shared.cfg.seed);
        (engine, switches[2], secrets)
    }

    /// An event raised by switch `s` that nobody has seen.
    fn event(s: SwitchId) -> Event {
        Event {
            id: EventId((u64::from(s.0) << 32) | 0xe0),
            kind: EventKind::PolicyChange { policy: 1 },
            origin: DomainId(0),
            forwarded: false,
        }
    }

    /// `body` as switch `s` tags it for controller `c`, under `s`'s id.
    fn tagged(engine: &Engine, secrets: &SecretStore, s: SwitchId, c: u32, body: Event) -> Tagged<Event> {
        let reader = Peer::Controller(DomainId(0), ControllerId(c));
        let pk = engine.shared().keys.controller_pk[&(DomainId(0), ControllerId(c))];
        let key = pair_key(&secrets.switch_sk[&s], &pk, Peer::Switch(s), reader);
        Tagged::tag(EVENT, body, Phase(0), MsgId { origin: s.0, seq: 0xe0 }, &key)
    }

    /// Hands controller `c` the message over node `from`'s channel and runs
    /// the engine on for half a second.
    fn deliver(engine: &mut Engine, from: NodeId, c: u32, m: Tagged<Event>) {
        let at = engine.now() + SimDuration::from_millis(1);
        let to = engine.controller_node(DomainId(0), ControllerId(c));
        engine.inject_raw(at, from, to, Net::EventMsg(m));
        engine.run(at + SimDuration::from_millis(500));
    }

    fn processed(engine: &Engine, id: EventId) -> bool {
        engine
            .observations()
            .iter()
            .any(|o| matches!(o.value, Obs::EventProcessed { event, .. } if event == id))
    }

    fn mac_checks(engine: &mut Engine) -> Vec<u64> {
        (1..=4)
            .map(|c| engine.with_controller(DomainId(0), ControllerId(c), |a| a.auth().mac_checks()))
            .collect()
    }

    /// The switch's genuine tag over another body, moved onto the event:
    /// checked and refused by every controller; the genuine copy is taken.
    #[test]
    fn a_forged_event_tag_is_refused() {
        let (mut engine, s, secrets) = fabric();
        let e = event(s);
        let other = Event { kind: EventKind::PolicyChange { policy: 2 }, ..e };
        let node = engine.switch_node(s);
        for c in 1..=4 {
            let forged = Tagged { payload: e, ..tagged(&engine, &secrets, s, c, other) };
            deliver(&mut engine, node, c, forged);
        }
        assert!(!processed(&engine, e.id), "the forgery enters no agreement");
        assert_eq!(mac_checks(&mut engine), vec![1; 4], "each checked and refused");
        let genuine = tagged(&engine, &secrets, s, 2, e);
        deliver(&mut engine, node, 2, genuine);
        assert!(processed(&engine, e.id), "the genuine copy is taken");
    }

    /// The switch's genuine copy for controller 1, replayed to the other
    /// three over the switch's own channel: a tag is valid for its reader
    /// only.
    #[test]
    fn an_event_tagged_for_controller_1_and_replayed_to_controller_2_is_refused() {
        let (mut engine, s, secrets) = fabric();
        let e = event(s);
        let for_1 = tagged(&engine, &secrets, s, 1, e);
        let node = engine.switch_node(s);
        for c in 2..=4 {
            deliver(&mut engine, node, c, for_1.clone());
        }
        assert!(!processed(&engine, e.id), "the replays enter no agreement");
        assert_eq!(mac_checks(&mut engine), vec![0, 1, 1, 1], "each checked and refused");
        deliver(&mut engine, node, 1, for_1);
        assert!(processed(&engine, e.id), "its reader takes it");
    }

    /// Genuine copies of the switch's event, each over the channel of
    /// another switch or from outside the directory: the id names the
    /// sender, and the transport must agree before a tag is looked at.
    #[test]
    fn an_event_over_another_switchs_channel_is_dropped_unchecked() {
        let (mut engine, s, secrets) = fabric();
        let e = event(s);
        let other = engine.shared().dir.switch_node.iter().find(|(&t, _)| t != s).map(|(_, &n)| n);
        for from in [other.expect("four switches"), ENVIRONMENT] {
            for c in 1..=4 {
                let copy = tagged(&engine, &secrets, s, c, e);
                deliver(&mut engine, from, c, copy);
            }
        }
        assert!(!processed(&engine, e.id));
        assert_eq!(mac_checks(&mut engine), vec![0; 4], "not even checked");
        let node = engine.switch_node(s);
        let copy = tagged(&engine, &secrets, s, 3, e);
        deliver(&mut engine, node, 3, copy);
        assert!(processed(&engine, e.id), "over its own channel it is taken");
    }
}

#[test]
fn forged_acks_cannot_accelerate_the_reverse_path_pipeline() {
    // The reverse-path schedule releases update k only after the verified
    // ack of update k+1. An attacker pre-forging every ack — 32 random
    // bytes for a tag, or a genuine HMAC under a key of its own — must not
    // release anything early: completion time with the forged acks present
    // is never earlier than without them.
    fn run(forger: Option<fn(cicero_core::msg::AckBody, MsgId) -> Tagged<cicero_core::msg::AckBody>>) -> SimDuration {
        let (mut engine, topo) = build();
        let hosts = topo.hosts();
        let src = hosts[0].id;
        let dst = hosts
            .iter()
            .find(|h| h.attached != hosts[0].attached)
            .unwrap()
            .id;
        let r = route(&topo, src, dst).unwrap();
        assert_eq!(r.path.len(), 3);
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, start).unwrap();
        // PacketIn event ids are (switch << 32 | 1); forge acks for all
        // three updates of that event, addressed to all controllers.
        let event = EventId(((r.path[0].0 as u64) << 32) | 1);
        if let Some(forge) = forger {
            for seq in 0..3u32 {
                let body = cicero_core::msg::AckBody {
                    update: UpdateId { event, seq },
                    switch: r.path[seq as usize],
                };
                let id = MsgId {
                    origin: r.path[seq as usize].0,
                    seq: 100 + seq as u64,
                };
                let forged = forge(body, id);
                for c in 1..=4u32 {
                    let node = engine.controller_node(DomainId(0), ControllerId(c));
                    engine.inject_raw(
                        start + SimDuration::from_micros(100),
                        ENVIRONMENT,
                        node,
                        Net::AckMsg(forged.clone()),
                    );
                }
            }
        }
        engine.run(start + SimDuration::from_secs(10));
        if forger.is_some() {
            // The forgeries were looked at, not lost: each controller
            // checked the flow's event, its 3 honest acks and the 3 forged
            // ones.
            for c in 1..=4 {
                let macs = engine.with_controller(DomainId(0), ControllerId(c), |a| a.auth().mac_checks());
                assert_eq!(macs, 7, "controller {c}");
            }
        }
        engine
            .observations()
            .iter()
            .find_map(|o| match o.value {
                Obs::FlowCompleted { start, .. } => Some(o.at.since(start)),
                _ => None,
            })
            .expect("flow completes despite the attack")
    }

    let honest = run(None);
    let random_tag = run(Some(|payload, msg_id| {
        let mut tag = [0u8; 32];
        substrate::rng::Rng::fill_bytes(&mut StdRng::seed_from_u64(99), &mut tag);
        Tagged {
            payload,
            phase: Phase(0),
            msg_id,
            tag,
        }
    }));
    let attacker_keyed =
        run(Some(|body, id| Tagged::tag("CICERO_ACK_V1", body, Phase(0), id, &[0x66; 32])));
    for attacked in [random_tag, attacker_keyed] {
        assert!(
            attacked >= honest,
            "forged acks must not accelerate completion ({attacked} < {honest})"
        );
    }
}

fn build_segway() -> (Engine, Topology) {
    let topo = Topology::single_pod(2, 2, 2);
    let engine = harness::build_engine(Mode::Segway, CryptoMode::Real, &topo);
    (engine, topo)
}

const READY: &str = "CICERO_SEGWAY_READY_V1";

/// `body` tagged under `key`, as its `from` switch would send it.
fn ready_under(body: ReadyBody, seq: u64, key: &[u8; 32]) -> Tagged<ReadyBody> {
    let msg_id = MsgId { origin: body.from.0, seq };
    Tagged::tag(READY, body, Phase(0), msg_id, key)
}

/// The key an attacker derives for tags from `from` to `to` with a secret
/// of its own — the best it can do without `from`'s or `to`'s secret.
fn attacker_pair_key(engine: &Engine, seed: u64, from: SwitchId, to: SwitchId) -> [u8; 32] {
    let attacker = SecretKey::generate(&mut StdRng::seed_from_u64(seed));
    let victim = engine.shared().keys.switch_pk[&to];
    pair_key(&attacker, &victim, Peer::Switch(from), Peer::Switch(to))
}

/// Segway sanity anchor under real crypto: the decentralized mode completes
/// a cross-rack flow, and it demonstrably did so via switch-to-switch
/// releases (a verified `ReadySent` on the wire), not by accident.
#[test]
fn segway_flow_completes_under_real_crypto() {
    let (mut engine, topo) = build_segway();
    let hosts = topo.hosts();
    let src = hosts[0].id;
    let dst = hosts
        .iter()
        .find(|h| h.attached != hosts[0].attached)
        .unwrap()
        .id;
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, start).unwrap();
    engine.run(start + SimDuration::from_secs(10));
    let obs = engine.observations();
    assert!(
        obs.iter()
            .any(|o| matches!(o.value, Obs::FlowCompleted { .. })),
        "segway flow must complete under real crypto"
    );
    assert!(
        obs.iter().any(|o| matches!(o.value, Obs::ReadySent { .. })),
        "completion must have been ordered by tagged readies"
    );
    assert!(
        !obs.iter()
            .any(|o| matches!(o.value, Obs::ReadyRejected { .. })),
        "no ready is rejected in a fault-free run"
    );
}

/// A rogue switch forging a neighbor's ready (wrong key) must not release
/// the gated upstream segment early: every forged ready is rejected with a
/// `ReadyRejected` observation, and completion with the forgery in flight
/// is never earlier than the honest run.
#[test]
fn forged_readies_cannot_release_gated_segments_early() {
    fn run(with_forged_readies: bool) -> SimDuration {
        let (mut engine, topo) = build_segway();
        let hosts = topo.hosts();
        let src = hosts[0].id;
        let dst = hosts
            .iter()
            .find(|h| h.attached != hosts[0].attached)
            .unwrap()
            .id;
        let r = route(&topo, src, dst).unwrap();
        assert_eq!(r.path.len(), 3);
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, start).unwrap();
        if with_forged_readies {
            // PacketIn event ids are (switch << 32 | 1); under the
            // reverse-path schedule, update seq i targets r.path[i] and is
            // gated on (seq i+1, r.path[i+1]). Forge the ready each
            // upstream switch is waiting for, from the designated releaser
            // but under the attacker's key, and spray it across the window
            // in which the real bodies sit parked.
            let event = EventId(((r.path[0].0 as u64) << 32) | 1);
            for seq in 0..2u32 {
                let (from, to) = (r.path[seq as usize + 1], r.path[seq as usize]);
                let update = UpdateId { event, seq: seq + 1 };
                let key = attacker_pair_key(&engine, 77, from, to);
                let forged = ready_under(ReadyBody { update, from, to }, 200 + seq as u64, &key);
                for ms in [1u64, 3, 6, 10, 20] {
                    engine.inject_raw(
                        start + SimDuration::from_millis(ms),
                        ENVIRONMENT,
                        engine.switch_node(to),
                        Net::SegwayReady(forged.clone()),
                    );
                }
            }
        }
        engine.run(start + SimDuration::from_secs(10));
        if with_forged_readies {
            assert!(
                engine
                    .observations()
                    .iter()
                    .any(|o| matches!(o.value, Obs::ReadyRejected { .. })),
                "forged readies must surface as ReadyRejected"
            );
        }
        engine
            .observations()
            .iter()
            .find_map(|o| match o.value {
                Obs::FlowCompleted { start, .. } => Some(o.at.since(start)),
                _ => None,
            })
            .expect("flow completes despite the attack")
    }

    let honest = run(false);
    let attacked = run(true);
    assert!(
        attacked >= honest,
        "forged readies must not accelerate completion ({attacked} < {honest})"
    );
}

/// A captured ready replayed at a switch other than its `to` target is
/// rejected by the target binding alone — before any gate state is
/// touched. This is what stops a rogue switch from re-using one neighbor's
/// legitimate release to unlock a different victim.
#[test]
fn replayed_ready_at_the_wrong_victim_is_rejected() {
    let (mut engine, topo) = build_segway();
    let intended = topo.switches()[2].id;
    let victim = topo.switches()[3].id;
    assert_ne!(intended, victim);
    let from = topo.switches()[0].id;
    let update = UpdateId {
        event: EventId(0xbad),
        seq: 1,
    };
    let key = attacker_pair_key(&engine, 55, from, intended);
    let replayed = ready_under(ReadyBody { update, from, to: intended }, 9, &key);
    engine.inject_raw(
        SimTime::ZERO + SimDuration::from_millis(1),
        ENVIRONMENT,
        engine.switch_node(victim),
        Net::SegwayReady(replayed),
    );
    engine.run(SimTime::ZERO + SimDuration::from_secs(3));
    assert!(
        engine.observations().iter().any(|o| matches!(
            o.value,
            Obs::ReadyRejected { switch, .. } if switch == victim
        )),
        "misdirected ready must be rejected at the wrong victim"
    );
    assert_eq!(applied(&engine), 0);
}

// ----- Segway releases: kept readies, receiver-driven queries -----

mod segway_release {
    use super::*;
    use simnet::fault::FaultPlan;
    use simnet::node::{Actor, Context, Effect, NodeId};

    /// What one handler call sent and observed, read from its effects.
    struct Tap {
        sent: Vec<(NodeId, Net)>,
        seen: Vec<Obs>,
    }

    /// One release of the settled flow: `from` applied `update` and sent
    /// `to` the ready for it.
    #[derive(Clone, Copy, Debug)]
    struct Release {
        from: SwitchId,
        to: SwitchId,
        update: UpdateId,
    }

    /// The benchmark's fabric in small — two pods under two spines, one
    /// domain per pod — with one cross-pod Segway flow run to completion
    /// under real crypto, loss-free.
    fn settled() -> (Engine, Topology, Vec<Release>) {
        let mut cfg = EngineConfig::for_mode(Mode::Segway);
        cfg.crypto = CryptoMode::Real;
        let topo = Topology::multi_pod(2, 2, 2, 2, 2);
        let dm = DomainMap::by_pod(&topo);
        let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
        let hosts = topo.hosts();
        let src = hosts[0].id;
        let five_hops = |h: &&netmodel::topology::HostInfo| {
            route(&topo, src, h.id).is_some_and(|r| r.path.len() == 5)
        };
        let dst = hosts.iter().find(five_hops).expect("a cross-pod pair").id;
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, start).expect("routable");
        let report = engine.run_reporting(start + SimDuration::from_secs(5));
        assert!(report.completed, "{report}");
        assert_eq!(report.stats.total_recoveries(), 0, "a loss-free run asks for nothing");
        let releases = engine
            .observations()
            .iter()
            .filter_map(|o| match o.value {
                Obs::ReadySent { from, to, update } => Some(Release { from, to, update }),
                _ => None,
            })
            .collect();
        (engine, topo, releases)
    }

    /// What one switch's seam has done so far.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Ops {
        signs: u64,
        checks: u64,
        tags: u64,
        mac_checks: u64,
    }

    fn ops_of(engine: &mut Engine, s: SwitchId) -> Ops {
        engine.with_switch(s, |a| {
            let auth = a.auth();
            Ops {
                signs: auth.signs(),
                checks: auth.checks(),
                tags: auth.tags(),
                mac_checks: auth.mac_checks(),
            }
        })
    }

    /// [`Ops`] per switch, in switch order.
    fn ops(engine: &mut Engine, topo: &Topology) -> Vec<Ops> {
        let ids: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
        ids.into_iter().map(|s| ops_of(engine, s)).collect()
    }

    /// Hands releaser `r.from` a query for `update` from node `from` (the
    /// transport names the asker); returns what the handler did.
    fn ask(engine: &mut Engine, r: Release, update: UpdateId, from: NodeId) -> Tap {
        handle(engine, r.from, from, Net::SegwayReadyQuery { update })
    }

    /// Hands switch `at` the message `msg` over node `from`'s channel;
    /// returns what the handler did.
    fn handle(engine: &mut Engine, at: SwitchId, from: NodeId, msg: Net) -> Tap {
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(engine.now(), engine.switch_node(at), &mut rng);
        engine.with_switch(at, |a| a.on_message(&mut ctx, from, msg));
        let mut tap = Tap {
            sent: Vec::new(),
            seen: Vec::new(),
        };
        for effect in ctx.into_effects() {
            match effect {
                Effect::Send { to, msg, .. } => tap.sent.push((to, msg)),
                Effect::Observe(obs) => tap.seen.push(obs),
                Effect::Timer { .. } => {}
            }
        }
        tap
    }

    #[test]
    fn loss_free_flow_costs_each_switch_its_certificates_readies_acks_and_events_and_nothing_else() {
        let (mut engine, topo, releases) = settled();
        assert_eq!(releases.len(), 4, "five chained updates, four releases");
        let obs = engine.observations().to_vec();
        let applied = |s: SwitchId| {
            let here = |o: &&simnet::sim::Observation<Obs>| {
                matches!(o.value, Obs::UpdateApplied { switch, .. } if switch == s)
            };
            obs.iter().filter(here).count() as u64
        };
        let raised = |s: SwitchId| {
            let events: std::collections::BTreeSet<EventId> = obs
                .iter()
                .filter_map(|o| match o.value {
                    Obs::EventProcessed { event, .. } if event.0 >> 32 == u64::from(s.0) => Some(event),
                    _ => None,
                })
                .collect();
            events.len() as u64
        };
        let members = engine.shared().dir.initial_members.clone();
        let counted = ops(&mut engine, &topo);
        let mut total = (0, 0, 0, 0);
        for (info, n) in topo.switches().iter().zip(counted) {
            let s = info.id;
            let released = releases.iter().filter(|r| r.from == s).count() as u64;
            let accepted = releases.iter().filter(|r| r.to == s).count() as u64;
            let readers = members[&engine.shared().dir.domain_of_switch[&s]].len() as u64;
            // Signs: none — events, acks and readies are tagged. Checks: one
            // certificate per applied update. Tags: one per event reader,
            // one per ack reader and one per release; tag checks: one per
            // accepted ready. Nothing acknowledges a ready.
            assert_eq!(n.signs, 0, "signs of {s:?}");
            assert_eq!(n.checks, applied(s), "checks of {s:?}");
            assert_eq!(n.tags, (raised(s) + applied(s)) * readers + released, "tags of {s:?}");
            assert_eq!(n.mac_checks, accepted, "tag checks of {s:?}");
            total = (
                total.0 + n.signs,
                total.1 + n.checks,
                total.2 + n.tags,
                total.3 + n.mac_checks,
            );
        }
        assert_eq!(total, (0, 5, 4 + 5 * 4 + 4, 4), "the flow's switch-side budget");
        // Each event and ack tag is checked once where it was addressed, and
        // so is the event's forward to each other domain on its path (the
        // two pods' and the spines').
        let mut tags = 0;
        for (d, c) in members.iter().flat_map(|(&d, cs)| cs.iter().map(move |&c| (d, c))) {
            tags += engine.with_controller(d, c, |a| a.auth().mac_checks());
        }
        assert_eq!(members.len(), 3);
        assert_eq!(tags, (1 + 5) * 4 + 2, "one event and five acks, four readers each; two forwards");
    }

    #[test]
    fn query_over_a_wrong_channel_for_a_switch_never_released_or_an_unapplied_update_is_ignored() {
        let (mut engine, topo, releases) = settled();
        let r = releases[0];
        let other = topo.switches().iter().map(|s| s.id).find(|&s| s != r.from && s != r.to);
        let other = other.expect("ten switches");
        let unapplied = UpdateId {
            seq: r.update.seq + 100,
            ..r.update
        };
        let before = ops(&mut engine, &topo);
        // A query over a controller's channel; from a switch with no
        // release in the ledger, which the releaser's notify list never
        // named; and from the released switch for an update the releaser
        // never got.
        let domain = engine.shared().dir.domain_of_switch[&r.to];
        let controller = engine.controller_node(domain, ControllerId(1));
        for (update, from) in [
            (r.update, controller),
            (r.update, engine.switch_node(other)),
            (unapplied, engine.switch_node(r.to)),
        ] {
            let tap = ask(&mut engine, r, update, from);
            assert!(tap.sent.is_empty(), "answered {update:?} via {from:?}");
            assert!(tap.seen.is_empty());
        }
        assert_eq!(ops(&mut engine, &topo), before, "no crypto counter moves");
        // The same query from the released switch itself is answered.
        let asker = engine.switch_node(r.to);
        assert_eq!(ask(&mut engine, r, r.update, asker).sent.len(), 1);
    }

    #[test]
    fn repeated_queries_get_the_kept_ready_byte_for_byte_and_cost_no_signature() {
        let (mut engine, topo, releases) = settled();
        let r = releases[0];
        let before = ops(&mut engine, &topo);
        let asker = engine.switch_node(r.to);
        let mut replies = Vec::new();
        for n in 1..=100u32 {
            let tap = ask(&mut engine, r, r.update, asker);
            let [(to, Net::SegwayReady(m))] = &tap.sent[..] else {
                panic!("query {n}: one ready expected, got {:?}", tap.sent);
            };
            assert_eq!(*to, asker, "to the asker alone");
            let resent = Obs::ReadyRetransmitted {
                from: r.from,
                to: r.to,
                update: r.update,
                attempt: n,
            };
            assert_eq!(tap.seen, vec![resent]);
            replies.push(m.clone());
        }
        assert!(replies.iter().all(|m| *m == replies[0]), "one tagged ready, kept");
        let key = switch_key(&engine, &secrets_of(&engine, &topo), r.from, r.to);
        assert!(replies[0].verify(READY, &key), "tagged under k(from → to)");
        assert_eq!(ops(&mut engine, &topo), before, "nothing signed or tagged, nothing checked");
    }

    // ----- a ready is valid only at its addressee, only from its releaser -----

    /// A three-switch Segway route whose last hop `releaser` → `held` is
    /// severed for good: `held` sits with its body parked on the gate
    /// `(gate, releaser)`, whose ready never arrives.
    struct Parked {
        engine: Engine,
        secrets: SecretStore,
        gate: UpdateId,
        releaser: SwitchId,
        held: SwitchId,
        ingress: SwitchId,
    }

    fn parked() -> Parked {
        let (mut engine, topo) = build_segway();
        let (src, dst) = cross_rack(&topo);
        let path = route(&topo, src, dst).expect("routable").path;
        // Update seq i goes to path[i], gated on (seq i + 1, path[i + 1]).
        let (ingress, held, releaser) = (path[0], path[1], path[2]);
        let gate = UpdateId {
            event: EventId((u64::from(ingress.0) << 32) | 1),
            seq: 2,
        };
        let (a, b) = (engine.switch_node(releaser), engine.switch_node(held));
        let never = SimTime::ZERO + SimDuration::from_secs(3600);
        engine.set_faults(FaultPlan::none().with_severed_window(a, b, SimTime::ZERO, never));
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, start)
            .expect("routable");
        engine.run(start + SimDuration::from_secs(1));
        let applied_at = |s: SwitchId| {
            let obs = engine.observations();
            obs.iter().any(|o| matches!(o.value, Obs::UpdateApplied { switch, .. } if switch == s))
        };
        assert!(applied_at(releaser) && !applied_at(held), "the gate is closed at `held`");
        let secrets = secrets_of(&engine, &topo);
        Parked { engine, secrets, gate, releaser, held, ingress }
    }

    /// The key switch `maker` tags with for switch `reader`, derived from
    /// `maker`'s identity secret.
    fn switch_key(
        engine: &Engine,
        secrets: &SecretStore,
        maker: SwitchId,
        reader: SwitchId,
    ) -> [u8; 32] {
        let reader_pk = engine.shared().keys.switch_pk[&reader];
        let (from, to) = (Peer::Switch(maker), Peer::Switch(reader));
        pair_key(&secrets.switch_sk[&maker], &reader_pk, from, to)
    }

    impl Parked {
        fn key(&self, maker: SwitchId, reader: SwitchId) -> [u8; 32] {
            switch_key(&self.engine, &self.secrets, maker, reader)
        }

        /// The ready that opens the gate: from its releaser, to `held`.
        fn body(&self) -> ReadyBody {
            ReadyBody { update: self.gate, from: self.releaser, to: self.held }
        }

        /// Hands `held` the ready `msg` over the releaser's channel.
        fn deliver(&mut self, msg: Tagged<ReadyBody>) -> Tap {
            let from = self.engine.switch_node(self.releaser);
            handle(&mut self.engine, self.held, from, Net::SegwayReady(msg))
        }

        /// `forged` is refused at `held` — checked, rejected, nothing opened —
        /// and the honest ready, delivered next, does open the gate.
        fn refuses(mut self, forged: Tagged<ReadyBody>) {
            let before = ops_of(&mut self.engine, self.held);
            let tap = self.deliver(forged);
            let rejected = Obs::ReadyRejected {
                switch: self.held,
                update: self.gate,
                from: self.releaser,
            };
            assert_eq!(tap.seen, vec![rejected], "rejected, and no parked body went in");
            assert!(tap.sent.is_empty());
            let after = ops_of(&mut self.engine, self.held);
            assert_eq!(after.mac_checks, before.mac_checks + 1, "its tag was checked");
            let honest = ready_under(self.body(), 1, &self.key(self.releaser, self.held));
            let tap = self.deliver(honest);
            let held = self.held;
            let opened = |o: &Obs| matches!(o, Obs::UpdateApplied { switch, .. } if *switch == held);
            assert!(tap.seen.iter().any(opened), "the honest ready opens the gate");
        }
    }

    /// `held` once tagged a ready for the releaser under k(held → releaser);
    /// here a tag under that key comes back to `held` as the releaser's
    /// ready — only the direction each pair key is bound to refuses it.
    #[test]
    fn a_ready_reflected_back_to_its_maker_is_refused() {
        let p = parked();
        let reflected = ready_under(p.body(), 1, &p.key(p.held, p.releaser));
        p.refuses(reflected);
    }

    /// The releaser's genuine ready for a third switch, readdressed to
    /// `held`: the `to` binding passes, so only the tag refuses it.
    #[test]
    fn a_ready_tagged_for_another_switch_and_readdressed_is_refused() {
        let p = parked();
        let for_ingress = ReadyBody { to: p.ingress, ..p.body() };
        let mut readdressed = ready_under(for_ingress, 1, &p.key(p.releaser, p.ingress));
        readdressed.payload.to = p.held;
        p.refuses(readdressed);
    }

    /// A ready already accepted is dropped before its tag is checked:
    /// nothing observed, nothing sent, nothing opened again.
    #[test]
    fn a_ready_delivered_twice_is_checked_once() {
        let mut p = parked();
        let honest = ready_under(p.body(), 1, &p.key(p.releaser, p.held));
        let before = ops_of(&mut p.engine, p.held);
        let first = p.deliver(honest.clone());
        assert!(first.seen.iter().any(|o| matches!(o, Obs::UpdateApplied { .. })));
        let second = p.deliver(honest);
        assert!(second.seen.is_empty() && second.sent.is_empty());
        let after = ops_of(&mut p.engine, p.held);
        assert_eq!(after.mac_checks, before.mac_checks + 1, "one check for both copies");
    }
}

/// The secrets the key ceremony handed `engine`'s actors, re-derived (the
/// ceremony is a pure function of the seed).
fn secrets_of(engine: &Engine, topo: &Topology) -> SecretStore {
    let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
    let shared = engine.shared();
    bootstrap_keys(CryptoMode::Real, &switches, &shared.dir, shared.cfg.seed).1
}

// ----- the transport names the sender; a share occupies only its sender's slot -----

mod transport_sender {
    use super::*;
    use bft::message::{BftMessage, BftPayload, Slot};
    use cicero_core::msg::{OrderedOp, PhaseInfo};
    use controller::membership::ControlPlaneView;
    use simnet::fault::FaultPlan;
    use simnet::node::NodeId;

    const D: DomainId = DomainId(0);

    fn fabric(mode: Mode, crypto: CryptoMode) -> (Engine, Topology) {
        let topo = Topology::single_pod(2, 2, 2);
        (harness::build_engine(mode, crypto, &topo), topo)
    }

    fn ctrl(engine: &Engine, c: u32) -> NodeId {
        engine.controller_node(D, ControllerId(c))
    }

    /// A complete PBFT round for "add standby controller 5" at replica 3
    /// (view 0, sequence 1): the primary's proposal, two more prepares, three
    /// commits — each as `(the controller whose vote it is, the message)`.
    fn round() -> Vec<(u32, BftMessage<OrderedOp>)> {
        let op = OrderedOp::AddController(ControllerId(5));
        let (view, seq, digest) = (0, 1, op.digest());
        let prepare = BftMessage::Prepare { view, seq, digest };
        let commit = BftMessage::Commit { view, seq, digest };
        let propose = BftMessage::PrePrepare {
            view,
            seq,
            slot: Slot::Payload(op),
        };
        vec![
            (1, propose),
            (2, prepare.clone()),
            (4, prepare),
            (1, commit.clone()),
            (2, commit.clone()),
            (4, commit),
        ]
    }

    /// Delivers the round to controller 3, each vote over the channel
    /// `channel` picks for its voter; returns controller 3's member count.
    fn members_after(channel: impl Fn(&Engine, u32) -> NodeId) -> usize {
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine_cfg(EngineConfig::for_mode(Mode::CICERO), &topo, 1);
        let victim = ctrl(&engine, 3);
        for (i, (voter, msg)) in round().into_iter().enumerate() {
            let at = SimTime::ZERO + SimDuration::from_micros(100 + 10 * i as u64);
            let consensus = Net::Consensus {
                phase: Phase(0),
                msg: Box::new(msg),
            };
            engine.inject_raw(at, channel(&engine, voter), victim, consensus);
        }
        engine.run(SimTime::ZERO + SimDuration::from_millis(20));
        engine.with_controller(D, ControllerId(3), |a| a.view().len())
    }

    #[test]
    fn a_member_cannot_vote_as_another_replica() {
        // Each vote over its voter's own channel: the op commits.
        assert_eq!(members_after(ctrl), 5, "an honest round admits controller 5");
        // Byzantine member 2 casts all of them: they count as its own one
        // vote (and its proposal as a non-primary's), whatever it intends.
        assert_eq!(members_after(|e, _| ctrl(e, 2)), 4, "one member's word is one vote");
    }

    #[test]
    fn a_switch_cannot_speak_consensus_or_answer_a_sync() {
        let a_switch = |e: &Engine, _| e.switch_node(SwitchId(1));
        assert_eq!(members_after(a_switch), 4, "a switch has no vote");

        // Controller 2 restarts cut off from its peers: it stays recovering
        // until one of them answers its sync request.
        let (mut engine, _) = fabric(Mode::CICERO, CryptoMode::Modeled);
        let me = ctrl(&engine, 2);
        let mut plan = FaultPlan::none().with_crash(SimTime::ZERO + SimDuration::from_millis(1), me);
        for c in [1, 3, 4] {
            plan = plan.with_severed_link(me, ctrl(&engine, c));
        }
        engine.set_faults(plan);
        engine.run(SimTime::ZERO + SimDuration::from_millis(2));
        engine.restart(me, false);
        let recovering = |e: &mut Engine| e.with_controller(D, ControllerId(2), |a| a.is_recovering());
        assert!(recovering(&mut engine));
        let answer = || Net::SyncReply { records: Vec::new() };
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_raw(at, engine.switch_node(SwitchId(1)), me, answer());
        engine.inject_raw(at, ENVIRONMENT, me, answer());
        engine.run(at + SimDuration::from_millis(1));
        assert!(recovering(&mut engine), "a switch's (or nobody's) answer completes no recovery");
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_raw(at, ctrl(&engine, 3), me, answer());
        engine.run(at + SimDuration::from_millis(1));
        assert!(!recovering(&mut engine), "a peer's does");
    }

    /// Member 4 files partials over the new phase notice under every other
    /// member's index at the aggregator (controller 1), again and again
    /// while the honest ones come in after a reshare. Filed, they would sit
    /// in the lowest slots, every aggregate would include them, and the
    /// switches would never learn the new phase — from one fault.
    #[test]
    fn squatted_slots_cannot_starve_the_phase_notice() {
        let mut cfg = EngineConfig::for_mode(Mode::CICERO);
        cfg.crypto = CryptoMode::Real;
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine_cfg(cfg, &topo, 1);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        engine.inject_membership(ms(1), D, OrderedOp::AddController(ControllerId(5)));
        let info = PhaseInfo {
            phase: Phase(1),
            quorum: 2,
            aggregator: ControllerId(1),
        };
        let (byzantine, aggregator) = (ctrl(&engine, 4), ctrl(&engine, 1));
        for wave in 0..200u64 {
            let at = ms(2) + SimDuration::from_micros(10 * wave);
            for index in [1u32, 2, 3, 5] {
                let junk = ShareSigned {
                    payload: info,
                    phase: info.phase,
                    msg_id: MsgId { origin: index, seq: wave },
                    partial: PartialSignature {
                        index,
                        sig: g1_generator().to_affine(),
                    },
                };
                engine.inject_raw(at, byzantine, aggregator, Net::PhasePartial(junk));
            }
        }
        engine.run(ms(50));
        for s in topo.switches() {
            let phase = engine.with_switch(s.id, |a| a.phase_info().phase);
            assert_eq!(phase, Phase(1), "switch {:?} never got the notice", s.id);
        }
    }

    /// Member 2 — the lowest slot but the aggregator's own — is Byzantine.
    /// Its genuine partial over the new phase notice never reaches the
    /// aggregator (their link fails as the reshare completes); a junk one,
    /// under its own index and over its own channel, does, before the
    /// change completes and again after. Kept last-wins and aggregated from
    /// the lowest `quorum` slots with no fallback, the junk would be in
    /// every aggregate and no switch would ever learn the new phase;
    /// collected, it is evicted and the others certify.
    #[test]
    fn a_members_junk_in_a_lowest_slot_cannot_starve_the_phase_notice() {
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        let build = || {
            let mut cfg = EngineConfig::for_mode(Mode::CICERO);
            cfg.crypto = CryptoMode::Real;
            let topo = Topology::single_pod(2, 2, 2);
            let mut engine = harness::build_engine_cfg(cfg, &topo, 1);
            engine.inject_membership(ms(1), D, OrderedOp::AddController(ControllerId(5)));
            (engine, topo)
        };
        // When member 2 completes the reshare, in an honest run.
        let (mut honest, _) = build();
        honest.run(ms(50));
        let member = ctrl(&honest, 2);
        let done = |o: &&simnet::sim::Observation<Obs>| {
            o.node == member && matches!(o.value, Obs::PhaseChanged { .. })
        };
        let rekeyed = honest.observations().iter().find(done).expect("member 2 re-keys").at;

        let (mut engine, topo) = build();
        let aggregator = ctrl(&engine, 1);
        let cut = FaultPlan::none().with_severed_window(member, aggregator, rekeyed, ms(1000));
        engine.set_faults(cut);
        let info = PhaseInfo {
            phase: Phase(1),
            quorum: 2,
            aggregator: ControllerId(1),
        };
        for (seq, at) in [(1, ms(1)), (2, rekeyed + SimDuration::from_millis(1))] {
            let junk = ShareSigned {
                payload: info,
                phase: info.phase,
                msg_id: MsgId { origin: 2, seq },
                partial: PartialSignature {
                    index: 2,
                    sig: g1_generator().to_affine(),
                },
            };
            engine.inject_raw(at, member, aggregator, Net::PhasePartial(junk));
        }
        engine.run(ms(50));
        for s in topo.switches() {
            let phase = engine.with_switch(s.id, |a| a.phase_info().phase);
            assert_eq!(phase, Phase(1), "switch {:?} never got the notice", s.id);
        }
    }

    /// A joiner adopts the view its domain's bootstrap controller sends it,
    /// and no other: not one a switch or another member made up.
    #[test]
    fn only_the_bootstrap_controller_can_hand_a_standby_its_view() {
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine_cfg(EngineConfig::for_mode(Mode::CICERO), &topo, 1);
        let mut view = ControlPlaneView::initial(4);
        view.add(ControllerId(1), ControllerId(5)).expect("the next identifier");
        let standby = ctrl(&engine, 5);
        let active = |e: &mut Engine| e.with_controller(D, ControllerId(5), |a| a.is_active());
        let mut at = SimTime::ZERO + SimDuration::from_millis(1);
        for from in [engine.switch_node(SwitchId(1)), ctrl(&engine, 2), ENVIRONMENT] {
            engine.inject_raw(at, from, standby, Net::StateSync { view: view.clone() });
            engine.run(at + SimDuration::from_millis(1));
            assert!(!active(&mut engine), "adopted a view from {from:?}");
            at = engine.now() + SimDuration::from_millis(1);
        }
        engine.inject_raw(at, ctrl(&engine, 1), standby, Net::StateSync { view });
        engine.run(at + SimDuration::from_millis(1));
        assert!(active(&mut engine), "the bootstrap's view is adopted");
    }

    /// A membership command is the operator's, from outside the fabric: a
    /// switch cannot have a controller removed through consensus.
    #[test]
    fn only_the_operator_can_propose_a_membership_change() {
        let mut cfg = EngineConfig::for_mode(Mode::CICERO);
        cfg.controllers_per_domain = 5;
        let topo = Topology::single_pod(2, 2, 2);
        let mut engine = harness::build_engine_cfg(cfg, &topo, 0);
        let members = |e: &mut Engine| e.with_controller(D, ControllerId(1), |a| a.view().len());
        let remove = || Net::MembershipCmd(OrderedOp::RemoveController(ControllerId(3)));
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        for c in 1..=5 {
            engine.inject_raw(at, engine.switch_node(SwitchId(1)), ctrl(&engine, c), remove());
        }
        engine.run(at + SimDuration::from_millis(100));
        assert_eq!(members(&mut engine), 5, "a switch proposed a removal");
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_raw(at, ENVIRONMENT, ctrl(&engine, 1), remove());
        engine.run(at + SimDuration::from_millis(100));
        assert_eq!(members(&mut engine), 4, "the operator's removal goes through");
    }

    /// Runs `engine`'s one cross-rack flow; the first update it applies, as
    /// the body its controllers share-signed, and on how many signers.
    fn run_flow(engine: &mut Engine, topo: &Topology) -> Option<(UpdateBody, u32)> {
        inject_cross_rack(engine, topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(3));
        engine.observations().iter().find_map(|o| match o.value {
            Obs::UpdateApplied { switch, update, kind, signers } => {
                let update = NetworkUpdate { id: update, switch, kind };
                Some((UpdateBody { update, gates: Vec::new(), notify: Vec::new() }, signers))
            }
            _ => None,
        })
    }

    /// One Byzantine controller races garbage shares of an update in under
    /// its three peers' indices, at the switch (switch aggregation) and at
    /// the aggregator (controller aggregation). Bucketed, they would get
    /// the honest shares refused as duplicates and then the honest signers
    /// blacklisted — an update that never reaches quorum, from one fault.
    #[test]
    fn squatted_slots_cannot_starve_an_update_of_its_quorum() {
        type Form = fn(ShareSigned<UpdateBody>) -> Net;
        let forms: [(Mode, Form); 2] =
            [(Mode::CICERO, Net::UpdateMsg), (Mode::CICERO_AGG, Net::UpdateToAggregator)];
        for (mode, form) in forms {
            // Signature checks of the share collector under attack: the
            // update's switch, or the aggregator (controller 1).
            let checks = |e: &mut Engine, s: SwitchId| match mode.aggregation() {
                Some(Aggregation::Switch) => e.with_switch(s, |a| a.auth().checks()),
                _ => e.with_controller(D, ControllerId(1), |a| a.auth().checks()),
            };
            let (mut honest, topo) = fabric(mode, CryptoMode::Real);
            let (body, _) = run_flow(&mut honest, &topo).expect("the honest run applies updates");
            let victim = body.update.switch;
            let honest_checks = checks(&mut honest, victim);

            let (mut engine, _) = fabric(mode, CryptoMode::Real);
            let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
            let shared = engine.shared().clone();
            let (_, secrets) = bootstrap_keys(CryptoMode::Real, &switches, &shared.dir, shared.cfg.seed);
            // Controller 2's own share over some other body, relabelled.
            let share = &secrets.domain_dkg[&D].participants[1].share;
            let collector = match mode.aggregation() {
                Some(Aggregation::Switch) => engine.switch_node(victim),
                _ => ctrl(&engine, 1),
            };
            for idx in [1u32, 3, 4] {
                let origin = MsgId { origin: idx, seq: 0xbad };
                let mut rogue =
                    ShareSigned::sign("CICERO_UPDATE_V1", rogue_update(victim), Phase(0), origin, share);
                rogue.payload = body.clone();
                rogue.partial.index = idx;
                let at = SimTime::ZERO + SimDuration::from_micros(500);
                engine.inject_raw(at, ctrl(&engine, 2), collector, form(rogue));
            }
            let case = mode.label();
            let (applied, signers) = run_flow(&mut engine, &topo).expect("the update still applies");
            assert_eq!(applied, body, "{case}");
            assert!(signers >= 2, "{case}: applied on {signers} signers, below quorum");
            assert_eq!(harness::completed_count(&engine), 1, "{case}: the flow completes");
            // Nothing was bucketed, so no aggregate failed and no fallback
            // ran: the collector checked exactly what the honest run did,
            // and evicted nobody.
            assert_eq!(checks(&mut engine, victim), honest_checks, "{case}: signature checks");
        }
    }
}

// ----- cross-domain handshake: tagged reports, receiver-driven queries -----

const SEED: u64 = 0x5e9;

/// A two-rack pod split into two domains under real crypto, `standby`
/// spare controllers in each, plus the secrets the key ceremony handed its
/// actors (the ceremony is a pure function of the seed, so re-running it
/// re-derives them).
fn split_fabric(standby: u32) -> (Engine, Topology, SecretStore) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    cfg.seed = SEED;
    let topo = Topology::single_pod(2, 1, 2);
    let dm = DomainMap::split_racks(&topo, 2);
    let engine = Engine::build(cfg, topo.clone(), dm, standby);
    let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
    let (keys, secrets) = bootstrap_keys(CryptoMode::Real, &switches, &engine.shared().dir, SEED);
    for (d, k) in &keys.domains {
        assert_eq!(
            k.public_key.key(),
            engine.shared().keys.domains[d].public_key.key(),
            "re-derived ceremony must match the engine's"
        );
    }
    (engine, topo, secrets)
}

/// The one boundary-crossing flow of [`split_fabric`]: `(src, dst)`.
fn cross_rack(topo: &Topology) -> (HostId, HostId) {
    let hosts = topo.hosts();
    let dst = hosts
        .iter()
        .find(|h| h.attached != hosts[0].attached)
        .expect("two racks");
    (hosts[0].id, dst.id)
}

/// Injects [`cross_rack`]'s flow as `FlowId(1)`.
fn inject_cross_rack(engine: &mut Engine, topo: &Topology) {
    let (src, dst) = cross_rack(topo);
    let start = SimTime::ZERO + SimDuration::from_millis(1);
    harness::inject_flow(engine, topo, FlowId(1), src, dst, 500, start).expect("routable");
}

mod handshake {
    use super::*;
    use super::inject_cross_rack as inject;
    use cicero_core::msg::{OrderedOp, SegmentBody, WalRecord};
    use simnet::fault::FaultPlan;
    use simnet::node::{Actor, Context, Effect, NodeId};
    use southbound::codec::Wire;
    use std::sync::OnceLock;
    use substrate::storage::{mem_disk, read_snapshot, DiskHandle, Wal};

    type Ctrl = (DomainId, u32);

    const SEGMENT: &str = "CICERO_SEGMENT_V1";
    const FORWARD: &str = "CICERO_FORWARD_V1";

    fn fabric() -> (Engine, Topology, SecretStore) {
        split_fabric(0)
    }

    /// What an honest run of the fabric looks like: which barrier the flow
    /// raises, who holds it, when the downstream domain delivers the event,
    /// and when the first report goes out.
    #[derive(Clone, Copy, Debug)]
    struct Probe {
        event: EventId,
        segment: u32,
        down: DomainId,
        up: DomainId,
        delivered_at: SimTime,
        reported_at: SimTime,
    }

    fn probe() -> Probe {
        static PROBE: OnceLock<Probe> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let (mut engine, topo, _) = fabric();
            inject(&mut engine, &topo);
            engine.run(SimTime::ZERO + SimDuration::from_secs(5));
            let obs = engine.observations();
            assert!(completed(&engine), "honest run must converge");
            let (event, segment, down, reported_at) = obs
                .iter()
                .find_map(|o| match o.value {
                    Obs::SegmentReported {
                        domain,
                        event,
                        segment,
                        ..
                    } => Some((event, segment, domain, o.at)),
                    _ => None,
                })
                .expect("a boundary-crossing flow raises a segment report");
            let up = obs
                .iter()
                .find_map(|o| match o.value {
                    Obs::BoundaryReleased { domain, .. } => Some(domain),
                    _ => None,
                })
                .expect("and a release");
            assert_ne!(up, down);
            let delivered_at = obs
                .iter()
                .find_map(|o| match o.value {
                    Obs::EventProcessed { domain, .. } if domain == down => Some(o.at),
                    _ => None,
                })
                .expect("the downstream domain delivers the forwarded event");
            // Honest cost of the handshake, per upstream controller: one
            // tag check per member of the quorum, however many reports arrive.
            for c in 1..=4 {
                let signers =
                    engine.with_controller(up, ControllerId(c), |a| a.barrier_signers(event, segment));
                assert_eq!(signers.len(), 2, "exactly the verified quorum is on record");
            }
            Probe {
                event,
                segment,
                down,
                up,
                delivered_at,
                reported_at,
            }
        })
    }

    fn completed(engine: &Engine) -> bool {
        engine
            .observations()
            .iter()
            .any(|o| matches!(o.value, Obs::FlowCompleted { .. }))
    }

    fn released(engine: &Engine) -> usize {
        engine
            .observations()
            .iter()
            .filter(|o| matches!(o.value, Obs::BoundaryReleased { .. }))
            .count()
    }

    fn body(p: Probe) -> SegmentBody {
        SegmentBody {
            event: p.event,
            segment: p.segment,
            domain: p.down,
        }
    }

    fn peer((d, c): Ctrl) -> Peer {
        Peer::Controller(d, ControllerId(c))
    }

    /// The key `from` tags with for `to`, derived with the identity secret
    /// of `secret` — `from`'s own, for a genuine tag.
    fn key(engine: &Engine, secrets: &SecretStore, secret: Ctrl, from: Ctrl, to: Ctrl) -> [u8; 32] {
        let x = &secrets.controller_sk[&(secret.0, ControllerId(secret.1))];
        let pk = engine.shared().keys.controller_pk[&(to.0, ControllerId(to.1))];
        pair_key(x, &pk, peer(from), peer(to))
    }

    /// `body` tagged under `key`, with an id from `origin`.
    fn tagged(body: SegmentBody, origin: u32, key: [u8; 32]) -> Tagged<SegmentBody> {
        Tagged::tag(SEGMENT, body, Phase(0), MsgId { origin, seq: 0xbad }, &key)
    }

    /// Sends `reports[c - 1]` over the channel of downstream controller
    /// `from` to upstream controller `c`, at t = 2 ms — long before the
    /// honest reports.
    fn inject_reports(engine: &mut Engine, p: Probe, from: u32, reports: Vec<Tagged<SegmentBody>>) {
        let src = engine.controller_node(p.down, ControllerId(from));
        for (c, m) in (1..=4).zip(reports) {
            let to = engine.controller_node(p.up, ControllerId(c));
            let at = SimTime::ZERO + SimDuration::from_millis(2);
            engine.inject_raw(at, src, to, Net::SegmentApplied(m));
        }
    }

    fn upstream_signers(engine: &mut Engine, p: Probe) -> Vec<Vec<(DomainId, u32)>> {
        (1..=4)
            .map(|c| {
                engine.with_controller(p.up, ControllerId(c), |a| {
                    a.barrier_signers(p.event, p.segment)
                })
            })
            .collect()
    }

    /// Runs `engine` up to the moment the first honest report is sent, and
    /// returns what every upstream controller has on record by then.
    fn signers_before_the_reports(engine: &mut Engine, p: Probe) -> Vec<Vec<(DomainId, u32)>> {
        engine.run(p.reported_at);
        upstream_signers(engine, p)
    }

    /// Tag checks made in the honest run: `(upstream, downstream)`
    /// controllers, in controller order.
    fn honest_mac_checks() -> &'static (Vec<u64>, Vec<u64>) {
        static CHECKS: OnceLock<(Vec<u64>, Vec<u64>)> = OnceLock::new();
        CHECKS.get_or_init(|| {
            let (mut engine, p, _) = settled();
            (mac_checks(&mut engine, p.up), mac_checks(&mut engine, p.down))
        })
    }

    /// `n` more tag checks than the honest run at every upstream controller.
    fn upstream_mac_checks_plus(n: u64) -> Vec<u64> {
        honest_mac_checks().0.iter().map(|m| m + n).collect()
    }

    /// A Byzantine downstream controller's tag over a *different* body —
    /// its real key, its own slot — moved onto the right one.
    #[test]
    fn forged_report_is_refused_and_the_barrier_still_releases() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let wrong = SegmentBody {
            segment: p.segment + 7,
            ..body(p)
        };
        let me = (p.down, 2);
        let forged = (1..=4)
            .map(|c| Tagged {
                payload: body(p),
                ..tagged(wrong, 2, key(&engine, &secrets, me, me, (p.up, c)))
            })
            .collect();
        inject_reports(&mut engine, p, 2, forged);
        inject(&mut engine, &topo);
        let early = signers_before_the_reports(&mut engine, p);
        assert!(early.iter().all(Vec::is_empty), "the forgery counts nowhere: {early:?}");
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine), "the barrier must release from honest reports");
        assert_eq!(released(&engine), 4, "every upstream controller releases once");
        for signers in upstream_signers(&mut engine, p) {
            assert_eq!(signers.len(), 2, "exactly a quorum is on record: {signers:?}");
        }
        // The forgery cost each upstream controller its tag check, nothing
        // more, and left nothing to evict.
        assert_eq!(mac_checks(&mut engine, p.up), upstream_mac_checks_plus(1));
    }

    #[test]
    fn f_shares_from_one_domain_never_release_the_barrier() {
        let p = probe();
        let (mut engine, topo, _) = fabric();
        // Only downstream controller 1 (f = 1 of n = 4) reaches the
        // upstream domain; its reports are perfectly valid.
        let mut plan = FaultPlan::none();
        for d in 2..=4 {
            for u in 1..=4 {
                plan = plan.with_severed_link(
                    engine.controller_node(p.down, ControllerId(d)),
                    engine.controller_node(p.up, ControllerId(u)),
                );
            }
        }
        engine.set_faults(plan);
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(3));
        assert_eq!(released(&engine), 0, "one reporter is below every quorum");
        assert!(!completed(&engine), "the boundary update stays held");
        for signers in upstream_signers(&mut engine, p) {
            assert_eq!(signers, vec![(p.down, 1)], "its one verified report, nothing else");
        }
        // Below quorum the upstream controllers keep re-forwarding, and
        // the lone reporter keeps answering.
        assert!(engine.observations().iter().any(|o| matches!(
            o.value,
            Obs::SegmentRetransmitted { controller: 1, .. }
        )));
    }

    #[test]
    fn report_tagged_with_another_domains_key_is_rejected() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        // Two reports claiming downstream controllers 1 and 2, each over its
        // claimed sender's channel, tagged with keys derived from the
        // *upstream* domain's identity secrets: a full quorum by count.
        for idx in [1u32, 2] {
            let (secret, claimed) = ((p.up, idx), (p.down, idx));
            let reports = (1..=4)
                .map(|c| tagged(body(p), idx, key(&engine, &secrets, secret, claimed, (p.up, c))))
                .collect();
            inject_reports(&mut engine, p, idx, reports);
        }
        inject(&mut engine, &topo);
        let early = signers_before_the_reports(&mut engine, p);
        assert!(early.iter().all(Vec::is_empty), "they certify nothing: {early:?}");
        // And the honest domain still gets through, its two forged slots
        // included: a refused report burns nothing.
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine));
        for signers in upstream_signers(&mut engine, p) {
            assert_eq!(signers.len(), 2, "{signers:?}");
        }
        assert_eq!(mac_checks(&mut engine, p.up), upstream_mac_checks_plus(2));
    }

    /// A genuine tag a downstream controller made for upstream controller 1,
    /// replayed to its peers.
    #[test]
    fn a_tag_made_for_one_upstream_controller_is_rejected_by_another() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let me = (p.down, 2);
        let for_1 = tagged(body(p), 2, key(&engine, &secrets, me, me, (p.up, 1)));
        let src = engine.controller_node(p.down, ControllerId(2));
        for c in 2..=4 {
            let to = engine.controller_node(p.up, ControllerId(c));
            let at = SimTime::ZERO + SimDuration::from_millis(2);
            engine.inject_raw(at, src, to, Net::SegmentApplied(for_1.clone()));
        }
        inject(&mut engine, &topo);
        let early = signers_before_the_reports(&mut engine, p);
        assert!(early[1..].iter().all(Vec::is_empty), "checked and refused: {early:?}");
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine));
        let mut want = upstream_mac_checks_plus(1);
        want[0] -= 1;
        assert_eq!(mac_checks(&mut engine, p.up), want, "one refused check at each of 2, 3 and 4");
    }

    /// Downstream controller 2 files controller 3's genuine report over its
    /// own channel.
    #[test]
    fn a_report_outside_its_senders_slot_is_dropped_unchecked() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let other = (p.down, 3);
        let reports = (1..=4)
            .map(|c| tagged(body(p), 3, key(&engine, &secrets, other, other, (p.up, c))))
            .collect();
        inject_reports(&mut engine, p, 2, reports);
        inject(&mut engine, &topo);
        let early = signers_before_the_reports(&mut engine, p);
        assert!(early.iter().all(Vec::is_empty), "counted in its sender's slot only: {early:?}");
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine));
        assert_eq!(mac_checks(&mut engine, p.up), upstream_mac_checks_plus(0), "not even checked");
    }

    /// The upstream domain has ordered downstream controller 4's removal
    /// (a `MembershipChanged` forward from the downstream bootstrap); 4 —
    /// identity key and channel intact — then reports early.
    #[test]
    fn a_report_from_a_controller_no_longer_a_member_is_dropped_unchecked() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let left = Event {
            id: EventId((1 << 48) | 1),
            kind: EventKind::MembershipChanged {
                domain: p.down,
                controller: ControllerId(4),
                added: false,
            },
            origin: p.down,
            forwarded: true,
        };
        let src = engine.controller_node(p.down, ControllerId(1));
        for c in 1..=4 {
            let notice = forward(&engine, &secrets, (p.down, 1), (p.up, c), left);
            let to = engine.controller_node(p.up, ControllerId(c));
            let at = SimTime::ZERO + SimDuration::from_micros(100);
            engine.inject_raw(at, src, to, notice);
        }
        let gone = (p.down, 4);
        let reports: Vec<Tagged<SegmentBody>> = (1..=4)
            .map(|c| tagged(body(p), 4, key(&engine, &secrets, gone, gone, (p.up, c))))
            .collect();
        let from = engine.controller_node(p.down, ControllerId(4));
        for (c, m) in (1..=4).zip(reports) {
            let to = engine.controller_node(p.up, ControllerId(c));
            engine.inject_raw(p.delivered_at, from, to, Net::SegmentApplied(m));
        }
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine));
        assert_eq!(released(&engine), 4);
        for signers in upstream_signers(&mut engine, p) {
            // Three members left: one report is a quorum, and it is not 4's.
            assert_eq!(signers.len(), 1, "{signers:?}");
            assert!(!signers.contains(&gone), "{signers:?}");
        }
    }

    /// Upstream controller 2 hands downstream controller 1 back a tag 1
    /// made for it, as its own report — over a body naming the upstream
    /// domain, so that only the tag stands between it and a signer slot.
    #[test]
    fn a_report_reflected_back_to_its_maker_is_refused() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let (maker, mirror) = ((p.down, 1), (p.up, 2));
        let claim = SegmentBody {
            domain: p.up,
            ..body(p)
        };
        let reflected = tagged(claim, 2, key(&engine, &secrets, maker, maker, mirror));
        let from = engine.controller_node(p.up, ControllerId(2));
        let to = engine.controller_node(p.down, ControllerId(1));
        let at = SimTime::ZERO + SimDuration::from_millis(2);
        engine.inject_raw(at, from, to, Net::SegmentApplied(reflected));
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine));
        let (signers, checked) = engine.with_controller(p.down, ControllerId(1), |a| {
            (a.barrier_signers(p.event, p.segment), a.auth().mac_checks())
        });
        assert!(signers.is_empty(), "{signers:?}");
        assert_eq!(checked, honest_mac_checks().1[0] + 1, "checked and refused");
    }

    /// A fresh event of the upstream domain, as its bootstrap forwards it.
    fn policy_change(p: Probe) -> Event {
        Event {
            id: EventId(0xfeed),
            kind: EventKind::PolicyChange { policy: 1 },
            origin: p.up,
            forwarded: true,
        }
    }

    /// Whether the downstream domain delivered event `id`.
    fn delivered_downstream(engine: &Engine, p: Probe, id: EventId) -> bool {
        engine.observations().iter().any(|o| {
            matches!(o.value, Obs::EventProcessed { domain, event } if domain == p.down && event == id)
        })
    }

    /// Upstream controller 1's genuine forward, tagged for downstream
    /// controller 1, re-addressed over 1's own channel to the other three
    /// members: each checks it and refuses it. The copy tagged for 2 is
    /// taken.
    #[test]
    fn a_forward_tagged_for_one_downstream_member_and_readdressed_to_another_is_refused() {
        let p = probe();
        let (mut engine, _, secrets) = fabric();
        let event = policy_change(p);
        let src = engine.controller_node(p.up, ControllerId(1));
        let for_1 = forward(&engine, &secrets, (p.up, 1), (p.down, 1), event);
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        for c in 2..=4 {
            engine.inject_raw(at, src, engine.controller_node(p.down, ControllerId(c)), for_1.clone());
        }
        engine.run(SimTime::ZERO + SimDuration::from_millis(500));
        assert!(!delivered_downstream(&engine, p, event.id), "the re-addressed copies count nowhere");
        assert_eq!(mac_checks(&mut engine, p.down), vec![0, 1, 1, 1], "each checked and refused");
        let for_2 = forward(&engine, &secrets, (p.up, 1), (p.down, 2), event);
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_raw(at, src, engine.controller_node(p.down, ControllerId(2)), for_2);
        engine.run(at + SimDuration::from_millis(500));
        assert!(delivered_downstream(&engine, p, event.id), "its own copy is taken");
    }

    /// A member that joined the upstream domain holds the barriers of the
    /// events it orders like every other member, and under real crypto the
    /// downstream reports are tagged for it too. With the reporters cut off
    /// from it when they report, it re-forwards the event — tagged under its
    /// own identity key — and the reporters answer with the copies they
    /// kept for it, which it checks with that key.
    #[test]
    fn a_joined_member_reforwards_and_is_answered_under_real_crypto() {
        let p = probe();
        let (mut engine, topo, _) = split_fabric(1);
        let joiner = ControllerId(5);
        let at = SimTime::ZERO + SimDuration::from_millis(1);
        engine.inject_membership(at, p.up, OrderedOp::AddController(joiner));
        engine.run(at + SimDuration::from_secs(2));
        let knows = |e: &mut Engine, c| e.with_controller(p.up, ControllerId(c), |a| a.view().len());
        assert_eq!(knows(&mut engine, 5), 5, "the joiner is a member");
        let start = engine.now();
        let reports_lost = start + SimDuration::from_millis(100);
        let mut plan = FaultPlan::none();
        for d in 1..=4 {
            let reporter = engine.controller_node(p.down, ControllerId(d));
            let node = engine.controller_node(p.up, joiner);
            plan = plan.with_severed_window(reporter, node, start, reports_lost);
        }
        engine.set_faults(plan);
        let (src, dst) = cross_rack(&topo);
        let flow_at = start + SimDuration::from_millis(1);
        harness::inject_flow(&mut engine, &topo, FlowId(1), src, dst, 500, flow_at).expect("routable");
        engine.run(start + SimDuration::from_secs(3));
        assert!(completed(&engine));
        let seen = |pred: &dyn Fn(&Obs) -> bool| engine.observations().iter().any(|o| pred(&o.value));
        assert!(seen(&|o| matches!(o, Obs::ForwardRetransmitted { domain, controller: 5, .. } if *domain == p.up)));
        assert!(seen(&|o| matches!(o, Obs::SegmentRetransmitted { domain, .. } if *domain == p.down)));
        assert!(seen(&|o| matches!(o, Obs::BoundaryReleased { domain, controller: 5, .. } if *domain == p.up)));
        let signers = engine.with_controller(p.up, joiner, |a| a.barrier_signers(p.event, p.segment));
        assert_eq!(signers.len(), 2, "a verified quorum on record at the joiner: {signers:?}");
    }

    /// `event` forwarded by controller `from` to controller `to`, tagged
    /// under their pair key — a zero tag where `from` holds no secret
    /// (modeled crypto).
    fn forward(engine: &Engine, secrets: &SecretStore, from: Ctrl, to: Ctrl, event: Event) -> Net {
        let msg_id = MsgId { origin: from.1, seq: 0xf0 };
        let tagged = match secrets.controller_sk.get(&(from.0, ControllerId(from.1))) {
            Some(_) => Tagged::tag(FORWARD, event, Phase(0), msg_id, &key(engine, secrets, from, from, to)),
            None => Tagged { payload: event, phase: Phase(0), msg_id, tag: [0; 32] },
        };
        Net::ForwardedEvent(tagged)
    }

    /// The flow's event as upstream controller `c` forwards it: under its
    /// own domain.
    fn flow_event(engine: &Engine, p: Probe) -> Event {
        let topo = &engine.shared().topo;
        let (src, dst) = cross_rack(topo);
        let switch = topo.host(src).unwrap().attached;
        Event {
            id: p.event,
            kind: EventKind::PacketIn { switch, flow: FlowId(1), src, dst },
            origin: p.up,
            forwarded: true,
        }
    }

    /// Upstream controller `c`'s re-forward of the flow's event to
    /// downstream controller `to` — what it re-sends while it waits on the
    /// downstream domain, and the one way it asks for the segment reports:
    /// the event under its own domain, tagged for `to`.
    fn reforward(engine: &Engine, secrets: &SecretStore, p: Probe, c: u32, to: u32) -> Net {
        forward(engine, secrets, (p.up, c), (p.down, to), flow_event(engine, p))
    }

    /// Reports re-sent by the downstream controllers, in controller order.
    fn resent(engine: &Engine, p: Probe) -> Vec<usize> {
        (1..=4)
            .map(|c| {
                let mine = |o: &&simnet::sim::Observation<Obs>| {
                    matches!(
                        o.value,
                        Obs::SegmentRetransmitted { domain, controller, .. }
                            if domain == p.down && controller == c
                    )
                };
                engine.observations().iter().filter(mine).count()
            })
            .collect()
    }

    fn checks(engine: &mut Engine, d: DomainId) -> Vec<u64> {
        (1..=4)
            .map(|c| engine.with_controller(d, ControllerId(c), |a| a.auth().checks()))
            .collect()
    }

    fn mac_checks(engine: &mut Engine, d: DomainId) -> Vec<u64> {
        (1..=4)
            .map(|c| engine.with_controller(d, ControllerId(c), |a| a.auth().mac_checks()))
            .collect()
    }

    fn signs(engine: &mut Engine, d: DomainId) -> Vec<u64> {
        (1..=4)
            .map(|c| engine.with_controller(d, ControllerId(c), |a| a.auth().signs()))
            .collect()
    }

    fn footprint(engine: &mut Engine, d: DomainId) -> Vec<[usize; 4]> {
        (1..=4)
            .map(|c| engine.with_controller(d, ControllerId(c), |a| a.handshake_footprint()))
            .collect()
    }

    /// The honest flow, run to completion: every reporter keeps its report,
    /// and no controller keeps a forward.
    fn settled() -> (Engine, Probe, SecretStore) {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(completed(&engine));
        assert_eq!(resent(&engine, p), vec![0; 4], "a loss-free run asks for nothing");
        for d in [p.up, p.down] {
            let kept: Vec<usize> = footprint(&mut engine, d).iter().map(|f| f[1]).collect();
            assert_eq!(kept, vec![0; 4], "every forward retired");
        }
        (engine, p, secrets)
    }

    #[test]
    fn loss_free_boundary_costs_sixteen_tags_and_eight_tag_checks_and_nothing_else() {
        let (mut engine, p, _) = settled();
        let count = |engine: &Engine, pred: fn(&Obs) -> bool| {
            engine.observations().iter().filter(|o| pred(&o.value)).count()
        };
        // One report per downstream controller, tagged once per upstream
        // controller; nothing asked, nothing re-sent, nothing re-forwarded.
        assert_eq!(count(&engine, |o| matches!(o, Obs::SegmentReported { .. })), 4);
        assert_eq!(count(&engine, |o| matches!(o, Obs::BoundaryReleased { .. })), 4);
        assert_eq!(count(&engine, |o| matches!(o, Obs::ForwardRetransmitted { .. })), 0);
        // No controller checks a signature: the event is a tag check at each
        // upstream controller, its forward one at the downstream controller
        // it was sent to, and every signature in either domain is an update
        // share of its own — the handshake signs and verifies nothing. It
        // costs each upstream controller one tag check per member of the
        // quorum — later reports are dropped unchecked — on top of its
        // event's and one per ack of its own domain's switches.
        let domain_of = engine.shared().dir.domain_of_switch.clone();
        let acks_in = |engine: &Engine, d: DomainId| {
            let here = |o: &&simnet::sim::Observation<Obs>| {
                matches!(o.value, Obs::UpdateApplied { switch, .. } if domain_of[&switch] == d)
            };
            engine.observations().iter().filter(here).count() as u64
        };
        let (up_acks, down_acks) = (acks_in(&engine, p.up), acks_in(&engine, p.down));
        assert_eq!(checks(&mut engine, p.up), vec![0; 4]);
        assert_eq!(checks(&mut engine, p.down), vec![0; 4]);
        assert_eq!(mac_checks(&mut engine, p.up), vec![1 + up_acks + 2; 4]);
        let down = mac_checks(&mut engine, p.down);
        assert_eq!(down, vec![1 + down_acks, down_acks, down_acks, down_acks]);
        assert_eq!(signs(&mut engine, p.up), vec![up_acks; 4]);
        assert_eq!(signs(&mut engine, p.down), vec![down_acks; 4]);
    }

    #[test]
    fn query_from_a_wrong_channel_a_non_member_or_a_non_upstream_domain_is_ignored() {
        let (mut engine, p, secrets) = settled();
        let victim = engine.controller_node(p.down, ControllerId(1));
        let at = engine.now() + SimDuration::from_millis(1);
        let up2 = engine.controller_node(p.up, ControllerId(2));
        let down2 = engine.controller_node(p.down, ControllerId(2));
        let topo = &engine.shared().topo;
        let ingress = topo.host(cross_rack(topo).0).unwrap().attached;
        let switch = engine.switch_node(ingress);
        // Upstream controller 2's re-forward — the query — over a switch's
        // channel; from outside the directory, no member of anything; and
        // from a member of the reporting domain itself, which holds no
        // barrier on its own segment. The transport names the sender; the
        // re-forward's own fields are not even read.
        let asked = reforward(&engine, &secrets, p, 2, 1);
        for from in [switch, ENVIRONMENT, down2] {
            engine.inject_raw(at, from, victim, asked.clone());
        }
        engine.run(at + SimDuration::from_millis(50));
        assert_eq!(resent(&engine, p), vec![0; 4], "none of them is answered");
        // The same re-forward from the upstream controller itself is.
        let at = engine.now() + SimDuration::from_millis(1);
        engine.inject_raw(at, up2, victim, asked);
        engine.run(at + SimDuration::from_millis(50));
        assert_eq!(resent(&engine, p), vec![1, 0, 0, 0]);
    }

    #[test]
    fn query_for_an_undrained_segment_is_answered_by_the_report_itself() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        // Every upstream controller re-forwards to every reporter after the
        // downstream domain delivered the event, before the segment drains:
        // there is no report to send yet.
        let window = p.reported_at.since(p.delivered_at);
        let asked_at = p.delivered_at + SimDuration::from_nanos(window.as_nanos() / 2);
        assert!(p.delivered_at < asked_at && asked_at < p.reported_at);
        for u in 1..=4 {
            for d in 1..=4 {
                engine.inject_raw(
                    asked_at,
                    engine.controller_node(p.up, ControllerId(u)),
                    engine.controller_node(p.down, ControllerId(d)),
                    reforward(&engine, &secrets, p, u, d),
                );
            }
        }
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(resent(&engine, p), vec![0; 4], "nothing to answer with");
        assert_eq!(footprint(&mut engine, p.down), footprint(&mut settled().0, p.down));
        assert!(completed(&engine), "the reports arrive when the segment drains");
        assert_eq!(released(&engine), 4);
    }

    #[test]
    fn a_thousand_queries_cost_no_signature_check_and_grow_no_state() {
        let (mut engine, p, secrets) = settled();
        let before = (
            (checks(&mut engine, p.up), mac_checks(&mut engine, p.up)),
            checks(&mut engine, p.down),
            footprint(&mut engine, p.up),
            footprint(&mut engine, p.down),
        );
        let asker = engine.controller_node(p.up, ControllerId(2));
        let victim = engine.controller_node(p.down, ControllerId(1));
        let asked = reforward(&engine, &secrets, p, 2, 1);
        let start = engine.now() + SimDuration::from_millis(1);
        for i in 0..1000u64 {
            let at = start + SimDuration::from_micros(10 * i);
            engine.inject_raw(at, asker, victim, asked.clone());
        }
        engine.run(start + SimDuration::from_secs(1));
        // One reply per re-forward of the delivered event — dropped before
        // its signature is looked at — and the replies find the quorum on
        // record and are dropped before their tags are checked.
        assert_eq!(resent(&engine, p), vec![1000, 0, 0, 0]);
        let after = (
            (checks(&mut engine, p.up), mac_checks(&mut engine, p.up)),
            checks(&mut engine, p.down),
            footprint(&mut engine, p.up),
            footprint(&mut engine, p.down),
        );
        assert_eq!(before, after, "(checks up, checks down, state up, state down)");
        assert_eq!(released(&engine), 4, "and nothing is released twice");
        // Each reply goes to the sender alone.
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = Context::new(engine.now(), victim, &mut rng);
        engine.with_controller(p.down, ControllerId(1), |a| a.on_message(&mut ctx, asker, asked));
        let replies: Vec<NodeId> = ctx
            .into_effects()
            .into_iter()
            .filter_map(|e| match e {
                Effect::Send { to, msg: Net::SegmentApplied(_), .. } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(replies, vec![asker]);
    }

    #[test]
    fn one_byzantine_controller_forging_every_index_cannot_block_the_barrier() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        // Byzantine downstream controller 2 reports the segment applied long
        // before it is, under *every* index, each tagged under its own key
        // for its reader. Only the one under its own index is even checked
        // (the others do not come over their claimed senders' channels),
        // and that one counts — once: one member's word is one report.
        let me = (p.down, 2);
        for idx in 1..=4u32 {
            let lies = (1..=4)
                .map(|c| tagged(body(p), idx, key(&engine, &secrets, me, me, (p.up, c))))
                .collect();
            inject_reports(&mut engine, p, 2, lies);
        }
        inject(&mut engine, &topo);
        for signers in signers_before_the_reports(&mut engine, p) {
            assert_eq!(signers, vec![me], "below quorum on its own");
        }
        assert_eq!(released(&engine), 0, "nothing released on one word");
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine), "the barrier must release from honest reports");
        assert_eq!(released(&engine), 4, "every upstream controller releases once");
        for signers in upstream_signers(&mut engine, p) {
            assert_eq!(signers.len(), 2, "a quorum is on record: {signers:?}");
            assert!(signers.contains(&me), "{signers:?}");
        }
    }

    /// Barrier signers in the snapshot and WAL on `disk`.
    fn logged_signers(disk: &DiskHandle) -> usize {
        let snapshot = read_snapshot(disk, "snapshot").unwrap_or_default();
        let mut buf = &snapshot[..];
        let mut records = Vec::new();
        while let Ok(r) = WalRecord::decode(&mut buf) {
            records.push(r);
        }
        let (_, tail) = Wal::open(disk.clone(), "wal");
        records.extend(tail.iter().filter_map(|f| WalRecord::from_wire(f).ok()));
        let signer = |r: &&WalRecord| matches!(r, WalRecord::BarrierSigner { .. });
        records.iter().filter(signer).count()
    }

    /// Downstream controller 2 — a current member, its own slot, its own
    /// key — sends upstream controller 1 ten thousand genuine reports for
    /// barriers nobody will ever raise. What it makes that controller
    /// remember, log and tag-check is its allowance of early reports
    /// (1,024), not the flood; and the flow's own barrier still releases.
    #[test]
    fn a_flood_of_reports_for_barriers_never_raised_stays_bounded() {
        let p = probe();
        let (mut engine, topo, secrets) = fabric();
        let disk = mem_disk();
        engine.with_controller(p.up, ControllerId(1), |a| a.attach_disk(disk.clone(), false));
        let me = (p.down, 2);
        let k = key(&engine, &secrets, me, me, (p.up, 1));
        let src = engine.controller_node(p.down, ControllerId(2));
        let to = engine.controller_node(p.up, ControllerId(1));
        let at = SimTime::ZERO + SimDuration::from_millis(2);
        for i in 0..10_000u64 {
            let made_up = SegmentBody {
                event: EventId((1 << 40) | i),
                ..body(p)
            };
            engine.inject_raw(at, src, to, Net::SegmentApplied(tagged(made_up, 2, k)));
        }
        inject(&mut engine, &topo);
        engine.run(SimTime::ZERO + SimDuration::from_secs(5));
        assert!(completed(&engine), "the barrier must release from honest reports");
        assert_eq!(released(&engine), 4, "every upstream controller releases once");
        let barriers: Vec<usize> = footprint(&mut engine, p.up).iter().map(|f| f[0]).collect();
        assert_eq!(barriers, vec![1024 + 1, 1, 1, 1], "the allowance, and the flow's barrier");
        assert_eq!(logged_signers(&disk), 1024 + 2, "the allowance, and the flow's quorum");
        let mut want = upstream_mac_checks_plus(0);
        want[0] += 1024;
        assert_eq!(mac_checks(&mut engine, p.up), want, "the rest dropped unchecked");
    }

    /// A member that joined the upstream domain after a segment was reported
    /// re-forwards the event and has its copy: the reporter tags one for it
    /// on first demand and keeps it. Under `Real` too, since the ceremony
    /// gives standbys an identity key.
    #[test]
    fn a_member_that_joined_after_the_report_is_answered_too() {
        for crypto in [CryptoMode::Modeled, CryptoMode::Real] {
            let mut cfg = EngineConfig::for_mode(Mode::Cicero {
                aggregation: Aggregation::Switch,
            });
            cfg.seed = SEED;
            cfg.crypto = crypto;
            let topo = Topology::single_pod(2, 1, 2);
            let dm = DomainMap::split_racks(&topo, 2);
            let mut engine = Engine::build(cfg, topo.clone(), dm, 1);
            let switches: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
            let (_, secrets) = bootstrap_keys(crypto, &switches, &engine.shared().dir, SEED);
            inject(&mut engine, &topo);
            engine.run(SimTime::ZERO + SimDuration::from_secs(1));
            assert!(completed(&engine));
            let obs = engine.observations();
            let (event, down) = obs
                .iter()
                .find_map(|o| match o.value {
                    Obs::SegmentReported { event, domain, .. } => Some((event, domain)),
                    _ => None,
                })
                .expect("a segment report");
            let up = obs
                .iter()
                .find_map(|o| match o.value {
                    Obs::BoundaryReleased { domain, .. } => Some(domain),
                    _ => None,
                })
                .expect("a release");
            // The upstream bootstrap tells the downstream domain that standby
            // 5 joined.
            let joined = Event {
                id: EventId((1 << 48) | 1),
                kind: EventKind::MembershipChanged {
                    domain: up,
                    controller: ControllerId(5),
                    added: true,
                },
                origin: up,
                forwarded: true,
            };
            let bootstrap = engine.controller_node(up, ControllerId(1));
            let at = engine.now() + SimDuration::from_millis(1);
            for c in 1..=4 {
                let notice = forward(&engine, &secrets, (up, 1), (down, c), joined);
                let to = engine.controller_node(down, ControllerId(c));
                engine.inject_raw(at, bootstrap, to, notice);
            }
            engine.run(at + SimDuration::from_millis(200));
            // The joiner's re-forward of the reported event, handed to the
            // reporter twice.
            let (src, dst) = cross_rack(&topo);
            let again = Event {
                id: event,
                kind: EventKind::PacketIn {
                    switch: topo.host(src).unwrap().attached,
                    flow: FlowId(1),
                    src,
                    dst,
                },
                origin: up,
                forwarded: true,
            };
            let asked = forward(&engine, &secrets, (up, 5), (down, 1), again);
            let joiner = engine.controller_node(up, ControllerId(5));
            let reporter = engine.controller_node(down, ControllerId(1));
            let mut rng = StdRng::seed_from_u64(0);
            let mut replies = Vec::new();
            for _ in 0..2 {
                let mut ctx = Context::new(engine.now(), reporter, &mut rng);
                let asked = asked.clone();
                engine.with_controller(down, ControllerId(1), |a| a.on_message(&mut ctx, joiner, asked));
                for e in ctx.into_effects() {
                    if let Effect::Send { to, msg: Net::SegmentApplied(m), .. } = e {
                        replies.push((to, m));
                    }
                }
            }
            assert_eq!(replies.len(), 2, "{crypto:?}: one reply per re-forward: {replies:?}");
            assert!(replies.iter().all(|(to, m)| *to == joiner && m.payload.event == event));
            assert_eq!(replies[0].1, replies[1].1, "tagged once, then re-sent as kept");
            if crypto == CryptoMode::Real {
                // Checked the way the joiner checks it: with its own secret.
                let x = &secrets.controller_sk[&(up, ControllerId(5))];
                let pk = engine.shared().keys.controller_pk[&(down, ControllerId(1))];
                let for_joiner = pair_key(x, &pk, peer((down, 1)), peer((up, 5)));
                assert!(replies[0].1.verify(SEGMENT, &for_joiner), "a genuine tag for the joiner");
            }
        }
    }
}

// ----- acks and NACKs: pairwise MAC tags, one key per (switch, controller) -----

mod acks {
    use super::*;
    use cicero_core::msg::{AckBody, NackBody};
    use simnet::fault::FaultPlan;

    const ACK: &str = "CICERO_ACK_V1";
    const NACK: &str = "CICERO_NACK_V1";

    /// The cross-rack flow of [`split_fabric`] (one standby per domain) with
    /// its egress switch cut off from its four controllers: each of them
    /// holds the switch's update in flight, never applied, never acked.
    struct Stuck {
        engine: Engine,
        secrets: SecretStore,
        switch: SwitchId,
        domain: DomainId,
        update: UpdateId,
        /// A switch of the other domain.
        foreign: SwitchId,
    }

    fn stuck() -> Stuck {
        stuck_after(|_| {})
    }

    /// [`stuck`], with `early` let loose on the fabric before the flow
    /// arrives (at 1 ms).
    fn stuck_after(early: impl FnOnce(&mut Stuck)) -> Stuck {
        let (mut engine, topo, secrets) = split_fabric(1);
        let hosts = topo.hosts();
        let (foreign, switch) = (hosts[0].attached, hosts.last().expect("hosts").attached);
        let dir = engine.shared().dir.clone();
        let domain = dir.domain_of_switch[&switch];
        assert_ne!(dir.domain_of_switch[&foreign], domain);
        let mut plan = FaultPlan::none();
        for &c in &dir.initial_members[&domain] {
            plan = plan.with_severed_link(engine.switch_node(switch), dir.controller(domain, c));
        }
        engine.set_faults(plan);
        // Reverse-path order: the egress update, the last of three, goes
        // first. PacketIn event ids are (ingress switch << 32 | 1).
        let update = UpdateId {
            event: EventId((u64::from(foreign.0) << 32) | 1),
            seq: 2,
        };
        let mut s = Stuck {
            engine,
            secrets,
            switch,
            domain,
            update,
            foreign,
        };
        early(&mut s);
        inject_cross_rack(&mut s.engine, &topo);
        s.engine.run(SimTime::ZERO + SimDuration::from_millis(50));
        for c in 1..=4 {
            assert_eq!(s.state(c), (0, false, 1), "controller {c}: one update in flight");
        }
        s
    }

    /// The flow's forward was tagged for controller 1 of the switch's
    /// domain, which checked it.
    fn forward_checks(c: u32) -> u64 {
        u64::from(c == 1)
    }

    impl Stuck {
        /// The key `switch` tags with for controller `c` of its own domain.
        fn key(&self, switch: SwitchId, c: u32) -> [u8; 32] {
            let shared = self.engine.shared();
            let (domain, c) = (shared.dir.domain_of_switch[&switch], ControllerId(c));
            let pk = shared.keys.controller_pk[&(domain, c)];
            let secret = &self.secrets.switch_sk[&switch];
            pair_key(secret, &pk, Peer::Switch(switch), Peer::Controller(domain, c))
        }

        /// The switch's ack of the stuck update, tagged under `key`.
        fn ack(&self, label: &str, key: [u8; 32]) -> Tagged<AckBody> {
            let body = AckBody {
                update: self.update,
                switch: self.switch,
            };
            let id = MsgId {
                origin: self.switch.0,
                seq: 1,
            };
            Tagged::tag(label, body, Phase(0), id, &key)
        }

        /// Hands `msg` to controller `c` of the switch's domain.
        fn deliver(&mut self, c: u32, msg: Net) {
            self.deliver_in(self.domain, c, msg);
        }

        /// Hands `msg` to controller `c` of `domain`.
        fn deliver_in(&mut self, domain: DomainId, c: u32, msg: Net) {
            let at = self.engine.now() + SimDuration::from_micros(10);
            let node = self.engine.controller_node(domain, ControllerId(c));
            self.engine.inject_raw(at, ENVIRONMENT, node, msg);
            self.engine.run(at + SimDuration::from_millis(1));
        }

        /// `(tag checks beyond the flow's forward, stuck update acked,
        /// updates in flight)` at `c`.
        fn state(&mut self, c: u32) -> (u64, bool, usize) {
            let update = self.update;
            let (checks, acked, in_flight) = self.engine.with_controller(self.domain, ControllerId(c), |a| {
                (a.auth().mac_checks(), a.pending().is_acked(update), a.pending().in_flight_count())
            });
            (checks - forward_checks(c), acked, in_flight)
        }
    }

    /// A Byzantine domain member holds its own column of keys and nothing
    /// else: what it can forge, only it accepts.
    #[test]
    fn a_tag_made_for_one_controller_is_rejected_by_another() {
        let mut s = stuck();
        // The switch's genuine tag for controller 1, shown to controller 2;
        // and controller 2 using its own key for the switch on controller 1.
        let for_1 = s.ack(ACK, s.key(s.switch, 1));
        let by_2 = s.ack(ACK, s.key(s.switch, 2));
        s.deliver(2, Net::AckMsg(for_1.clone()));
        s.deliver(1, Net::AckMsg(by_2));
        assert_eq!(s.state(2), (1, false, 1), "checked and refused");
        assert_eq!(s.state(1), (1, false, 1), "checked and refused");
        // The same envelope where it was addressed is an acknowledgement.
        s.deliver(1, Net::AckMsg(for_1));
        assert_eq!(s.state(1), (2, true, 0));
    }

    #[test]
    fn a_replayed_tag_of_a_settled_update_costs_no_check() {
        let mut s = stuck();
        let ack = s.ack(ACK, s.key(s.switch, 1));
        s.deliver(1, Net::AckMsg(ack.clone()));
        assert_eq!(s.state(1), (1, true, 0));
        for _ in 0..100 {
            s.deliver(1, Net::AckMsg(ack.clone()));
        }
        assert_eq!(s.state(1), (1, true, 0), "dropped on the state check, before the tag");
    }

    #[test]
    fn a_nack_tag_does_not_verify_as_an_ack_of_the_same_update() {
        let mut s = stuck();
        let key = s.key(s.switch, 1);
        // The ack body tagged under the NACK label, and a genuine NACK's tag
        // moved onto the ack of the update it names.
        let mislabeled = s.ack(NACK, key);
        let body = NackBody {
            update: s.update,
            switch: s.switch,
            have: 1,
        };
        let nack = Tagged::tag(NACK, body, Phase(0), mislabeled.msg_id, &key);
        let transplanted = Tagged {
            tag: nack.tag,
            ..s.ack(ACK, key)
        };
        s.deliver(1, Net::AckMsg(mislabeled));
        s.deliver(1, Net::AckMsg(transplanted));
        assert_eq!(s.state(1), (2, false, 1), "both checked, both refused");
        // As a NACK it is genuine: checked, and answered with the update.
        s.deliver(1, Net::UpdateNack(nack));
        assert_eq!(s.state(1), (3, false, 1));
        let resynced = |o: &simnet::sim::Observation<Obs>| {
            matches!(o.value, Obs::ResyncReplied { controller: 1, update, .. } if update == s.update)
        };
        assert!(s.engine.observations().iter().any(resynced));
    }

    #[test]
    fn a_pair_without_a_key_is_dropped_without_a_panic() {
        let mut s = stuck();
        // A switch of the other domain acknowledges an update this domain has
        // not scheduled (so nothing says whose it is), and NACKs the stuck
        // one, under a key it really holds — with its own controller 1, not
        // with this one.
        let foreign_key = s.key(s.foreign, 1);
        let unscheduled = UpdateId {
            event: EventId(0xbad),
            seq: 0,
        };
        let id = MsgId {
            origin: s.foreign.0,
            seq: 1,
        };
        let ack = AckBody {
            update: unscheduled,
            switch: s.foreign,
        };
        let nack = NackBody {
            update: s.update,
            switch: s.foreign,
            have: 1,
        };
        s.deliver(1, Net::AckMsg(Tagged::tag(ACK, ack, Phase(0), id, &foreign_key)));
        s.deliver(1, Net::UpdateNack(Tagged::tag(NACK, nack, Phase(0), id, &foreign_key)));
        assert_eq!(s.state(1), (2, false, 1), "both checked, neither accepted");
        let acked = s.engine.with_controller(s.domain, ControllerId(1), |a| a.pending().is_acked(unscheduled));
        assert!(!acked);
        // The standby is sent no acks and holds no keys: a genuine ack that
        // reaches it anyway is not even looked at.
        let genuine = s.ack(ACK, s.key(s.switch, 1));
        s.deliver(5, Net::AckMsg(genuine));
        assert_eq!(s.state(5), (0, false, 0));
    }

    /// The upstream domain holds two updates of the flow: one for its rack
    /// switch (`foreign`), one for the pod's aggregation switch.
    struct Upstream {
        domain: DomainId,
        /// The aggregation switch, and the key it shares with controller 1.
        neighbour: SwitchId,
        key: [u8; 32],
        /// The rack switch's update, and the aggregation switch's own.
        victim: UpdateId,
        own: UpdateId,
    }

    impl Upstream {
        fn of(s: &mut Stuck) -> Upstream {
            let dir = s.engine.shared().dir.clone();
            let domain = dir.domain_of_switch[&s.foreign];
            let others = |x: &&SwitchId| **x != s.foreign && **x != s.switch;
            let neighbour = *dir.switch_node.keys().find(others).expect("three switches");
            assert_eq!(dir.domain_of_switch[&neighbour], domain);
            let ids: Vec<UpdateId> = (0..3).map(|seq| UpdateId { seq, ..s.update }).collect();
            let targets: Vec<Option<SwitchId>> = s
                .engine
                .with_controller(domain, ControllerId(1), |a| ids.iter().map(|&u| a.pending().target(u)).collect());
            let update_for = |switch| {
                let at = targets.iter().position(|&t| t == Some(switch));
                ids[at.expect("one update per switch of the path")]
            };
            Upstream {
                domain,
                neighbour,
                key: s.key(neighbour, 1),
                victim: update_for(s.foreign),
                own: update_for(neighbour),
            }
        }

        /// The neighbour's ack of `update` in `switch`'s name.
        fn ack(&self, update: UpdateId, switch: SwitchId) -> Net {
            let id = MsgId {
                origin: self.neighbour.0,
                seq: 1,
            };
            Net::AckMsg(Tagged::tag(ACK, AckBody { update, switch }, Phase(0), id, &self.key))
        }

        /// `(tag checks, victim acked, own acked)` at controller 1.
        fn seen(&self, s: &mut Stuck) -> (u64, bool, bool) {
            let (victim, own) = (self.victim, self.own);
            s.engine.with_controller(self.domain, ControllerId(1), |a| {
                (a.auth().mac_checks(), a.pending().is_acked(victim), a.pending().is_acked(own))
            })
        }
    }

    /// A switch speaks for its own updates only. The ack of a neighbour's
    /// update is refused although its tag is genuine — before this was
    /// checked (the signed acks of earlier rounds included), any switch of a
    /// domain could retire any update of that domain at every controller.
    #[test]
    fn a_switch_cannot_acknowledge_its_neighbours_update() {
        let mut s = stuck();
        let up = Upstream::of(&mut s);
        // Under its own name, and under the addressee's name from its own id.
        s.deliver_in(up.domain, 1, up.ack(up.victim, up.neighbour));
        s.deliver_in(up.domain, 1, up.ack(up.victim, s.foreign));
        // The same key does acknowledge the neighbour's own update.
        s.deliver_in(up.domain, 1, up.ack(up.own, up.neighbour));
        // One check is the flow's event's.
        assert_eq!(up.seen(&mut s), (2, false, true), "the neighbour's acks are refused before their tag");
    }

    /// Nor by acknowledging before the controller has scheduled anything —
    /// when nothing says yet whose update it is. Such an ack used to be
    /// taken on the sender's word and pre-released the update's successors;
    /// now it is parked with its sender and judged at admission: the
    /// switch's own update is retired there, unsent, the neighbour's is not.
    #[test]
    fn a_switch_cannot_acknowledge_its_neighbours_update_early() {
        let up = Upstream::of(&mut stuck());
        let mut s = stuck_after(|s| {
            let node = s.engine.controller_node(up.domain, ControllerId(1));
            let early = [
                up.ack(up.victim, up.neighbour),
                up.ack(up.victim, s.foreign),
                up.ack(up.own, up.neighbour),
            ];
            for (msg, at) in early.into_iter().zip(1..) {
                let at = SimTime::ZERO + SimDuration::from_micros(10 * at);
                s.engine.inject_raw(at, ENVIRONMENT, node, msg);
            }
            s.engine.run(SimTime::ZERO + SimDuration::from_micros(900));
            // Nothing is scheduled: the two acks in the sender's own name
            // are checked (and genuine), and nothing is believed yet.
            assert_eq!(up.seen(s), (2, false, false));
        });
        // And one, after the flow's arrival, its event's.
        assert_eq!(up.seen(&mut s), (3, false, true), "judged at admission by whose update it is");
    }
}
