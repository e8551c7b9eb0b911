//! Crash-recovery end-to-end tests: a controller crashes mid-run, restarts
//! from its WAL + snapshot, state-syncs from a peer, and the run still
//! converges with exactly-once update application.

use cicero_core::prelude::*;
use controller::policy::DomainMap;
use netmodel::routing::route;
use netmodel::topology::Topology;
use simnet::fault::FaultPlan;
use simnet::sim::ENVIRONMENT;
use southbound::envelope::{MsgId, Tagged};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, EventKind, FlowId, HostId, Phase, SwitchId,
    UpdateId,
};
use std::collections::BTreeSet;

fn inject_flow_at(
    engine: &mut Engine,
    topo: &Topology,
    src: HostId,
    dst: HostId,
    id: u64,
    at: SimTime,
) {
    let r = route(topo, src, dst).expect("connected");
    let ingress = topo.host(src).unwrap().attached;
    let node = engine.switch_node(ingress);
    engine.inject_raw(
        at,
        ENVIRONMENT,
        node,
        Net::FlowArrival {
            flow: FlowId(id),
            src,
            dst,
            bytes: 1_000,
            transit: r.latency,
            start: at,
        },
    );
}

/// Distinct cross-rack host pairs, cycled to make every flow raise events.
fn cross_rack_pairs(topo: &Topology, n: usize) -> Vec<(HostId, HostId)> {
    let hosts = topo.hosts();
    let mut pairs = Vec::new();
    'outer: for a in hosts {
        for b in hosts {
            if a.attached != b.attached {
                pairs.push((a.id, b.id));
                if pairs.len() == n {
                    break 'outer;
                }
            }
        }
    }
    assert_eq!(pairs.len(), n, "topology too small for {n} pairs");
    pairs
}

fn cicero_engine(seed: u64) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = seed;
    let topo = Topology::single_pod(4, 4, 2);
    let dm = DomainMap::single(&topo);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

fn applied_set(engine: &Engine) -> Vec<(SwitchId, UpdateId)> {
    engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::UpdateApplied { switch, update, .. } => Some((switch, update)),
            _ => None,
        })
        .collect()
}

fn assert_exactly_once(engine: &Engine) {
    let applied = applied_set(engine);
    let unique: BTreeSet<_> = applied.iter().copied().collect();
    assert_eq!(
        applied.len(),
        unique.len(),
        "an update was applied twice at a switch after recovery"
    );
}

fn recovered_controllers(engine: &Engine) -> Vec<u32> {
    engine
        .observations()
        .iter()
        .filter_map(|o| match o.value {
            Obs::ControllerRecovered { controller, .. } => Some(controller),
            _ => None,
        })
        .collect()
}

fn run_crash_recover(disk_lost: bool) {
    let (mut engine, topo) = cicero_engine(7);
    let pairs = cross_rack_pairs(&topo, 8);
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(1 + 20 * i as u64);
        inject_flow_at(&mut engine, &topo, src, dst, i as u64 + 1, at);
    }
    let victim = (DomainId(0), ControllerId(2));
    let node = engine.controller_node(victim.0, victim.1);
    engine.set_faults(
        FaultPlan::none().with_crash(SimTime::ZERO + SimDuration::from_millis(60), node),
    );
    engine.schedule_restart(SimTime::ZERO + SimDuration::from_millis(200), node, disk_lost);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(20));
    assert!(
        report.completed,
        "crash-recover run did not converge: {report}"
    );
    assert_eq!(
        recovered_controllers(&engine),
        vec![victim.1 .0],
        "the restarted controller must state-sync exactly once"
    );
    assert_exactly_once(&engine);
    cicero_core::obs::check_event_linearizability(engine.observations())
        .expect("delivery sequences stay prefix-consistent across restart");
}

#[test]
fn crashed_controller_recovers_from_wal_and_rejoins() {
    run_crash_recover(false);
}

#[test]
fn crashed_controller_recovers_from_peers_after_disk_loss() {
    run_crash_recover(true);
}

#[test]
fn quiescent_controllers_compact_their_wal_into_snapshots() {
    let (mut engine, topo) = cicero_engine(11);
    let pairs = cross_rack_pairs(&topo, 20);
    for (i, &(src, dst)) in pairs.iter().enumerate() {
        let at = SimTime::ZERO + SimDuration::from_millis(1 + 25 * i as u64);
        inject_flow_at(&mut engine, &topo, src, dst, i as u64 + 1, at);
    }
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(20));
    assert!(report.completed, "snapshot run did not converge: {report}");
    let snapshots = engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::SnapshotTaken { .. }))
        .count();
    assert!(
        snapshots > 0,
        "no controller reached a quiescent snapshot point"
    );
    // A crash *after* compaction must recover through the snapshot path.
    let victim = (DomainId(0), ControllerId(3));
    let node = engine.controller_node(victim.0, victim.1);
    let now = engine.now();
    engine.set_faults(FaultPlan::none().with_crash(now + SimDuration::from_millis(5), node));
    let extra = cross_rack_pairs(&topo, 4);
    for (i, &(src, dst)) in extra.iter().enumerate() {
        // Re-used pairs raise no fresh events; flows still must complete.
        inject_flow_at(
            &mut engine,
            &topo,
            src,
            dst,
            100 + i as u64,
            now + SimDuration::from_millis(10 + 10 * i as u64),
        );
    }
    engine.schedule_restart(now + SimDuration::from_millis(120), node, false);
    let report = engine.run_reporting(engine.now() + SimDuration::from_secs(20));
    assert!(report.completed, "post-snapshot recovery stalled: {report}");
    assert_eq!(recovered_controllers(&engine), vec![victim.1 .0]);
    assert_exactly_once(&engine);
}

/// A verified segment report is logged on arrival, quorum or not: an
/// upstream controller that crashes holding one report (of the two it needs)
/// restores it from its log. Restarted, it re-registers the barrier and
/// either inherits the quorum from its sync peer's signer archive, or — when
/// no peer has a quorum yet (`peers_cut`: the whole upstream domain hears
/// only one reporter until after the restart) — asks the downstream
/// controllers for the reports it lacks. Either way its barrier releases
/// exactly once.
#[test]
fn crash_between_report_arrival_and_quorum_releases_exactly_once_after_restart() {
    for peers_cut in [false, true] {
        let mut cfg = EngineConfig::for_mode(Mode::Cicero {
            aggregation: Aggregation::Switch,
        });
        cfg.crypto = CryptoMode::Modeled;
        cfg.seed = 23;
        let topo = Topology::single_pod(2, 1, 2);
        let dm = DomainMap::split_racks(&topo, 2);
        let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
        // Host 0's rack is the upstream (ingress) domain, the other rack
        // the downstream one.
        let hosts = topo.hosts();
        let (src, dst) = (
            hosts[0].id,
            hosts
                .iter()
                .find(|h| h.attached != hosts[0].attached)
                .unwrap()
                .id,
        );
        let up = engine.shared().dir.domain_of_switch[&topo.host(src).unwrap().attached];
        let down = engine.shared().dir.domain_of_switch[&topo.host(dst).unwrap().attached];
        assert_ne!(up, down);
        let victim = ControllerId(2);
        let victim_node = engine.controller_node(up, victim);
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        // Only downstream controller 1 reaches the victim until 150 ms — or,
        // with `peers_cut`, any upstream controller until 400 ms: one report
        // of a quorum of two. The victim dies at 60 ms holding it and comes
        // back at 300 ms.
        let mut plan = FaultPlan::none().with_crash(ms(60), victim_node);
        for d in 2..=4 {
            let reporter = engine.controller_node(down, ControllerId(d));
            for u in 1..=4 {
                let target = engine.controller_node(up, ControllerId(u));
                if peers_cut {
                    plan = plan.with_severed_window(reporter, target, SimTime::ZERO, ms(400));
                } else if target == victim_node {
                    plan = plan.with_severed_window(reporter, target, SimTime::ZERO, ms(150));
                }
            }
        }
        engine.set_faults(plan);
        engine.schedule_restart(ms(300), victim_node, false);
        inject_flow_at(&mut engine, &topo, src, dst, 1, ms(1));

        engine.run(ms(59));
        let segment_reported = engine
            .observations()
            .iter()
            .find_map(|o| match o.value {
                Obs::SegmentReported {
                    domain,
                    controller: 1,
                    event,
                    segment,
                } if domain == down => Some((event, segment)),
                _ => None,
            })
            .expect("downstream controller 1 reported before the crash");
        let (signers, released) = engine.with_controller(up, victim, |a| {
            (
                a.barrier_signers(segment_reported.0, segment_reported.1),
                a.barriers_released(),
            )
        });
        assert_eq!(signers, vec![(down, 1)], "one report, on record and below quorum");
        assert_eq!(released, 0, "the victim's barrier is still held at the crash");

        let report = engine.run_reporting(ms(20_000));
        assert!(report.completed, "peers_cut={peers_cut}: did not converge: {report}");
        assert_eq!(recovered_controllers(&engine), vec![victim.0]);
        assert_exactly_once(&engine);
        let victim_releases: Vec<SimTime> = engine
            .observations()
            .iter()
            .filter_map(|o| match o.value {
                Obs::BoundaryReleased {
                    domain, controller, ..
                } if domain == up && controller == victim.0 => Some(o.at),
                _ => None,
            })
            .collect();
        assert!(victim_releases.iter().all(|&t| t > ms(300)), "released while down");
        if peers_cut {
            // Nobody had a quorum to hand over: the victim asked, the
            // reporters re-sent, and the release is its own, observable.
            assert_eq!(victim_releases.len(), 1, "{victim_releases:?}");
            assert!(
                report.stats.segment_retransmits > 0,
                "the missing reports must have been asked for and re-sent"
            );
        } else {
            // The sync peer's signer archive carried the quorum (replayed
            // muted, like all synced state): no observable second release.
            assert!(victim_releases.len() <= 1, "released twice: {victim_releases:?}");
        }
        let released = engine.with_controller(up, victim, |a| a.barriers_released());
        assert_eq!(released, 1, "the victim's barrier is released exactly once");
        let signers = engine.with_controller(up, victim, |a| {
            a.barrier_signers(segment_reported.0, segment_reported.1)
        });
        assert!(signers.len() >= 2, "the quorum is on record: {signers:?}");
    }
}

/// A reporter keeps its report only in memory. Restarted — from its own log
/// or, disk wiped, from a peer's — the muted replay of the acks that drained
/// the segment tags the report again, so an upstream controller that
/// re-forwards the event afterwards still gets an answer; nothing is re-sent
/// unasked.
#[test]
fn restarted_reporter_rebuilds_its_kept_report_and_answers_queries() {
    for disk_lost in [false, true] {
        let mut cfg = EngineConfig::for_mode(Mode::Cicero {
            aggregation: Aggregation::Switch,
        });
        cfg.crypto = CryptoMode::Modeled;
        cfg.seed = 29;
        let topo = Topology::single_pod(2, 1, 2);
        let dm = DomainMap::split_racks(&topo, 2);
        let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
        let (src, dst) = cross_rack_pairs(&topo, 1)[0];
        let up = engine.shared().dir.domain_of_switch[&topo.host(src).unwrap().attached];
        let down = engine.shared().dir.domain_of_switch[&topo.host(dst).unwrap().attached];
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        inject_flow_at(&mut engine, &topo, src, dst, 1, ms(1));
        let reporter = ControllerId(3);
        let node = engine.controller_node(down, reporter);
        engine.set_faults(FaultPlan::none().with_crash(ms(100), node));
        engine.schedule_restart(ms(200), node, disk_lost);
        engine.run(ms(99));
        let (event, segment) = engine
            .observations()
            .iter()
            .find_map(|o| match o.value {
                Obs::SegmentReported { event, segment, .. } => Some((event, segment)),
                _ => None,
            })
            .expect("the flow crossed the boundary before the crash");
        let kept = |engine: &mut Engine| {
            engine.with_controller(down, reporter, |a| a.handshake_footprint()[3])
        };
        assert_eq!(kept(&mut engine), 1);
        engine.run(ms(400));
        assert_eq!(recovered_controllers(&engine), vec![reporter.0]);
        assert_eq!(kept(&mut engine), 1, "disk_lost={disk_lost}: report not rebuilt");
        // Upstream controller 2 re-forwards the event: the reporter has
        // delivered it, so it drops the forward unchecked and answers.
        let asker = ControllerId(2);
        let switch = topo.host(src).unwrap().attached;
        let reforward = Tagged {
            payload: Event {
                id: event,
                kind: EventKind::PacketIn { switch, flow: FlowId(1), src, dst },
                origin: up,
                forwarded: true,
            },
            phase: Phase(0),
            msg_id: MsgId { origin: asker.0, seq: 1 },
            tag: [0; 32],
        };
        let from = engine.controller_node(up, asker);
        engine.inject_raw(ms(401), from, node, Net::ForwardedEvent(reforward));
        engine.run(ms(500));
        let resent: Vec<(EventId, u32)> = engine
            .observations()
            .iter()
            .filter_map(|o| match o.value {
                Obs::SegmentRetransmitted { event, segment, .. } => Some((event, segment)),
                _ => None,
            })
            .collect();
        assert_eq!(resent, vec![(event, segment)], "asked once, answered once");
    }
}

/// What a restarted controller must agree on however it got its state
/// back: ack archive, barrier signers, delivery frontier, released barriers.
#[derive(Debug, PartialEq)]
struct RecoveredState {
    acked: Vec<UpdateId>,
    signers: Vec<Vec<(DomainId, u32)>>,
    frontier: u64,
    released: usize,
}

/// Local recovery (snapshot + WAL, topped up by a peer) and pure state sync
/// (disk wiped) run the same records through the same replay, so the same
/// controller restarted at the same instant of the same run must end up in
/// the same state either way — right after the sync and at the end.
#[test]
fn state_sync_and_local_recovery_converge() {
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
    let run = |disk_lost: bool| {
        let mut cfg = EngineConfig::for_mode(Mode::Cicero {
            aggregation: Aggregation::Switch,
        });
        cfg.crypto = CryptoMode::Modeled;
        cfg.seed = 31;
        let topo = Topology::single_pod(2, 1, 2);
        let dm = DomainMap::split_racks(&topo, 2);
        let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
        // Boundary-crossing flows in both directions: the victim's domain
        // holds barriers for some events and reports segments for others.
        let hosts = topo.hosts();
        let (a, b) = (hosts[0].id, hosts[1].id);
        let far: Vec<HostId> = hosts
            .iter()
            .filter(|h| h.attached != hosts[0].attached)
            .map(|h| h.id)
            .collect();
        inject_flow_at(&mut engine, &topo, a, far[0], 1, ms(1));
        inject_flow_at(&mut engine, &topo, far[1], b, 2, ms(5));
        inject_flow_at(&mut engine, &topo, b, far[1], 3, ms(40));
        let domain = engine.shared().dir.domain_of_switch[&topo.host(a).unwrap().attached];
        let victim = ControllerId(2);
        let node = engine.controller_node(domain, victim);
        engine.set_faults(FaultPlan::none().with_crash(ms(45), node));
        engine.schedule_restart(ms(300), node, disk_lost);

        let state = |engine: &mut Engine| {
            let barriers: BTreeSet<_> = engine
                .observations()
                .iter()
                .filter_map(|o| match o.value {
                    Obs::SegmentReported { event, segment, .. } => Some((event, segment)),
                    _ => None,
                })
                .collect();
            let frontier = engine
                .observations()
                .iter()
                .find_map(|o| match o.value {
                    Obs::ControllerRecovered { frontier, .. } => Some(frontier),
                    _ => None,
                })
                .expect("the restarted controller completed its state sync");
            engine.with_controller(domain, victim, |c| RecoveredState {
                acked: c.pending().acked_ids().collect(),
                signers: barriers
                    .iter()
                    .map(|&(e, s)| c.barrier_signers(e, s))
                    .collect(),
                frontier,
                released: c.barriers_released(),
            })
        };
        engine.run_reporting(ms(350));
        let synced = state(&mut engine);
        let report = engine.run_reporting(ms(20_000));
        assert!(report.completed, "disk_lost={disk_lost}: {report}");
        assert_exactly_once(&engine);
        (synced, state(&mut engine))
    };
    let (kept_synced, kept_end) = run(false);
    let (lost_synced, lost_end) = run(true);
    assert!(!kept_synced.acked.is_empty(), "nothing was acked before the crash");
    assert!(
        kept_synced.signers.iter().any(|s| !s.is_empty()),
        "no barrier signer was on record: the comparison would be vacuous"
    );
    assert_eq!(kept_synced, lost_synced, "state right after the sync differs");
    assert_eq!(kept_end, lost_end, "state at the end of the run differs");
}
