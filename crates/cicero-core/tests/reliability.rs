//! Reliable-delivery tests: retransmission under uniform loss, recovery
//! across healed partitions, deterministic lossy traces, and watchdog
//! stall reports when the retry budget is exhausted.

use cicero_core::prelude::*;
use controller::policy::DomainMap;
use netmodel::routing::route;
use netmodel::topology::Topology;
use simnet::fault::FaultPlan;
use simnet::sim::ENVIRONMENT;
use southbound::types::{ControllerId, DomainId, FlowId, HostId, NetworkUpdate, SwitchId};

fn inject_one_flow(engine: &mut Engine, topo: &Topology, src: HostId, dst: HostId, id: u64) {
    let r = route(topo, src, dst).expect("connected");
    let ingress = topo.host(src).unwrap().attached;
    let node = engine.switch_node(ingress);
    let start = engine.now() + SimDuration::from_millis(id);
    engine.inject_raw(
        start,
        ENVIRONMENT,
        node,
        Net::FlowArrival {
            flow: FlowId(id),
            src,
            dst,
            bytes: 1_000,
            transit: r.latency,
            start,
        },
    );
}

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

fn cross_rack_pairs(topo: &Topology, n: usize) -> Vec<(HostId, HostId)> {
    let hosts = topo.hosts();
    let mut pairs = Vec::new();
    for src in hosts {
        for dst in hosts {
            if src.attached != dst.attached {
                pairs.push((src.id, dst.id));
                if pairs.len() == n {
                    return pairs;
                }
            }
        }
    }
    panic!("topology too small for {n} cross-rack pairs");
}

fn lossy_engine(mode: Mode, seed: u64, reliability: ReliabilityConfig) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = seed;
    cfg.reliability = reliability;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

fn all_controller_nodes(engine: &Engine) -> Vec<simnet::node::NodeId> {
    let n = engine.shared().cfg.controllers_per_domain;
    (1..=n)
        .map(|c| engine.controller_node(DomainId(0), ControllerId(c)))
        .collect()
}

/// Severs every link between the ingress ToR switch and the control plane
/// for `[ZERO, until)`, on top of `uniform_drop` background loss.
fn partition_plan(
    engine: &Engine,
    topo: &Topology,
    src: HostId,
    until: SimTime,
    uniform_drop: f64,
) -> FaultPlan {
    let ingress = topo.host(src).unwrap().attached;
    let sw = engine.switch_node(ingress);
    let mut plan = FaultPlan::none().with_drop_probability(uniform_drop);
    for cn in all_controller_nodes(engine) {
        plan = plan.with_severed_window(sw, cn, SimTime::ZERO, until);
    }
    plan
}

/// Seeded sweep: uniform drop up to 30% on the full protocol, all flows
/// still complete within a bounded horizon and the recovery machinery is
/// demonstrably what got them there (nonzero retransmit counters overall).
#[test]
fn lossy_sweep_completes_with_retransmission() {
    let mut recoveries = 0u64;
    substrate::forall!(cases = 8, |g| {
        let seed = g.u64();
        let drop = g.u32_in(5..31) as f64 / 100.0;
        let mode = Mode::Cicero {
            aggregation: Aggregation::Switch,
        };
        let (mut engine, topo) = lossy_engine(mode, seed, ReliabilityConfig::default());
        engine.set_faults(FaultPlan::none().with_drop_probability(drop));
        for (i, (src, dst)) in cross_rack_pairs(&topo, 3).into_iter().enumerate() {
            inject_one_flow(&mut engine, &topo, src, dst, i as u64 + 1);
        }
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(
            report.completed,
            "drop={drop} seed={seed:#x} did not complete: {report}"
        );
        assert_eq!(report.resolved_flows, 3, "drop={drop} seed={seed:#x}");
        recoveries += report.stats.total_recoveries();
    });
    assert!(recoveries > 0, "sweep never exercised the recovery path");
}

/// The aggregator-relay recovery path: controller aggregation under loss
/// relies on duplicate shares re-triggering the relay of the aggregated
/// quorum signature.
#[test]
fn controller_aggregation_tolerates_loss() {
    let mode = Mode::Cicero {
        aggregation: Aggregation::Controller,
    };
    let (mut engine, topo) = lossy_engine(mode, 7, ReliabilityConfig::default());
    engine.set_faults(FaultPlan::none().with_drop_probability(0.15));
    for (i, (src, dst)) in cross_rack_pairs(&topo, 2).into_iter().enumerate() {
        inject_one_flow(&mut engine, &topo, src, dst, i as u64 + 1);
    }
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
    assert!(report.completed, "controller agg under loss: {report}");
    assert_eq!(report.resolved_flows, 2);
}

/// Transient partitions of random length heal and the flows that arrived
/// while the control plane was unreachable still complete.
#[test]
fn transient_partition_heals_and_flows_complete() {
    substrate::forall!(cases = 6, |g| {
        let seed = g.u64();
        let secs = g.u64_in(1..6);
        let drop = g.u32_in(0..11) as f64 / 100.0;
        let until = SimTime::ZERO + SimDuration::from_secs(secs);
        let mode = Mode::Cicero {
            aggregation: Aggregation::Switch,
        };
        let (mut engine, topo) = lossy_engine(mode, seed, ReliabilityConfig::default());
        let (src, dst) = cross_rack_pairs(&topo, 1)[0];
        let plan = partition_plan(&engine, &topo, src, until, drop);
        engine.set_faults(plan);
        inject_one_flow(&mut engine, &topo, src, dst, 1);
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(
            report.completed,
            "partition {secs}s drop={drop} seed={seed:#x}: {report}"
        );
        // The PacketIn raised during the partition can only have made it
        // out via the switch's event retransmission.
        assert!(
            report.stats.event_retransmits > 0,
            "flow completed without retransmitting across the partition"
        );
    });
}

/// Acceptance scenario: 20% uniform drop plus a 10-second partition
/// between the ingress switch and the whole control plane. All flows
/// complete, and the run is deterministic — the same seed reproduces the
/// identical observation trace, retransmissions and all.
#[test]
fn healed_partition_with_heavy_loss_is_deterministic() {
    let run = || {
        let mode = Mode::Cicero {
            aggregation: Aggregation::Switch,
        };
        let (mut engine, topo) = lossy_engine(mode, 11, ReliabilityConfig::default());
        let pairs = cross_rack_pairs(&topo, 3);
        let until = SimTime::ZERO + SimDuration::from_secs(10);
        let plan = partition_plan(&engine, &topo, pairs[0].0, until, 0.20);
        engine.set_faults(plan);
        for (i, (src, dst)) in pairs.into_iter().enumerate() {
            inject_one_flow(&mut engine, &topo, src, dst, i as u64 + 1);
        }
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(180));
        let trace = engine.observations().to_vec();
        (report, trace)
    };
    let (report, trace) = run();
    assert!(report.completed, "lossy healed partition: {report}");
    assert_eq!(report.resolved_flows, 3);
    let mut done = completed_flows_from(&trace);
    done.sort();
    assert_eq!(done, vec![FlowId(1), FlowId(2), FlowId(3)]);
    assert!(report.stats.total_recoveries() > 0);
    assert!(report.end > SimTime::ZERO + SimDuration::from_secs(10));

    let (report2, trace2) = run();
    assert_eq!(report, report2, "same seed produced a different report");
    assert_eq!(trace, trace2, "same seed produced a different trace");
}

fn completed_flows_from(trace: &[simnet::sim::Observation<Obs>]) -> Vec<FlowId> {
    trace
        .iter()
        .filter_map(|o| match o.value {
            Obs::FlowCompleted { flow, .. } => Some(flow),
            _ => None,
        })
        .collect()
}

/// Control run for the acceptance scenario: with the reliability layer
/// disabled, the same faults leave the deployment stuck and the watchdog
/// reports a stall instead of spinning until the horizon.
#[test]
fn without_retransmission_the_same_faults_stall() {
    let mode = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    let (mut engine, topo) = lossy_engine(mode, 11, ReliabilityConfig::disabled());
    let pairs = cross_rack_pairs(&topo, 3);
    let until = SimTime::ZERO + SimDuration::from_secs(10);
    let plan = partition_plan(&engine, &topo, pairs[0].0, until, 0.20);
    engine.set_faults(plan);
    for (i, (src, dst)) in pairs.into_iter().enumerate() {
        inject_one_flow(&mut engine, &topo, src, dst, i as u64 + 1);
    }
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(180));
    assert!(report.stalled, "control run should stall: {report}");
    assert!(!report.completed);
    assert!(report.resolved_flows < report.injected_flows);
    assert_eq!(report.stats.total_recoveries(), 0);
    // The watchdog gave up long before the horizon — no hang.
    assert!(report.end < SimTime::ZERO + SimDuration::from_secs(30));
    assert!(completed_flows(&engine).is_empty());
}

/// Exhausting the retry budget must surface as an explicit failure in the
/// stall report, not as a hang: a *directed* black hole (controller →
/// ingress switch only) lets events out but swallows every update share.
#[test]
fn exhausted_retry_budget_reports_stall_not_hang() {
    let mode = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    let mut reliability = ReliabilityConfig::default();
    reliability.retry_base = SimDuration::from_millis(5);
    reliability.retry_budget = 3;
    reliability.nack_budget = 2;
    let (mut engine, topo) = lossy_engine(mode, 3, reliability);
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    let ingress = topo.host(src).unwrap().attached;
    let sw = engine.switch_node(ingress);
    // FaultPlan builders sever both directions; a one-way black hole has
    // to be assembled from the public fields.
    let mut plan = FaultPlan::none();
    for cn in all_controller_nodes(&engine) {
        plan.link_drop.insert((cn, sw), 1.0);
    }
    engine.set_faults(plan);
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(report.stalled, "expected a stall report: {report}");
    assert!(!report.completed);
    assert!(
        report.outstanding.failed > 0,
        "budget exhaustion should mark updates failed: {report}"
    );
    assert!(report.stats.updates_exhausted > 0);
    // Gave up well before the horizon.
    assert!(report.end < SimTime::ZERO + SimDuration::from_secs(60));
}

/// A clean run through the watchdog: completes, nothing outstanding, no
/// recoveries counted.
#[test]
fn watchdog_reports_clean_completion() {
    let mode = Mode::Cicero {
        aggregation: Aggregation::Switch,
    };
    let (mut engine, topo) = lossy_engine(mode, 5, ReliabilityConfig::default());
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(30));
    assert!(report.completed && !report.stalled, "{report}");
    assert_eq!(report.resolved_flows, 1);
    assert_eq!(report.outstanding.unacked, 0);
    assert_eq!(report.outstanding.waiting, 0);
    assert_eq!(report.outstanding.failed, 0);
    assert_eq!(report.outstanding.events, 0);
    assert_eq!(report.stats.total_recoveries(), 0);
}

/// An ack may overtake its update's admission at one controller: the switch
/// applies on a quorum of shares and acknowledges to everyone, the slowest
/// controller included, whether or not that one has delivered the event yet.
/// Here controller 4's copy of the egress switch's ack is at its door before
/// the flow even starts, and the copy the switch sends on applying is cut
/// (the link is severed), so nothing re-acks: the controller must make do
/// with the early one. It retires the update when consensus hands it the
/// event — no share signed, nothing in flight, nothing retransmitted. Taken
/// on the sender's word instead, the ack left the update in flight against a
/// switch that answers no more: retransmitted for the rest of the run.
#[test]
fn an_ack_that_overtook_its_updates_admission_retires_it_there() {
    use southbound::envelope::{MsgId, Tagged};
    use southbound::types::{EventId, Phase, UpdateId};
    let (mut engine, topo) = lossy_engine(Mode::CICERO, 5, ReliabilityConfig::default());
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    let attached = |h| topo.host(h).unwrap().attached;
    let (ingress, egress) = (attached(src), attached(dst));
    // Reverse-path order: the egress update, the last of three, goes
    // first. PacketIn event ids are (ingress switch << 32 | 1).
    let update = UpdateId {
        event: EventId((u64::from(ingress.0) << 32) | 1),
        seq: 2,
    };
    let slow = engine.controller_node(DomainId(0), ControllerId(4));
    engine.set_faults(FaultPlan::none().with_severed_link(engine.switch_node(egress), slow));
    let ack = Tagged {
        payload: AckBody {
            update,
            switch: egress,
        },
        phase: Phase(0),
        msg_id: MsgId {
            origin: egress.0,
            seq: 1,
        },
        tag: [0; 32],
    };
    let early = SimTime::ZERO + SimDuration::from_micros(10);
    engine.inject_raw(early, engine.switch_node(egress), slow, Net::AckMsg(ack));
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(30));
    assert!(report.completed && !report.stalled, "{report}");
    assert_eq!(report.resolved_flows, 1);
    assert_eq!(report.stats, RetransmitStats::default(), "{report}");
    let settled = engine.with_controller(DomainId(0), ControllerId(4), |a| {
        (a.pending().target(update), a.pending().is_settled(update), a.pending().in_flight_count())
    });
    assert_eq!(settled, (Some(egress), true, 0));
}

// ---------------------------------------------------------------------
// Cross-domain handshake under faults (DESIGN.md §3).
// ---------------------------------------------------------------------

/// Two-domain engine: rack ToRs split across domains, the edge switch in
/// domain 0. The flow `HostId(2) -> HostId(0)` crosses the boundary, with
/// domain 0 (destination ToR + edge) downstream and domain 1 upstream.
fn multi_domain_engine(seed: u64) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = seed;
    let topo = Topology::single_pod(2, 1, 2);
    let dm = DomainMap::split_racks(&topo, 2);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

fn domain_controller_nodes(engine: &Engine, d: DomainId) -> Vec<simnet::node::NodeId> {
    let n = engine.shared().cfg.controllers_per_domain;
    (1..=n)
        .map(|c| engine.controller_node(d, ControllerId(c)))
        .collect()
}

/// The flow's end-to-end audit (replaying every applied update) finds no
/// black hole, loop, or policy hazard.
fn assert_audit_clean(engine: &Engine, topo: &Topology, src: HostId, dst: HostId) {
    let ingress = topo.host(src).unwrap().attached;
    let m = southbound::types::FlowMatch { src, dst };
    let hazards = audit_flow(engine.observations(), ingress, m, false);
    assert!(hazards.is_empty(), "audit found hazards: {hazards:?}");
}

/// `SegmentApplied` reports and the re-forwards that ask for them again
/// travel on the inter-domain controller links. Dropping 30% of that traffic
/// forces the handshake through its recovery path: the flow must still
/// converge, in order, and the re-sent-report counter proves the recovery
/// machinery carried it. Prints the time to converge; over `CHECK_CASES=300`
/// PR 20's sender-driven predecessor took 96.3 ms in the mean (p90 310.8, max
/// 881.3), its queries 70.7 (p90 193.2, max 537.6).
#[test]
fn handshake_survives_segment_ack_loss() {
    let mut segment_rtx = 0u64;
    let mut converged_ms = Vec::new();
    substrate::forall!(cases = 6, |g| {
        let seed = g.u64();
        let (mut engine, topo) = multi_domain_engine(seed);
        let mut plan = FaultPlan::none();
        for a in domain_controller_nodes(&engine, DomainId(0)) {
            for b in domain_controller_nodes(&engine, DomainId(1)) {
                plan = plan.with_link_drop_probability(a, b, 0.30);
            }
        }
        engine.set_faults(plan);
        let (src, dst) = (HostId(2), HostId(0));
        inject_one_flow(&mut engine, &topo, src, dst, 1);
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(report.completed, "seed={seed:#x}: {report}");
        assert_eq!(report.resolved_flows, 1, "seed={seed:#x}");
        assert_audit_clean(&engine, &topo, src, dst);
        segment_rtx += report.stats.segment_retransmits + report.stats.forward_retransmits;
        let done = engine.observations().iter().find_map(|o| match o.value {
            Obs::FlowCompleted { start, .. } => Some(o.at.since(start).as_millis_f64()),
            _ => None,
        });
        converged_ms.push(done.expect("resolved"));
    });
    assert!(
        segment_rtx > 0,
        "30% inter-domain loss never exercised handshake retransmission"
    );
    let mean = converged_ms.iter().sum::<f64>() / converged_ms.len() as f64;
    println!("30% handshake loss: mean time to converge {mean:.1} ms over {converged_ms:?}");
}

/// The unsolicited copy of every share reaches only one of the four
/// upstream controllers. The other three still wait on the downstream domain,
/// so each re-forwards the event when its clock expires — one `retry_base`
/// (plus up to a quarter of it in jitter) after delivering it — and releases
/// one round trip later, on the shares the re-forward drew. No reporter
/// retransmits unasked; the controller that got the shares never re-forwards.
#[test]
fn shares_lost_to_three_of_four_upstream_controllers_are_fetched_within_one_retry() {
    let (mut engine, topo) = multi_domain_engine(11);
    let (down, up) = (DomainId(0), DomainId(1));
    let lucky = engine.controller_node(up, ControllerId(1));
    // The cut covers the whole first life of the handshake (a few ms) and
    // heals long before the first re-forward is due.
    let healed = SimTime::ZERO + SimDuration::from_millis(50);
    let mut plan = FaultPlan::none();
    for r in domain_controller_nodes(&engine, down) {
        for u in domain_controller_nodes(&engine, up) {
            if u != lucky {
                plan = plan.with_severed_window(r, u, SimTime::ZERO, healed);
            }
        }
    }
    engine.set_faults(plan);
    let (src, dst) = (HostId(2), HostId(0));
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(10));
    assert!(report.completed, "{report}");
    assert_audit_clean(&engine, &topo, src, dst);
    let obs = engine.observations();
    let at = |pick: fn(&Obs) -> Option<u32>| -> Vec<(u32, SimTime)> {
        obs.iter().filter_map(|o| pick(&o.value).map(|c| (c, o.at))).collect()
    };
    let reported = at(|o| match *o {
        Obs::SegmentReported { controller, .. } => Some(controller),
        _ => None,
    });
    let queried = at(|o| match *o {
        Obs::ForwardRetransmitted { controller, .. } => Some(controller),
        _ => None,
    });
    let released = at(|o| match *o {
        Obs::BoundaryReleased { controller, .. } => Some(controller),
        _ => None,
    });
    assert_eq!(reported.len(), 4);
    assert!(reported.iter().all(|&(_, t)| t < healed), "reports must fall into the cut");
    let mut askers: Vec<u32> = queried.iter().map(|&(c, _)| c).collect();
    askers.sort_unstable();
    assert_eq!(askers, vec![2, 3, 4], "the controllers that missed the shares re-forward, once");
    assert_eq!(released.len(), 4, "every barrier releases: {released:?}");
    let retry_base = engine.shared().cfg.reliability.retry_base;
    let first_report = reported.iter().map(|&(_, t)| t).min().expect("four reports");
    // Registration precedes the first report; a round trip between two
    // controllers of this pod is well under 5 ms.
    let deadline = first_report
        + retry_base
        + SimDuration::from_nanos(retry_base.as_nanos() / 4)
        + SimDuration::from_millis(5);
    for &(c, t) in &released {
        assert!(t <= deadline, "controller {c} released at {t:?}, after {deadline:?}");
        if c != 1 {
            let asked = queried.iter().find(|&&(q, _)| q == c).expect("asked").1;
            assert!(t > asked, "controller {c} released before it asked");
        }
    }
    // One round of re-forwards: 3 askers × 4 reporters, each answered once.
    assert_eq!(report.stats.segment_retransmits, 12);
}

/// A retransmission never redoes crypto: while the egress switch can hear
/// only one controller (below quorum), the other three retransmit its
/// update again and again and the fourth answers its NACKs — all with the
/// share each signed once. When the links heal, the switch reaches quorum
/// on re-sent shares, under real crypto.
#[test]
fn retransmissions_resend_the_kept_share_and_sign_nothing() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Real;
    let topo = Topology::single_pod(2, 2, 2);
    let mut engine = Engine::build(cfg, topo.clone(), DomainMap::single(&topo), 0);
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    let egress = topo.host(dst).unwrap().attached;
    let healed = SimTime::ZERO + SimDuration::from_millis(700);
    let mut plan = FaultPlan::none();
    for c in all_controller_nodes(&engine).into_iter().skip(1) {
        plan = plan.with_severed_window(engine.switch_node(egress), c, SimTime::ZERO, healed);
    }
    engine.set_faults(plan);
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let signs = |engine: &mut Engine| -> Vec<u64> {
        (1..=4)
            .map(|c| engine.with_controller(DomainId(0), ControllerId(c), |a| a.auth().signs()))
            .collect()
    };
    // The egress update is the first of the reverse-path chain: until it is
    // acked nothing else is released, so each controller has signed once.
    engine.run(SimTime::ZERO + SimDuration::from_millis(50));
    assert_eq!(signs(&mut engine), vec![1; 4]);
    engine.run(healed);
    let stats = retransmit_stats(engine.observations());
    assert!(stats.update_retransmits >= 3 * 2, "cut-off controllers retransmit: {stats:?}");
    assert!(stats.nacks >= 1, "the starved switch asks: {stats:?}");
    assert_eq!(signs(&mut engine), vec![1; 4], "no retransmission or NACK answer signs");
    let report = engine.run_reporting(healed + SimDuration::from_secs(5));
    assert!(report.completed, "{report}");
    let quorum = engine.observations().iter().find_map(|o| match o.value {
        Obs::UpdateApplied { switch, signers, .. } if switch == egress => Some((o.at, signers)),
        _ => None,
    });
    let (at, signers) = quorum.expect("the egress update goes in");
    assert!(at >= healed && signers >= 2, "quorum only on re-sent shares: {signers} at {at:?}");
    // Three updates on the path, each share-signed once per controller.
    assert_eq!(signs(&mut engine), vec![3; 4]);
}

// ---------------------------------------------------------------------
// Segway ready-message reliability (DESIGN.md §3, decentralized mode).
// ---------------------------------------------------------------------

/// Every `ReadySent` in the trace is unique per `(update, from, to)`:
/// releases are exactly-once no matter how many times the quorum body or
/// a ready was duplicated, asked for again, or replayed across a restart
/// (a kept ready re-sent surfaces as `ReadyRetransmitted`, never a second
/// `ReadySent`).
fn assert_exactly_once_releases(engine: &Engine) {
    let mut seen = std::collections::BTreeSet::new();
    for o in engine.observations() {
        if let Obs::ReadySent { from, to, update } = o.value {
            assert!(
                seen.insert((update, from, to)),
                "release ({update:?}, {from:?} -> {to:?}) emitted twice"
            );
        }
    }
}

/// Segway's switch-to-switch ready messages — and the queries that ask for
/// them again — ride the same reliability machinery as everything else:
/// 30% loss on every switch-switch link plus 10% duplication, all flows
/// still converge, releases stay exactly-once, and the re-sent-ready
/// counter proves the recovery path carried them.
#[test]
fn segway_ready_loss_and_duplication_recovers() {
    let mut ready_rtx = 0u64;
    substrate::forall!(cases = 6, |g| {
        let seed = g.u64();
        let (mut engine, topo) =
            lossy_engine(Mode::Segway, seed, ReliabilityConfig::default());
        let sw_nodes: Vec<simnet::node::NodeId> = topo
            .switches()
            .iter()
            .map(|s| engine.switch_node(s.id))
            .collect();
        let mut plan = FaultPlan::none().with_duplicate_probability(0.10);
        for (i, &a) in sw_nodes.iter().enumerate() {
            for &b in &sw_nodes[i + 1..] {
                plan = plan.with_link_drop_probability(a, b, 0.30);
            }
        }
        engine.set_faults(plan);
        for (i, (src, dst)) in cross_rack_pairs(&topo, 3).into_iter().enumerate() {
            inject_one_flow(&mut engine, &topo, src, dst, i as u64 + 1);
        }
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(report.completed, "seed={seed:#x}: {report}");
        assert_eq!(report.resolved_flows, 3, "seed={seed:#x}");
        assert_exactly_once_releases(&engine);
        ready_rtx += report.stats.ready_retransmits;
    });
    assert!(
        ready_rtx > 0,
        "30% switch-link loss never exercised ready retransmission"
    );
}

/// A Segway switch restarting mid-update must not re-release a neighbor
/// it already released: the release journal is replayed from the WAL, so
/// the revived switch never double-applies its segment, sends no ready
/// unasked, and answers the released neighbor's query — with exactly one
/// tag, for the copy the restart dropped. The restart victim is a path
/// switch other than the flow's ingress ToR (the waiting flow itself is
/// RAM-only by design; the WAL protects protocol state, not workload).
#[test]
fn segway_switch_restart_mid_update_releases_exactly_once() {
    let mut journaled_crashes = 0u32;
    substrate::forall!(cases = 6, |g| {
        let seed = g.u64();
        // Releases land around 6-8 ms after the 1 ms flow start on this
        // fabric; the window straddles them so the sweep covers crashes
        // both before and after the victim's journaled release.
        let crash_ms = g.u64_in(6..12);
        let (mut engine, topo) =
            lossy_engine(Mode::Segway, seed, ReliabilityConfig::default());
        let (src, dst) = cross_rack_pairs(&topo, 1)[0];
        let r = route(&topo, src, dst).unwrap();
        let ingress = topo.host(src).unwrap().attached;
        let victim = *r
            .path
            .iter()
            .find(|&&s| s != ingress)
            .expect("cross-rack route has a non-ingress switch");
        let node = engine.switch_node(victim);
        let at = SimTime::ZERO + SimDuration::from_millis(crash_ms);
        engine.set_faults(FaultPlan::none().with_crash(at, node));
        engine.schedule_restart(at + SimDuration::from_millis(5), node, false);
        inject_one_flow(&mut engine, &topo, src, dst, 1);
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(
            report.completed,
            "crash at {crash_ms}ms seed={seed:#x}: {report}"
        );
        assert_eq!(report.resolved_flows, 1, "seed={seed:#x}");
        assert_exactly_once_releases(&engine);
        // Did this case actually crash *after* the victim journaled a
        // release? Only then does the replay path carry any weight.
        let released_before_crash = engine.observations().iter().find_map(|o| match o.value {
            Obs::ReadySent { from, to, update } if o.at <= at && from == victim => Some((update, to)),
            _ => None,
        });
        // Nothing unsolicited: whatever the victim re-sent, it was asked for.
        let mut asked = 0usize;
        for o in engine.observations() {
            match o.value {
                Obs::ReadyQueried { from, .. } if from == victim => asked += 1,
                Obs::ReadyRetransmitted { from, .. } if from == victim => {
                    asked = asked.checked_sub(1).expect("a ready re-sent unasked");
                }
                _ => {}
            }
        }
        let Some((update, to)) = released_before_crash else {
            return;
        };
        journaled_crashes += 1;
        // The revived releaser holds the release, not the tag: the first
        // query costs one tag (unless the run already asked), the next one
        // none, and neither a signature.
        let was_asked = engine.observations().iter().any(|o| {
            matches!(o.value, Obs::ReadyRetransmitted { from, .. } if from == victim)
        });
        let asker = engine.switch_node(to);
        let query = Net::SegwayReadyQuery { update };
        let made = |e: &mut Engine| e.with_switch(victim, |s| (s.auth().tags(), s.auth().signs()));
        let mut cost = Vec::new();
        for _ in 0..2 {
            let before = made(&mut engine);
            let at = engine.now() + SimDuration::from_millis(1);
            engine.inject_raw(at, asker, node, query.clone());
            engine.run(at + SimDuration::from_millis(5));
            let after = made(&mut engine);
            cost.push((after.0 - before.0, after.1 - before.1));
        }
        assert_eq!(cost, vec![(u64::from(!was_asked), 0), (0, 0)], "seed={seed:#x}");
        assert_exactly_once_releases(&engine);
    });
    assert!(
        journaled_crashes > 0,
        "no swept case crashed the victim after a journaled release; the \
         WAL-replay path was never exercised"
    );
}

/// A three-switch Segway route on the lossy fabric: `path[i]` applies
/// update `i` and is gated on `(update i + 1, path[i + 1])`.
fn segway_route(seed: u64, reliability: ReliabilityConfig) -> (Engine, Topology, Vec<SwitchId>) {
    let (engine, topo) = lossy_engine(Mode::Segway, seed, reliability);
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    let path = route(&topo, src, dst).expect("connected").path;
    assert_eq!(path.len(), 3);
    (engine, topo, path)
}

/// The ready from the egress ToR to the edge switch is lost to a severed
/// link that heals long before any clock fires. The edge switch holds the
/// parked body, so it asks when its clock expires — one `retry_base` (plus
/// up to a quarter of it in jitter) after parking — and goes on one round
/// trip later, on the kept ready. Nobody re-sends unasked.
#[test]
fn ready_lost_on_a_severed_switch_link_is_fetched_within_one_retry_of_parking() {
    let (mut engine, topo, path) = segway_route(11, ReliabilityConfig::default());
    let (releaser, target) = (path[2], path[1]);
    let healed = SimTime::ZERO + SimDuration::from_millis(50);
    let cut = (engine.switch_node(releaser), engine.switch_node(target));
    engine.set_faults(FaultPlan::none().with_severed_window(cut.0, cut.1, SimTime::ZERO, healed));
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(10));
    assert!(report.completed, "{report}");
    assert_audit_clean(&engine, &topo, src, dst);
    assert_exactly_once_releases(&engine);
    let obs = engine.observations();
    let when = |pick: &dyn Fn(&Obs) -> bool| -> Vec<SimTime> {
        obs.iter().filter(|o| pick(&o.value)).map(|o| o.at).collect()
    };
    let sent = when(&|o| matches!(*o, Obs::ReadySent { from, .. } if from == releaser));
    let asked = when(&|o| matches!(*o, Obs::ReadyQueried { switch, from, .. } if switch == target && from == releaser));
    let resent = when(&|o| matches!(*o, Obs::ReadyRetransmitted { .. }));
    let applied = when(&|o| matches!(*o, Obs::UpdateApplied { switch, .. } if switch == target));
    assert_eq!(sent.len(), 1);
    assert!(sent[0] < healed, "the release must fall into the cut");
    assert_eq!(asked.len(), 1, "one query fetches it");
    assert_eq!(resent.len(), 1, "answered once, to the asker");
    assert_eq!(report.stats.ready_retransmits, 1);
    // The body parked before the release it waits for was made; a round
    // trip between two switches of this pod is well under 5 ms.
    let retry_base = engine.shared().cfg.reliability.retry_base;
    let deadline = sent[0]
        + retry_base
        + SimDuration::from_nanos(retry_base.as_nanos() / 4)
        + SimDuration::from_millis(5);
    assert!(asked[0] >= healed && resent[0] >= asked[0]);
    assert!(applied[0] > resent[0] && applied[0] <= deadline, "{:?} > {deadline:?}", applied[0]);
}

/// The releaser acks its update and then dies for good with its ready lost:
/// the target's body stays parked, its queries go unanswered and stop with
/// the budget, and the run is reported not completed through the
/// controllers' unacked update and its exhaustion — never as converged.
#[test]
fn releaser_crashed_for_good_after_acking_is_reported_not_silently_converged() {
    let mut reliability = ReliabilityConfig::default();
    reliability.retry_base = SimDuration::from_millis(5);
    reliability.retry_budget = 3;
    let (mut engine, topo, path) = segway_route(3, reliability);
    let (releaser, target) = (path[2], path[1]);
    let (r, t) = (engine.switch_node(releaser), engine.switch_node(target));
    let plan = FaultPlan::none()
        .with_link_drop_probability(r, t, 1.0)
        .with_crash(SimTime::ZERO + SimDuration::from_millis(20), r);
    engine.set_faults(plan);
    let (src, dst) = cross_rack_pairs(&topo, 1)[0];
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(30));
    let obs = engine.observations();
    assert!(
        obs.iter().any(|o| matches!(o.value, Obs::UpdateApplied { switch, .. } if switch == releaser)),
        "the releaser applied (and acked) before it died"
    );
    assert!(!report.completed, "{report}");
    assert_eq!(report.resolved_flows, 0);
    assert!(report.outstanding.failed > 0 && report.stats.updates_exhausted > 0, "{report}");
    assert!(!obs.iter().any(|o| matches!(o.value, Obs::UpdateApplied { switch, .. } if switch == target)));
    let attempts: Vec<u32> = obs
        .iter()
        .filter_map(|o| match o.value {
            Obs::ReadyQueried { switch, attempt, .. } if switch == target => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![1, 2, 3], "budget 3: three queries, then quiet");
    assert_eq!(report.stats.ready_retransmits, 0);
}

/// A switch WAL written before the ready receipt was retired holds tag-2
/// frames between the records this build knows. Replay skips them and
/// restores everything around them: the flow table, the release ledger (the
/// released neighbor's query is answered) and the accepted ready.
#[test]
fn wal_with_a_retired_receipt_frame_replays_with_the_frame_skipped() {
    use cicero_core::msg::SwitchWalRecord;
    use southbound::codec::Wire;
    use southbound::types::{EventId, FlowAction, FlowMatch, FlowRule, NextHop, UpdateId, UpdateKind};
    use substrate::storage::{mem_disk, Wal};
    let (mut engine, _, path) = segway_route(5, ReliabilityConfig::default());
    let (me, neighbor) = (path[1], path[0]);
    let id = |seq| UpdateId {
        event: EventId(0x0102030405060708),
        seq,
    };
    let update = NetworkUpdate {
        id: id(1),
        switch: me,
        kind: UpdateKind::Install(FlowRule {
            matcher: FlowMatch {
                src: HostId(0),
                dst: HostId(1),
            },
            action: FlowAction::Forward(NextHop::Switch(neighbor)),
        }),
    };
    let disk = mem_disk();
    let (mut wal, _) = Wal::open(disk.clone(), "switch.wal");
    wal.append(&SwitchWalRecord::Applied { update, signers: 2 }.to_wire());
    wal.append(&SwitchWalRecord::ReadySent { update: id(1), to: neighbor }.to_wire());
    // The receipt record for `(id(1), neighbor)`, as older builds wrote it.
    let mut retired = vec![2u8];
    retired.extend_from_slice(&id(1).to_wire());
    retired.extend_from_slice(&neighbor.to_wire());
    wal.append(&retired);
    wal.append(&SwitchWalRecord::ReadyIn { update: id(2), from: path[2] }.to_wire());
    drop(wal);
    let restored = engine.with_switch(me, |s| {
        s.attach_disk(disk, true);
        (s.applied_count(), s.table().len())
    });
    assert_eq!(restored, (1, 1));
    let at = engine.now() + SimDuration::from_millis(1);
    let query = Net::SegwayReadyQuery { update: id(1) };
    engine.inject_raw(at, engine.switch_node(neighbor), engine.switch_node(me), query);
    engine.run(at + SimDuration::from_millis(5));
    assert_eq!(retransmit_stats(engine.observations()).ready_retransmits, 1);
}

/// The downstream domain's consensus primary crashes mid-handshake (while
/// its segment is installing, before the upstream release). The remaining
/// replicas change views, finish the segment, and report it applied; the
/// upstream boundary update is released late but never early.
#[test]
fn downstream_primary_crash_mid_handshake_converges() {
    substrate::forall!(cases = 6, |g| {
        let seed = g.u64();
        let crash_ms = g.u64_in(2..12);
        let (mut engine, topo) = multi_domain_engine(seed);
        let victim = engine.controller_node(DomainId(0), ControllerId(1));
        let at = SimTime::ZERO + SimDuration::from_millis(crash_ms);
        engine.set_faults(FaultPlan::none().with_crash(at, victim));
        let (src, dst) = (HostId(2), HostId(0));
        inject_one_flow(&mut engine, &topo, src, dst, 1);
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
        assert!(
            report.completed && !report.stalled,
            "crash at {crash_ms}ms seed={seed:#x}: {report}"
        );
        assert_eq!(report.resolved_flows, 1, "seed={seed:#x}");
        assert_audit_clean(&engine, &topo, src, dst);
    });
}

/// A forward whose retry budget is spent must go quiet, not spin: with
/// every inter-domain controller link dead, each upstream controller
/// re-forwards the event `retry_budget` times and then only waits. (An
/// exhausted barrier clock once kept reporting its stale deadline,
/// re-arming the retry timer at zero delay forever — simulated time stopped
/// advancing and the run never returned.)
#[test]
fn spent_reforward_budget_goes_quiet_instead_of_spinning() {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.reliability.retry_base = SimDuration::from_millis(5);
    cfg.reliability.retry_budget = 3;
    let topo = Topology::single_pod(2, 1, 2);
    let dm = DomainMap::split_racks(&topo, 2);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let mut plan = FaultPlan::none();
    for a in domain_controller_nodes(&engine, DomainId(0)) {
        for b in domain_controller_nodes(&engine, DomainId(1)) {
            plan = plan.with_link_drop_probability(a, b, 1.0);
        }
    }
    engine.set_faults(plan);
    inject_one_flow(&mut engine, &topo, HostId(2), HostId(0), 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(5));
    assert!(!report.completed, "downstream never heard of it: {report}");
    // Quiet, not spinning: the watchdog waited out its quiet window. A
    // zero-delay re-arm loop is cut off by the slice event budget with the
    // clock still standing at the instant the budget ran out.
    assert!(
        report.end > SimTime::ZERO + SimDuration::from_secs(1),
        "simulated time stopped: {report}"
    );
    assert_eq!(report.resolved_flows, 0);
    let mut attempts: std::collections::BTreeMap<(DomainId, u32), Vec<u32>> = Default::default();
    for o in engine.observations() {
        if let Obs::ForwardRetransmitted { domain, controller, attempt, .. } = o.value {
            attempts.entry((domain, controller)).or_default().push(attempt);
        }
    }
    let each = (1..=4).map(|c| ((DomainId(1), c), vec![1, 2, 3])).collect();
    assert_eq!(attempts, each, "budget 3: three re-forwards per upstream controller");
}

// ---------------------------------------------------------------------
// One recovery loop for cross-domain events: whoever still waits on
// another domain re-forwards the event (ROADMAP item 2, hole (4)).
// ---------------------------------------------------------------------

/// A pod of `racks` racks, one domain per rack ToR, the edge switch in
/// domain 0. With three, `HostId(2) -> HostId(4)` runs through domains
/// 1 -> 0 -> 2.
fn rack_domains_engine(
    mode: Mode,
    crypto: CryptoMode,
    racks: u16,
    seed: u64,
) -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    cfg.seed = seed;
    let topo = Topology::single_pod(racks, 1, 2);
    let dm = DomainMap::split_racks(&topo, racks);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

/// Severs every controller of `from` in `cut` from every controller of
/// domain `to`, for the whole run.
fn cut_off(engine: &Engine, from: DomainId, cut: &[u32], to: DomainId) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &c in cut {
        for b in domain_controller_nodes(engine, to) {
            plan = plan.with_severed_link(engine.controller_node(from, ControllerId(c)), b);
        }
    }
    plan
}

/// Every controller of every domain in `domains` ends the run keeping no
/// forward.
fn assert_no_forward_kept(engine: &mut Engine, domains: &[DomainId]) {
    for &d in domains {
        for c in 1..=4 {
            let kept = engine.with_controller(d, ControllerId(c), |a| a.handshake_footprint()[1]);
            assert_eq!(kept, 0, "controller {c} of {d:?} still keeps a forward");
        }
    }
}

/// The controllers of `domain` that re-forwarded.
fn reforwarders(engine: &Engine, domain: DomainId) -> std::collections::BTreeSet<u32> {
    let mine = |o: &Obs| match *o {
        Obs::ForwardRetransmitted { domain: d, controller, .. } if d == domain => Some(controller),
        _ => None,
    };
    engine.observations().iter().filter_map(|o| mine(&o.value)).collect()
}

/// The lowest upstream controller — the only one that forwards an event at
/// receipt — is cut off from the whole downstream domain for the whole run,
/// so its forward and every re-forward of it are lost. The other three wait
/// on the same downstream segment (a barrier, or under Segway a foreign gate)
/// and re-forward themselves; the downstream domain delivers the event from
/// their copies and the flow completes. (When only the lowest re-forwarded,
/// the others waited on a domain that had never heard of the event, and the
/// run stalled.)
fn lowest_upstream_cut_off(mode: Mode) {
    let (mut engine, topo) = rack_domains_engine(mode, CryptoMode::Modeled, 2, 41);
    let (down, up) = (DomainId(0), DomainId(1));
    engine.set_faults(cut_off(&engine, up, &[1], down));
    let (src, dst) = (HostId(2), HostId(0));
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(report.completed, "{report}");
    assert_eq!(report.resolved_flows, 1);
    assert_audit_clean(&engine, &topo, src, dst);
    let others = reforwarders(&engine, up).into_iter().any(|c| c != 1);
    assert!(others, "the event reached the downstream domain another way");
    // A Cicero lowest still waits for a certificate it cannot hear and
    // re-forwards into the cut until its budget is spent; then it, too,
    // keeps nothing.
    engine.run(SimTime::ZERO + SimDuration::from_secs(60));
    assert_no_forward_kept(&mut engine, &[down, up]);
}

#[test]
fn a_forward_lost_with_the_lowest_upstream_controller_is_resent_by_the_others() {
    lowest_upstream_cut_off(Mode::CICERO);
}

#[test]
fn a_segway_forward_lost_with_the_lowest_upstream_controller_is_resent_by_the_others() {
    lowest_upstream_cut_off(Mode::Segway);
}

/// Three domains in a row under real crypto, Segway: origin domain 1, the
/// middle domain 0 and the far domain 2, whose controllers the origin
/// domain's cannot reach. The far domain learns the event only from the
/// middle domain's re-forward, which the middle domain signs — so it names
/// itself as the forward's origin, or the far domain checks the signature
/// against the wrong key and drops it.
#[test]
fn the_far_domain_accepts_the_middle_domains_reforward_under_real_crypto() {
    let (mut engine, topo) = rack_domains_engine(Mode::Segway, CryptoMode::Real, 3, 43);
    let (origin, middle, far) = (DomainId(1), DomainId(0), DomainId(2));
    engine.set_faults(cut_off(&engine, origin, &[1, 2, 3, 4], far));
    let (src, dst) = (HostId(2), HostId(4));
    inject_one_flow(&mut engine, &topo, src, dst, 1);
    let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(60));
    assert!(report.completed, "{report}");
    assert_audit_clean(&engine, &topo, src, dst);
    let first = |pick: &dyn Fn(&Obs) -> bool| {
        let obs = engine.observations();
        obs.iter().find(|o| pick(&o.value)).map(|o| o.at)
    };
    let reforwarded = first(&|o| matches!(o, Obs::ForwardRetransmitted { domain: d, .. } if *d == middle))
        .expect("the middle domain re-forwards");
    let delivered = first(&|o| matches!(o, Obs::EventProcessed { domain: d, .. } if *d == far))
        .expect("the far domain delivers");
    assert!(reforwarded < delivered, "the far domain heard of the event before the re-forward");
    assert_no_forward_kept(&mut engine, &[origin, middle, far]);
}

/// A re-forward never redoes a signature: with every inter-domain
/// controller link dead, each upstream controller re-forwards the event
/// `retry_budget` times — each time the body and id it kept at its first
/// re-send, re-tagged for the downstream domain's four members. The
/// forward-stream twin of `retransmissions_resend_the_kept_share_and_sign_nothing`.
#[test]
fn reforwards_resend_the_kept_forward_and_sign_nothing() {
    let mut cfg = EngineConfig::for_mode(Mode::CICERO);
    cfg.crypto = CryptoMode::Real;
    cfg.reliability.retry_budget = 3;
    let topo = Topology::single_pod(2, 1, 2);
    let mut engine = Engine::build(cfg, topo.clone(), DomainMap::split_racks(&topo, 2), 0);
    let (down, up) = (DomainId(0), DomainId(1));
    engine.set_faults(cut_off(&engine, up, &[1, 2, 3, 4], down));
    inject_one_flow(&mut engine, &topo, HostId(2), HostId(0), 1);
    engine.run(SimTime::ZERO + SimDuration::from_secs(10));
    let made: Vec<(u64, u64)> = (1..=4)
        .map(|c| engine.with_controller(up, ControllerId(c), |a| (a.auth().signs(), a.auth().tags())))
        .collect();
    // The upstream schedule is held on the barrier, so nothing is signed,
    // and the tags are the lowest's forward at receipt (one reader) and
    // three re-forwards of four copies each.
    assert_eq!(made, vec![(0, 1 + 3 * 4), (0, 3 * 4), (0, 3 * 4), (0, 3 * 4)]);
    let mut rounds = vec![0; 4];
    for o in engine.observations() {
        if let Obs::ForwardRetransmitted { controller, attempt, .. } = o.value {
            rounds[controller as usize - 1] = attempt;
        }
    }
    assert_eq!(rounds, vec![3; 4], "budget 3: three re-forwards each");
}

/// The aggregator's kept relay (controller aggregation): a second share from
/// a signer it has already counted means that controller saw no ack, so the
/// switch lost the aggregate — it is relayed again, the very message. A first
/// share from another signer after the relay is the tail of the original
/// broadcast and draws nothing.
#[test]
fn a_retransmitted_share_re_relays_the_kept_aggregate_and_a_late_first_share_does_not() {
    use blscrypto::bls::PartialSignature;
    use blscrypto::curves::g1_generator;
    use cicero_core::msg::UpdateBody;
    use simnet::node::{Actor, Context, Effect};
    use southbound::envelope::{MsgId, ShareSigned};
    use southbound::types::{EventId, FlowAction, FlowMatch, FlowRule, NextHop, Phase, UpdateId, UpdateKind};
    use substrate::rng::{SeedableRng, StdRng};

    let (mut engine, topo) = lossy_engine(Mode::CICERO_AGG, 1, ReliabilityConfig::default());
    let switch = topo.switches()[0].id;
    let rule = FlowRule {
        matcher: FlowMatch { src: HostId(0), dst: HostId(1) },
        action: FlowAction::Forward(NextHop::Host(HostId(1))),
    };
    let update = NetworkUpdate {
        id: UpdateId { event: EventId(9), seq: 0 },
        switch,
        kind: UpdateKind::Install(rule),
    };
    let body = UpdateBody { update, gates: Vec::new(), notify: Vec::new() };
    let (d, aggregator) = (DomainId(0), ControllerId(1));
    // Controller `c`'s share reaches the aggregator over its own channel
    // (modeled crypto: a quorum certifies on the count); returns the
    // aggregates the handler relayed.
    let mut share_from = |c: u32| {
        let share = ShareSigned {
            payload: body.clone(),
            phase: Phase(0),
            msg_id: MsgId { origin: c, seq: 1 },
            partial: PartialSignature { index: c, sig: g1_generator().to_affine() },
        };
        let mut rng = StdRng::seed_from_u64(0);
        let (me, from) = (engine.controller_node(d, aggregator), engine.controller_node(d, ControllerId(c)));
        let mut ctx = Context::new(engine.now(), me, &mut rng);
        let msg = Net::UpdateToAggregator(share);
        engine.with_controller(d, aggregator, |a| a.on_message(&mut ctx, from, msg));
        let relayed = ctx.into_effects().into_iter().filter_map(|e| match e {
            Effect::Send { msg: Net::UpdateAggregated(m), .. } => Some(m),
            _ => None,
        });
        relayed.collect::<Vec<_>>()
    };
    assert!(share_from(1).is_empty(), "below quorum");
    let first = share_from(2);
    assert_eq!(first.len(), 1, "the quorum is relayed");
    assert!(share_from(3).is_empty(), "a first share after the relay is the broadcast's tail");
    for c in [2, 3] {
        let again = share_from(c);
        assert_eq!(again, first, "controller {c}'s retransmission re-relays the kept aggregate");
        assert_eq!(again[0].msg_id, first[0].msg_id);
    }
}
