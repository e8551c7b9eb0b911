//! # simcheck — deterministic simulation fuzzing for the Cicero engine
//!
//! A FoundationDB-style simulation tester over the repo's discrete-event
//! simulator: a seeded generator ([`scenario`]) samples whole deployments —
//! topology, update domains, controller counts, workload, and a fault plan
//! of message loss, partitions, crashes and Byzantine share injection — and
//! every sampled scenario is run through [`cicero_core::engine::Engine`]
//! and judged by a registry of invariant oracles ([`oracle`]):
//!
//! * **consistency** — the `audit.rs` hazard walks (transient loop, black
//!   hole, policy violation, misdelivery) after every applied update;
//! * **capacity** — no intermediate rule state over-provisions a link
//!   ([`netmodel::linkload::LinkLoad`]);
//! * **security** — no `UpdateApplied` without the Byzantine quorum of
//!   signature shares the mode promises, and no injected rogue update is
//!   ever applied;
//! * **liveness** — a fault plan that leaves progress possible must end in
//!   a drained, completed run (no stall, no abandoned updates);
//! * **agreement** — event delivery sequences stay prefix-consistent
//!   within every domain;
//! * **recovery** — crash-recovery is exactly-once: no switch ever applies
//!   the same update twice or releases a neighbor twice (WAL replay and
//!   post-restart retries must be absorbed by dedup), and in a benign
//!   scenario every crash-recover fault ends with the restarted controller
//!   completing its state sync;
//! * **telemetry** — every observation against its row of one pairing
//!   table: a response follows its stimulus, a subject is stated once, and
//!   every re-send stream numbers its attempts without a gap.
//!
//! A failing scenario is automatically [`shrink`]-ed — fewer flows, fewer
//! faults, shorter partition windows, a smaller fabric — to a minimal
//! reproducer, then serialized ([`artifact`]) to a JSON replay artifact the
//! `simcheck` binary (in the bench crate) re-executes deterministically:
//!
//! ```text
//! cargo run -q --offline -p bench --bin simcheck -- replay <artifact.json>
//! ```
//!
//! Everything is deterministic: a scenario is a pure function of its seed,
//! and a run is a pure function of its scenario, so every failure replays
//! bit-identically — the property `substrate::check`'s `CHECK_SEED`
//! contract relies on.

#![forbid(unsafe_code)]


pub mod artifact;
pub mod harness;
pub mod oracle;
pub mod scenario;
pub mod shrink;

use cicero_core::prelude::*;

pub use oracle::Violation;
pub use scenario::{Fault, FlowPlan, Scenario, SchedTag};

use controller::policy::DomainMap;
use netmodel::topology::Topology;
use southbound::types::ControllerId;
use simnet::sim::Observation;
use simnet::time::{SimDuration, SimTime};
use workload::gen::FlowSpec;

/// The result of executing one scenario: the engine's run report plus
/// every invariant violation the oracle registry found.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The engine's liveness/throughput report.
    pub report: RunReport,
    /// Oracle violations, in detection order (empty = scenario passed).
    pub violations: Vec<Violation>,
}

impl RunOutcome {
    /// `true` iff no oracle fired.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A fuzzing failure: the originally sampled scenario, its shrunk minimal
/// reproducer, and the violations the reproducer still exhibits.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The scenario as sampled from the seed.
    pub scenario: Scenario,
    /// The greedy-shrunk minimal scenario (still failing).
    pub shrunk: Scenario,
    /// Violations of the shrunk scenario.
    pub violations: Vec<Violation>,
}

/// Builds and executes one scenario, returning the report and all oracle
/// violations. Fully deterministic: same scenario, same outcome.
pub fn run_scenario(s: &Scenario) -> RunOutcome {
    run_scenario_engine(s).0
}

/// Like [`run_scenario`], but also returns the engine's full observation
/// trace. The determinism regression test runs the same seed twice and
/// asserts the traces are identical event for event — the strongest
/// in-process statement of the seed-replay contract.
pub fn run_scenario_traced(s: &Scenario) -> (RunOutcome, Vec<Observation<Obs>>) {
    let (out, engine) = run_scenario_engine(s);
    (out, engine.observations().to_vec())
}

/// Like [`run_scenario`], but also returns the engine as the run left it,
/// for a test that inspects a node's state (say, what an aggregator still
/// holds below quorum).
pub fn run_scenario_engine(s: &Scenario) -> (RunOutcome, Engine) {
    run_inner(s, true)
}

/// [`run_scenario`] with the cross-domain ordering handshake switched off,
/// reproducing the engine's historical per-domain-only scheduling. Kept so
/// regression tests can demonstrate that the boundary black hole the
/// handshake closes (a) actually existed and (b) is caught by the
/// end-to-end consistency oracle — guarding both against a vacuous oracle
/// and a silently disabled handshake.
pub fn run_scenario_no_handshake(s: &Scenario) -> RunOutcome {
    run_inner(s, false).0
}

fn run_inner(s: &Scenario, handshake: bool) -> (RunOutcome, Engine) {
    let topo = s.topology();
    let dm = s.domain_map(&topo);
    let mut cfg = EngineConfig::for_mode(s.mode);
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = s.seed;
    cfg.controllers_per_domain = s.controllers_per_domain;
    cfg.cross_domain_handshake = handshake;
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);

    // Every life of every controller carries the scenario's scheduler
    // and firewall: a controller restarted by a crash-recover fault
    // re-derives the same schedules its peers committed to.
    let sched = s.scheduler;
    let denies = s.denied_matches(&topo);
    engine.customize_controllers(move |ctrl| {
        ctrl.set_scheduler(sched.make());
        for &m in &denies {
            ctrl.app_mut().firewall.deny(m);
        }
    });

    install_faults(&mut engine, s, &topo);
    inject_byzantine(&mut engine, s, &topo);

    let flows = s.flow_specs(&topo);
    engine.inject_flows(&flows);
    let report = engine.run_reporting(at_ms(s.horizon_ms));

    let violations = oracle::check_all(s, &topo, &flows, engine.observations(), &report);
    (RunOutcome { report, violations }, engine)
}

/// Samples the scenario for `seed`, runs it, and on failure shrinks it to
/// a minimal reproducer. `None` means every oracle held.
pub fn check_seed(seed: u64) -> Option<Failure> {
    check_scenario(Scenario::generate(seed))
}

/// Runs `scenario`; on failure shrinks it and returns the reproducer.
pub fn check_scenario(scenario: Scenario) -> Option<Failure> {
    let out = run_scenario(&scenario);
    if out.passed() {
        return None;
    }
    let shrunk = shrink::shrink(&scenario);
    let violations = run_scenario(&shrunk).violations;
    Some(Failure {
        scenario,
        shrunk,
        violations,
    })
}

/// `SimTime::ZERO + ms` — scenario times are plain millisecond offsets.
pub(crate) fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Resolves the scenario's abstract faults against the engine's node
/// directory — each victim once — and installs them: drops, duplicates,
/// partitions and crashes as a [`simnet::fault::FaultPlan`], and the
/// restart half of every crash-recover fault `after_ms` after its crash
/// (the revived node replays its WAL — or, with `disk_lost`, state-syncs a
/// snapshot from a peer — before rejoining).
fn install_faults(engine: &mut Engine, s: &Scenario, topo: &Topology) {
    let mut plan = simnet::fault::FaultPlan::none();
    let domains = s.domain_ids(engine);
    let n = s.controllers_per_domain;
    let switches = topo.switches();
    for f in &s.faults {
        match *f {
            Fault::Drop { permille } => {
                plan = plan.with_drop_probability(permille as f64 / 1000.0);
            }
            Fault::Duplicate { permille } => {
                plan = plan.with_duplicate_probability(permille as f64 / 1000.0);
            }
            Fault::CrashController {
                domain,
                controller,
                at_ms: at,
            } => {
                if let Some((d, c)) = s.crash_victim(&domains, domain, controller) {
                    plan = plan.with_crash(at_ms(at), engine.controller_node(d, c));
                }
            }
            Fault::CrashRecoverController {
                domain,
                controller,
                at_ms: at,
                after_ms,
                disk_lost,
            } => {
                if let Some((d, c)) = s.crash_victim(&domains, domain, controller) {
                    let node = engine.controller_node(d, c);
                    plan = plan.with_crash(at_ms(at), node);
                    engine.schedule_restart(at_ms(at + after_ms), node, disk_lost);
                }
            }
            Fault::SeverControllers {
                domain,
                a,
                b,
                from_ms,
                until_ms,
            } => {
                if n < 2 || until_ms <= from_ms {
                    continue;
                }
                let d = domains[domain as usize % domains.len()];
                let ca = a % n;
                let mut cb = b % n;
                if cb == ca {
                    cb = (cb + 1) % n;
                }
                plan = plan.with_severed_window(
                    engine.controller_node(d, ControllerId(1 + ca)),
                    engine.controller_node(d, ControllerId(1 + cb)),
                    at_ms(from_ms),
                    at_ms(until_ms),
                );
            }
            Fault::SeverUplink {
                switch,
                controller,
                from_ms,
                until_ms,
            } => {
                if until_ms <= from_ms {
                    continue;
                }
                let sw = switches[switch as usize % switches.len()].id;
                let d = engine.shared().dir.domain_of_switch[&sw];
                let c = ControllerId(1 + controller % n);
                plan = plan.with_severed_window(
                    engine.switch_node(sw),
                    engine.controller_node(d, c),
                    at_ms(from_ms),
                    at_ms(until_ms),
                );
            }
            Fault::CrashRecoverSwitch {
                switch,
                at_ms: at,
                after_ms,
            } => {
                // Skipped when every switch is some flow's ingress ToR. The
                // disk always survives: a switch that loses it is a
                // replacement machine, which the scenario models as a
                // fresh switch instead.
                if let Some(v) = switch_restart_victim(s, topo, switch) {
                    let node = engine.switch_node(v);
                    plan = plan.with_crash(at_ms(at), node);
                    engine.schedule_restart(at_ms(at + after_ms), node, false);
                }
            }
            // Handled by inject_byzantine.
            Fault::RogueShares { .. } | Fault::RogueReady { .. } => {}
        }
    }
    engine.set_faults(plan);
}

/// Resolves a [`Fault::CrashRecoverSwitch`] victim: the abstract index
/// wraps over the switches that are *not* any flow's ingress ToR. Waiting
/// flows and their pending `PacketIn` events are deliberately RAM-only
/// (the switch WAL protects protocol state, not workload), so restarting
/// an ingress would break liveness by design — the fault models a restart
/// of a forwarding switch mid-update. `None` when every switch is an
/// ingress.
fn switch_restart_victim(
    s: &Scenario,
    topo: &Topology,
    idx: u32,
) -> Option<southbound::types::SwitchId> {
    let ingress: std::collections::BTreeSet<_> = s
        .flow_specs(topo)
        .iter()
        .map(|f| topo.host(f.src).expect("known host").attached)
        .collect();
    let candidates: Vec<_> = topo
        .switches()
        .iter()
        .map(|sw| sw.id)
        .filter(|id| !ingress.contains(id))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    Some(candidates[idx as usize % candidates.len()])
}

/// Injects the Byzantine faults.
///
/// * [`Fault::RogueShares`]: a compromised controller sends a share-signed
///   rogue update for a victim switch where its mode collects shares — to
///   the switch itself, or under controller aggregation to the domain's
///   aggregator (the switch refuses bare shares there at the door). The
///   collector buckets the share, sees a single signer below quorum, and
///   never certifies it — the security oracle flags any run where one
///   slips through.
/// * [`Fault::RogueReady`] (Segway mode): a rogue switch sends a forged,
///   zero-tagged ready message to a victim it was never scheduled to release. The
///   message is misdirected by construction (its `to` binding names the
///   rogue, not the victim), so a correct victim rejects it
///   (`Obs::ReadyRejected`) instead of opening a gate early.
fn inject_byzantine(engine: &mut Engine, s: &Scenario, topo: &Topology) {
    use blscrypto::bls::PartialSignature;
    use blscrypto::curves::g1_generator;
    use cicero_core::msg::{UpdateBody, UpdateSet};
    use southbound::envelope::{MsgId, ShareSigned, Tagged};
    use southbound::types::*;

    if !s.mode.is_signed() {
        return;
    }
    let switches = topo.switches();
    let n = s.controllers_per_domain;
    for (k, f) in s.faults.iter().enumerate() {
        match *f {
            Fault::RogueShares {
                controller,
                victim,
                at_ms: at,
            } => {
                let sw = switches[victim as usize % switches.len()].id;
                let d = engine.shared().dir.domain_of_switch[&sw];
                let c = ControllerId(1 + controller % n);
                let update = NetworkUpdate {
                    id: scenario::rogue_update_id(k as u64),
                    switch: sw,
                    kind: UpdateKind::Install(FlowRule {
                        // A matcher no generated flow can collide with.
                        matcher: FlowMatch {
                            src: HostId(u32::MAX),
                            dst: HostId(u32::MAX - 1),
                        },
                        action: FlowAction::Deny,
                    }),
                };
                let from = engine.controller_node(d, c);
                let body = UpdateBody { update, gates: Vec::new(), notify: Vec::new(), held: false };
                // Under the run's tree hash, or the victim refuses it unbucketed.
                let hash = cicero_core::auth::tree_hash(&engine.shared().cfg);
                let (set, mut members) = UpdateSet::of(hash, update.id.event, d, vec![body]);
                let share = ShareSigned {
                    payload: set,
                    phase: southbound::types::Phase(0),
                    msg_id: MsgId {
                        origin: c.0,
                        seq: 0xBAD0_0000 + k as u64,
                    },
                    partial: PartialSignature {
                        index: c.0,
                        sig: g1_generator().to_affine(),
                    },
                };
                let member = Box::new(members.pop().expect("a set of one"));
                let (to, msg) = match s.mode.aggregation() {
                    Some(Aggregation::Controller) => {
                        let agg = engine.with_controller(d, c, |ctrl| ctrl.view().aggregator());
                        (engine.controller_node(d, agg), Net::UpdateToAggregator(share, member))
                    }
                    _ => (engine.switch_node(sw), Net::UpdateMsg(share, member)),
                };
                engine.inject_raw(at_ms(at), from, to, msg);
            }
            Fault::RogueReady {
                switch,
                victim,
                at_ms: at,
            } if s.mode == Mode::Segway => {
                let victim_sw = switches[victim as usize % switches.len()].id;
                let mut rogue_idx = switch as usize % switches.len();
                if switches[rogue_idx].id == victim_sw {
                    rogue_idx = (rogue_idx + 1) % switches.len();
                }
                let rogue_sw = switches[rogue_idx].id;
                if rogue_sw == victim_sw {
                    continue; // single-switch fabric: no rogue peer exists
                }
                let body = cicero_core::msg::ReadyBody {
                    update: scenario::rogue_update_id(k as u64),
                    from: rogue_sw,
                    // Deliberately bound to the rogue itself, not the
                    // victim: the victim's target check must fire.
                    to: rogue_sw,
                };
                engine.inject_raw(
                    at_ms(at),
                    engine.switch_node(rogue_sw),
                    engine.switch_node(victim_sw),
                    Net::SegwayReady(Tagged {
                        payload: body,
                        phase: southbound::types::Phase(0),
                        msg_id: MsgId {
                            origin: rogue_sw.0,
                            seq: 0xBAD0_1000 + k as u64,
                        },
                        tag: [0; 32],
                    }),
                );
            }
            _ => {}
        }
    }
}

// Re-exported for the scenario module (domain resolution shares the
// engine's authoritative domain list).
impl Scenario {
    /// Resolves the victim of a controller crash fault — permanent or
    /// crash-recover — from its abstract indices, given the scenario's
    /// domains in build order. Never index 1: it may be the bootstrap
    /// consensus leader or the aggregator; crashing it is a liveness
    /// question the generator keeps out of the benign envelope. `None`
    /// when the domain has no other controller.
    pub(crate) fn crash_victim(
        &self,
        domains: &[southbound::types::DomainId],
        domain: u16,
        controller: u32,
    ) -> Option<(southbound::types::DomainId, ControllerId)> {
        let n = self.controllers_per_domain;
        (n >= 2).then(|| {
            let d = domains[domain as usize % domains.len()];
            (d, ControllerId(2 + controller % (n - 1)))
        })
    }

    /// The engine's domain ids, in build order.
    pub fn domain_ids(&self, engine: &Engine) -> Vec<southbound::types::DomainId> {
        engine.shared().policy.domains().domains()
    }

    /// The domain map this scenario asks the engine to build.
    pub fn domain_map(&self, topo: &Topology) -> DomainMap {
        if self.domains <= 1 || self.mode == Mode::Centralized {
            DomainMap::single(topo)
        } else {
            DomainMap::split_racks(topo, self.domains)
        }
    }

    /// Concrete flow specs with host indices resolved against `topo`.
    pub fn flow_specs(&self, topo: &Topology) -> Vec<FlowSpec> {
        use southbound::types::FlowId;
        let hosts = topo.hosts();
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let (src, dst) = resolve_pair(hosts.len(), f.src, f.dst);
                FlowSpec {
                    id: FlowId(i as u64 + 1),
                    src: hosts[src].id,
                    dst: hosts[dst].id,
                    bytes: f.bytes.max(64),
                    start: at_ms(f.start_ms),
                    locality: workload::spec::LocalityClass::IntraPod,
                }
            })
            .collect()
    }

    /// The firewall matches to install, resolved against `topo`.
    pub fn denied_matches(&self, topo: &Topology) -> Vec<southbound::types::FlowMatch> {
        let hosts = topo.hosts();
        self.denied
            .iter()
            .map(|&(a, b)| {
                let (src, dst) = resolve_pair(hosts.len(), a, b);
                southbound::types::FlowMatch {
                    src: hosts[src].id,
                    dst: hosts[dst].id,
                }
            })
            .collect()
    }
}

/// Maps two abstract host indices onto distinct concrete indices, so the
/// same scenario stays valid as the shrinker removes hosts.
fn resolve_pair(n_hosts: usize, a: u32, b: u32) -> (usize, usize) {
    let src = a as usize % n_hosts;
    let mut dst = b as usize % n_hosts;
    if dst == src {
        dst = (dst + 1) % n_hosts;
    }
    (src, dst)
}
