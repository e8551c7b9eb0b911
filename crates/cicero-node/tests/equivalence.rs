//! Executor equivalence: the same scenario (config, topology, workload,
//! seed) run under the discrete-event simulator and under the threaded
//! executor must apply the *same set* of updates at the same switches,
//! pass the end-to-end consistency audit under both, and end with the same
//! [`Progress`] in both executors' reports.
//!
//! Order and timing legitimately differ — the simulator is deterministic
//! virtual time, the threads run on a real scheduler — but the protocol's
//! outcome (which rules exist where, and that no flow ever saw a black
//! hole, loop, or policy violation on the way) must not depend on the
//! executor.

use cicero_core::audit::audit_flow;
use cicero_core::deploy::Progress;
use cicero_core::obs::{Obs, RetransmitStats};
use cicero_core::prelude::{Deployment, Engine};
use cicero_node::exec::ThreadedDeployment;
use cicero_node::NodeSpec;
use simnet::fault::FaultPlan;
use simnet::node::NodeId;
use simnet::sim::Observation;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{ControllerId, DomainId, FlowMatch, SwitchId, UpdateId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use substrate::storage::Disk;

fn spec() -> NodeSpec {
    NodeSpec::from_json(
        r#"{
            "mode": "cicero",
            "crypto": "modeled",
            "pods": 2,
            "racks_per_pod": 2,
            "edges_per_pod": 2,
            "hosts_per_rack": 2,
            "spines": 2,
            "controllers_per_domain": 4,
            "seed": 11,
            "flows": 6,
            "flow_bytes": 20000,
            "budget_ms": 20000
        }"#,
    )
    .expect("valid spec")
}

/// The executor-independent outcome: which updates were applied where.
fn applied_set(obs: &[Observation<Obs>]) -> BTreeSet<(SwitchId, UpdateId)> {
    obs.iter()
        .filter_map(|o| match o.value {
            Obs::UpdateApplied { switch, update, .. } => Some((switch, update)),
            _ => None,
        })
        .collect()
}

fn audit_hazards(obs: &[Observation<Obs>], spec: &NodeSpec) -> usize {
    let topo = spec.topology();
    let mut hazards = 0;
    for f in spec.workload(&topo) {
        let ingress = topo.host(f.src).expect("workload host exists").attached;
        let m = FlowMatch {
            src: f.src,
            dst: f.dst,
        };
        hazards += audit_flow(obs, ingress, m, false).len();
    }
    hazards
}

/// Both executors report one `Progress` body: the same flows in and
/// through, nothing blocking, nothing abandoned — and, where nothing was
/// lost or killed, not one recovery on any stream in either.
fn assert_same_progress(sim: &Progress, thr: &Progress, loss_free: bool) {
    assert_eq!(
        (sim.injected_flows, sim.resolved_flows),
        (thr.injected_flows, thr.resolved_flows),
        "flows\n sim: {sim}\n thr: {thr}"
    );
    for (executor, p) in [("sim", sim), ("threads", thr)] {
        assert_eq!(p.outstanding.blocking(), 0, "{executor}: {p}");
        assert_eq!(p.outstanding.failed, 0, "{executor}: {p}");
        if loss_free {
            assert_eq!(p.stats, RetransmitStats::default(), "{executor}: {p}");
        }
    }
}

/// The spec's simulated deployment with its workload injected.
fn simulated(spec: &NodeSpec) -> Engine {
    let topo = spec.topology();
    let mut engine = Engine::build(
        spec.engine_config(),
        spec.topology(),
        spec.domain_map(&topo),
        0,
    );
    engine.inject_flows(&spec.workload(&topo));
    engine
}

/// The spec's deployment plan, storage not yet provisioned.
fn planned(spec: &NodeSpec) -> Deployment {
    let topo = spec.topology();
    cicero_core::deploy::plan(
        spec.engine_config(),
        spec.topology(),
        spec.domain_map(&topo),
        0,
    )
}

/// The spec's threaded deployment, every node on an in-memory disk, with
/// its workload injected.
fn threaded(spec: &NodeSpec) -> ThreadedDeployment {
    let mut dep = planned(spec);
    dep.provision_storage(|_, _| substrate::storage::mem_disk());
    dep.provision_switch_storage(|_| substrate::storage::mem_disk());
    let mut threaded = ThreadedDeployment::launch(dep);
    threaded.inject_flows(&spec.workload(&spec.topology()));
    threaded
}

#[test]
fn sim_and_threads_apply_the_same_updates() {
    let spec = spec();

    // ---- simulated run -----------------------------------------------
    let mut engine = simulated(&spec);
    let sim_report = engine.run_reporting(SimTime::from_nanos(60_000_000_000));
    assert!(
        sim_report.completed,
        "simulated run must complete: {sim_report}"
    );
    let sim_applied = applied_set(engine.observations());
    assert!(
        !sim_applied.is_empty(),
        "flows across pods must install rules"
    );
    assert_eq!(
        audit_hazards(engine.observations(), &spec),
        0,
        "simulated run must audit clean"
    );

    // ---- threaded run ------------------------------------------------
    let mut threaded = threaded(&spec);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    let obs = threaded.shutdown();
    assert!(report.completed, "threaded run must converge: {report}");
    let thr_applied = applied_set(&obs);
    assert_eq!(
        audit_hazards(&obs, &spec),
        0,
        "threaded run must audit clean"
    );

    // ---- equivalence --------------------------------------------------
    assert_eq!(
        sim_applied, thr_applied,
        "the applied-update set must not depend on the executor"
    );
    assert_same_releases(engine.observations(), &obs);
    assert_same_progress(&sim_report, &report, true);
}

/// The controller-ordered outcome: which controllers released each held
/// update to its switch.
fn controller_releases(obs: &[Observation<Obs>]) -> BTreeMap<(DomainId, UpdateId), BTreeSet<u32>> {
    let mut out: BTreeMap<_, BTreeSet<u32>> = BTreeMap::new();
    for o in obs {
        if let Obs::ReleaseSent { domain, controller, update, .. } = o.value {
            out.entry((domain, update)).or_default().insert(controller);
        }
    }
    out
}

/// Both executors released the same held updates, each by at least a
/// quorum (2 of the spec's 4) of its domain's controllers. Who released is
/// timing: a controller that accepts the update's own ack before the last
/// ack (or barrier) it waits on retires the update unreleased — its switch
/// needed f + 1 releases only.
fn assert_same_releases(sim: &[Observation<Obs>], thr: &[Observation<Obs>]) {
    let (sim, thr) = (controller_releases(sim), controller_releases(thr));
    assert_eq!(
        sim.keys().collect::<Vec<_>>(),
        thr.keys().collect::<Vec<_>>(),
        "the released held updates must not depend on the executor"
    );
    for (executor, releases) in [("sim", &sim), ("threads", &thr)] {
        for (update, by) in releases {
            assert!(by.len() >= 2, "{executor}: {update:?} released by {by:?} only");
        }
    }
}

/// Executor equivalence under controller aggregation, the placement
/// `serial_agg` runs: the aggregator relays each held body at once and the
/// releases go straight to the switches. Same rules installed, the same
/// held updates released, clean audits, no recovery in either.
#[test]
fn sim_and_threads_agree_under_controller_aggregation() {
    let mut spec = spec();
    spec.mode = cicero_core::prelude::Mode::CICERO_AGG;

    // ---- simulated run -----------------------------------------------
    let mut engine = simulated(&spec);
    let sim_report = engine.run_reporting(SimTime::from_nanos(60_000_000_000));
    assert!(sim_report.completed, "simulated run must complete: {sim_report}");
    let sim_applied = applied_set(engine.observations());
    assert!(
        !controller_releases(engine.observations()).is_empty(),
        "multi-hop flows hold and release updates"
    );
    assert_eq!(audit_hazards(engine.observations(), &spec), 0);

    // ---- threaded run ------------------------------------------------
    let mut threaded = threaded(&spec);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    let obs = threaded.shutdown();
    assert!(report.completed, "threaded run must converge: {report}");
    assert_eq!(audit_hazards(&obs, &spec), 0);

    // ---- equivalence --------------------------------------------------
    assert_eq!(
        sim_applied,
        applied_set(&obs),
        "the applied-update set must not depend on the executor"
    );
    assert_same_releases(engine.observations(), &obs);
    assert_same_progress(&sim_report, &report, true);
}

/// The decentralized-execution outcome: which neighbor releases happened.
fn release_set(obs: &[Observation<Obs>]) -> BTreeSet<(SwitchId, SwitchId, UpdateId)> {
    obs.iter()
        .filter_map(|o| match o.value {
            Obs::ReadySent { from, to, update } => Some((from, to, update)),
            _ => None,
        })
        .collect()
}

/// Satellite: executor equivalence extends to Segway mode. The same
/// scenario run decentralized under both executors must install the same
/// rules, release the same dependency edges (switch-to-switch readies are
/// real messages under both), and audit clean end to end.
#[test]
fn sim_and_threads_agree_in_segway_mode() {
    let mut spec = spec();
    spec.mode = cicero_core::prelude::Mode::Segway;

    // ---- simulated run -----------------------------------------------
    let mut engine = simulated(&spec);
    let sim_report = engine.run_reporting(SimTime::from_nanos(60_000_000_000));
    assert!(
        sim_report.completed,
        "simulated Segway run must complete: {sim_report}"
    );
    let sim_applied = applied_set(engine.observations());
    let sim_released = release_set(engine.observations());
    assert!(
        !sim_released.is_empty(),
        "a multi-hop Segway run must release dependency edges"
    );
    assert_eq!(audit_hazards(engine.observations(), &spec), 0);

    // ---- threaded run ------------------------------------------------
    let mut threaded = threaded(&spec);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    let obs = threaded.shutdown();
    assert!(report.completed, "threaded Segway run must converge: {report}");
    assert_eq!(audit_hazards(&obs, &spec), 0);

    // ---- equivalence --------------------------------------------------
    assert_eq!(
        sim_applied,
        applied_set(&obs),
        "the applied-update set must not depend on the executor"
    );
    assert_eq!(
        sim_released,
        release_set(&obs),
        "the released dependency edges must not depend on the executor"
    );
    assert_same_progress(&sim_report, &report, true);
}

fn recoveries(obs: &[Observation<Obs>]) -> usize {
    obs.iter()
        .filter(|o| matches!(o.value, Obs::ControllerRecovered { .. }))
        .count()
}

/// Crashes `victim` 6 ms into the spec's run and restarts it from its disk
/// at 250 ms, under the simulator and under threads; both runs must finish
/// and audit clean. The crash instants are only approximately aligned
/// (wall clock vs virtual time) — which is the point: the *outcome* may not
/// depend on where in the run the crash lands.
fn crash_and_restart_on_both(
    spec: &NodeSpec,
    victim: impl Fn(&cicero_core::runtime::Shared) -> NodeId,
) -> [Vec<Observation<Obs>>; 2] {
    let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);

    let mut engine = simulated(spec);
    let node = victim(engine.shared());
    engine.set_faults(FaultPlan::none().with_crash(ms(6), node));
    engine.schedule_restart(ms(250), node, false);
    let sim_report = engine.run_reporting(SimTime::from_nanos(60_000_000_000));
    assert!(
        sim_report.completed,
        "simulated crash-recover run must complete: {sim_report}"
    );
    assert_eq!(audit_hazards(engine.observations(), spec), 0);

    let mut threaded = threaded(spec);
    let node = victim(threaded.shared());
    std::thread::sleep(std::time::Duration::from_millis(6));
    threaded.kill(node);
    std::thread::sleep(std::time::Duration::from_millis(244));
    threaded.restart(node, false);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    let obs = threaded.shutdown();
    assert!(
        report.completed,
        "threaded crash-recover run must converge: {report}"
    );
    assert_eq!(audit_hazards(&obs, spec), 0);
    assert_same_progress(&sim_report, &report, false);

    [engine.observations().to_vec(), obs]
}

/// Satellite: executor equivalence extends to crash recovery. The same
/// scenario with the same controller crashed and restarted mid-run must
/// converge to the same applied-update set with clean audits under both
/// executors, and the restarted controller must complete state sync under
/// both.
#[test]
fn sim_and_threads_recover_equivalently_after_crash() {
    let [sim, thr] = crash_and_restart_on_both(&spec(), |shared| {
        shared.dir.controller(DomainId(0), ControllerId(2))
    });
    assert_eq!(recoveries(&sim), 1, "sim recovery");
    assert_eq!(recoveries(&thr), 1, "threaded recovery");
    assert_eq!(
        applied_set(&sim),
        applied_set(&thr),
        "crash recovery must not change the executor-independent outcome"
    );
}

/// Executor equivalence extends to switch restarts: in Segway mode the
/// same forwarding (non-ingress) switch crashed and restarted from its WAL
/// mid-update must leave the same rules installed and the same dependency
/// edges released — each exactly once, because the release journal
/// survives the restart — under both executors.
#[test]
fn sim_and_threads_recover_a_switch_equivalently() {
    let mut spec = spec();
    spec.mode = cicero_core::prelude::Mode::Segway;
    let topo = spec.topology();
    let flows = spec.workload(&topo);
    let ingress: BTreeSet<SwitchId> = flows
        .iter()
        .map(|f| topo.host(f.src).expect("workload host exists").attached)
        .collect();
    let victim = netmodel::routing::route(&topo, flows[0].src, flows[0].dst)
        .expect("cross-pod flow is routable")
        .path
        .into_iter()
        .find(|s| !ingress.contains(s))
        .expect("a cross-pod route has a forwarding switch");

    let [sim, thr] = crash_and_restart_on_both(&spec, |shared| shared.dir.switch(victim));
    assert_eq!(applied_set(&sim), applied_set(&thr));
    let released = release_set(&sim);
    assert!(released.iter().any(|&(from, _, _)| from == victim), "the victim releases neighbors");
    assert_eq!(released, release_set(&thr));
    for obs in [&sim, &thr] {
        let sent = obs.iter().filter(|o| matches!(o.value, Obs::ReadySent { .. })).count();
        assert_eq!(sent, released.len(), "every edge is released exactly once");
    }
}

/// A disk that reports being wiped.
struct WipeWitness {
    disk: substrate::storage::MemDisk,
    wipes: Arc<AtomicUsize>,
}

impl Disk for WipeWitness {
    fn read(&self, name: &str) -> Option<Vec<u8>> {
        self.disk.read(name)
    }
    fn write_atomic(&mut self, name: &str, data: &[u8]) {
        self.disk.write_atomic(name, data);
    }
    fn append(&mut self, name: &str, data: &[u8]) {
        self.disk.append(name, data);
    }
    fn remove(&mut self, name: &str) {
        self.disk.remove(name);
    }
    fn wipe(&mut self) {
        self.wipes.fetch_add(1, Ordering::SeqCst);
        self.disk.wipe();
    }
}

/// A `disk_lost` restart addressed to a controller that was never killed
/// must leave it alone — its disk is not wiped beneath its open WAL and
/// its run goes on — while the same restart right behind a kill wipes the
/// disk exactly once, on the dead node, and the run still converges.
#[test]
fn a_restart_only_touches_the_disk_of_a_dead_node() {
    let spec = spec();
    let victim = (DomainId(0), ControllerId(2));
    let wipes = Arc::new(AtomicUsize::new(0));
    let mut dep = planned(&spec);
    dep.provision_storage(|d, c| {
        if (d, c) != victim {
            return substrate::storage::mem_disk();
        }
        substrate::storage::disk_handle(Box::new(WipeWitness {
            disk: Default::default(),
            wipes: Arc::clone(&wipes),
        }))
    });
    let node = dep.shared.dir.controller(victim.0, victim.1);
    let mut threaded = ThreadedDeployment::launch(dep);
    let flows = spec.workload(&spec.topology());
    let (first, second) = flows.split_at(flows.len() / 2);

    threaded.inject_flows(first);
    threaded.restart(node, true);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    assert!(report.completed, "a stray restart must not disturb the run: {report}");
    assert_eq!(wipes.load(Ordering::SeqCst), 0, "disk wiped under a live controller");

    threaded.kill(node);
    threaded.restart(node, true);
    threaded.inject_flows(second);
    let report = threaded.run_to_convergence(SimDuration::from_secs(20));
    let obs = threaded.shutdown();
    assert!(report.completed, "kill-then-restart must converge: {report}");
    assert_eq!(wipes.load(Ordering::SeqCst), 1, "the dead node wipes its lost disk once");
    assert_eq!(recoveries(&obs), 1, "only the killed life recovers");
    assert_eq!(audit_hazards(&obs, &spec), 0);
}
