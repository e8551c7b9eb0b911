//! The engine: builds a complete simulated deployment (switches +
//! per-domain control planes) from a topology, a domain partition and an
//! [`EngineConfig`], injects workloads, and runs it to completion.

// A protocol hot path: a panic here states its invariant (`expect("…")`,
// checked by scripts/verify.sh).
#![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]

use crate::config::{CryptoMode, EngineConfig, Mode};
use crate::ctrl::ControllerActor;
use crate::deploy::{self, Deployment, Life, NodeRole, Outstanding, Progress};
use crate::msg::Net;
use crate::obs::{resolved_flows, retransmit_stats, Obs};
use crate::runtime::Shared;
use crate::switch::SwitchActor;
use controller::policy::DomainMap;
use netmodel::routing::Route;
use netmodel::telekom;
use netmodel::topology::Topology;
use simnet::latency::LatencyModel;
use simnet::node::NodeId;
use simnet::sim::{Observation, Simulation};
use simnet::time::{SimDuration, SimTime};
use southbound::types::{ControllerId, DomainId, FlowId, HostId, SwitchId};
use std::sync::Arc;
use workload::gen::FlowSpec;

/// Control-plane message latency model: pod-local 50 µs, intra-DC 250 µs,
/// inter-DC per the Deutsche Telekom backbone.
struct ControlLatency {
    /// `(dc, pod)` per node.
    loc: Vec<(u16, u16)>,
}

impl LatencyModel for ControlLatency {
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        if from == to {
            return SimDuration::ZERO;
        }
        let (Some(&a), Some(&b)) = (
            self.loc.get(from.0 as usize),
            self.loc.get(to.0 as usize),
        ) else {
            return SimDuration::from_micros(250);
        };
        if a.0 != b.0 {
            telekom::site_latency(a.0, b.0)
        } else if a.1 != b.1 {
            SimDuration::from_micros(250)
        } else {
            SimDuration::from_micros(50)
        }
    }
}

/// Liveness-watchdog sampling period of [`Engine::run_reporting`]: how
/// often progress is checked against the outstanding-work snapshot.
const WATCHDOG_SLICE: SimDuration = SimDuration::from_millis(250);
/// Consecutive progress-free watchdog slices before the run is declared
/// stalled. The quiet window (`slices * slice`) must exceed the longest
/// retransmission interval (the 2 s backoff ceiling plus 25% jitter),
/// otherwise a healthy backoff pause reads as a stall.
const WATCHDOG_STALL_SLICES: u32 = 12;
/// Events one watchdog slice may process; a slice that spends it has
/// stopped advancing the clock, and the run is reported stalled instead of
/// spinning forever. A healthy 250 ms slice processes a few thousand events;
/// the busiest seen over 80,000 fuzzed scenarios and the test suite is
/// ≈ 114,000 (deliveries queued at a busy node are re-deferred each time
/// it finishes one, so deep queues cost quadratically many events).
const SLICE_EVENT_BUDGET: u64 = 1_000_000;

/// The liveness watchdog's verdict on a [`Engine::run_reporting`] run.
///
/// A run *completes* when every injected flow resolved (completed or
/// denied) and no reliable-delivery work is outstanding anywhere — no
/// unacked or dependency-blocked update at any controller, no pending
/// event at any switch. It *stalls* when the watchdog sees
/// `WATCHDOG_STALL_SLICES` consecutive progress-free slices (or a drained
/// event queue) while work is still outstanding, or when one slice spends
/// `SLICE_EVENT_BUDGET` events without reaching its end (simulated time
/// stopped: a zero-delay livelock).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// All injected flows resolved and the delivery pipeline drained
    /// ([`Progress::complete`], seen by the watchdog).
    pub completed: bool,
    /// The watchdog declared the run quiescent-but-undrained, or
    /// livelocked at one instant.
    pub stalled: bool,
    /// Simulated time when the run ended.
    pub end: SimTime,
    /// Flows, outstanding work, drops and recoveries at `end`.
    pub progress: Progress,
}

/// A `RunReport` reads as its [`Progress`]: `report.resolved_flows`,
/// `report.outstanding`, `report.stats`.
impl std::ops::Deref for RunReport {
    type Target = Progress;

    fn deref(&self) -> &Progress {
        &self.progress
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.completed {
            "completed"
        } else if self.stalled {
            "STALLED"
        } else {
            "horizon reached"
        };
        write!(f, "run {} at {}: {}", verdict, self.end, self.progress)
    }
}

/// A scheduled node restart (crash-recovery experiments).
#[derive(Clone, Copy, Debug)]
struct PlannedRestart {
    at: SimTime,
    node: NodeId,
    disk_lost: bool,
}

/// A fully built deployment ready to run.
pub struct Engine {
    sim: Simulation<Net, Obs>,
    dep: Deployment,
    injected_flows: usize,
    /// Pending node restarts, kept sorted by time.
    restarts: Vec<PlannedRestart>,
}

impl Engine {
    /// Builds a deployment.
    ///
    /// `standby_controllers` extra controller actors per domain are created
    /// inactive, ready to be admitted by membership commands.
    ///
    /// # Panics
    ///
    /// Panics on structurally impossible configurations (e.g. Cicero with
    /// fewer than 4 controllers per domain).
    pub fn build(
        cfg: EngineConfig,
        topo: Topology,
        domain_map: DomainMap,
        standby_controllers: u32,
    ) -> Engine {
        let mut dep = deploy::plan(cfg, topo, domain_map, standby_controllers);
        // In-memory durable storage: controllers and switches WAL every
        // transition and can crash-recover, while the simulation stays
        // deterministic.
        dep.provision_storage(|_, _| substrate::storage::mem_disk());
        dep.provision_switch_storage(|_| substrate::storage::mem_disk());
        let loc = std::mem::take(&mut dep.locations);
        let mut sim: Simulation<Net, Obs> =
            Simulation::new(dep.shared.cfg.seed, ControlLatency { loc });
        for seed in &dep.nodes {
            let node = sim.add_node(dep.boot(seed.node, Life::First));
            assert_eq!(node, seed.node, "node plan mismatch");
        }
        sim.start();
        Engine {
            sim,
            dep,
            injected_flows: 0,
            restarts: Vec::new(),
        }
    }

    /// The shared runtime context.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.dep.shared
    }

    /// The simulation node of a switch.
    pub fn switch_node(&self, s: SwitchId) -> NodeId {
        self.dep.shared.dir.switch(s)
    }

    /// The simulation node of a controller.
    pub fn controller_node(&self, d: DomainId, c: ControllerId) -> NodeId {
        self.dep.shared.dir.controller(d, c)
    }

    /// Injects the flows of a workload: each arrives at its source's ToR
    /// switch at its start time.
    pub fn inject_flows(&mut self, flows: &[FlowSpec]) {
        for f in flows {
            self.inject_flow(f.id, f.src, f.dst, f.bytes, f.start);
        }
    }

    /// Injects one flow of `bytes` from `src` to `dst`, arriving at its
    /// source's ToR switch at `start`, and returns its route (`None`, and
    /// nothing injected, for an unroutable flow).
    pub fn inject_flow(
        &mut self,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        bytes: u64,
        start: SimTime,
    ) -> Option<Route> {
        let (r, node, msg) = self.dep.shared.flow_arrival(flow, src, dst, bytes, start)?;
        self.sim.inject(start, node, msg);
        self.injected_flows += 1;
        Some(r)
    }

    /// Applies `f` to every controller, now and in every later life (see
    /// [`Deployment::customize_controllers`]): a restarted controller
    /// carries the same scheduler and firewall as the one that crashed.
    pub fn customize_controllers(
        &mut self,
        f: impl Fn(&mut ControllerActor) + Send + Sync + 'static,
    ) {
        for seed in &self.dep.nodes {
            self.sim.with_actor::<NodeRole, _>(seed.node, |role| {
                if let NodeRole::Controller { actor, .. } = role {
                    f(actor);
                }
            });
        }
        self.dep.customize_controllers(f);
    }

    /// Installs a fault plan (message drops/duplicates, scheduled crashes).
    pub fn set_faults(&mut self, faults: simnet::fault::FaultPlan) {
        self.sim.set_faults(faults);
    }

    /// Schedules `node` — a controller or a switch — to restart at `at`
    /// from its durable disk (crash it first via the fault plan): WAL
    /// replay restores a controller's deliveries and a switch's flow table
    /// and Segway release journal. With `disk_lost` the disk is wiped
    /// before reboot (see [`Life::Restart`]).
    pub fn schedule_restart(&mut self, at: SimTime, node: NodeId, disk_lost: bool) {
        self.restarts.push(PlannedRestart {
            at,
            node,
            disk_lost,
        });
        self.restarts.sort_by_key(|r| r.at);
    }

    /// Reboots and revives `node` right now (the imperative form of
    /// [`Engine::schedule_restart`]).
    pub fn restart(&mut self, node: NodeId, disk_lost: bool) {
        let role = self.dep.boot(node, Life::Restart { disk_lost });
        self.sim.revive_node(node, role);
    }

    /// Performs every scheduled restart due by `cursor`. All events up to
    /// `cursor` have been run, so the clock can coast to each restart's
    /// exact instant even when the queue is empty (a drained network must
    /// not leave a scheduled restart forever in the future).
    fn perform_due_restarts(&mut self, cursor: SimTime) {
        while let Some(&r) = self.restarts.first() {
            if r.at > cursor {
                break;
            }
            self.sim.advance_to(r.at);
            self.restarts.remove(0);
            self.restart(r.node, r.disk_lost);
        }
    }

    /// Fails the link `a`–`b` at `at`: switch `a` detects the port-down and
    /// raises a tagged `LinkFailure` event (paper Fig. 2 scenario).
    pub fn fail_link(&mut self, at: SimTime, a: SwitchId, b: SwitchId) {
        self.sim.inject(at, self.switch_node(a), Net::LinkDown { a, b });
    }

    /// Injects a membership command at a domain's bootstrap controller.
    pub fn inject_membership(&mut self, at: SimTime, domain: DomainId, op: crate::msg::OrderedOp) {
        let node = self.dep.bootstrap_nodes[&domain];
        self.sim.inject(at, node, Net::MembershipCmd(op));
    }

    /// Injects an arbitrary message (tests: rogue controllers, raw events).
    pub fn inject_raw(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: Net) {
        self.sim.inject_from(at, from, to, msg);
    }

    /// Runs until the event queue drains or `horizon`, whichever is first
    /// (a controller ticks only while it has work, so an idle deployment
    /// without heartbeats drains).
    pub fn run(&mut self, horizon: SimTime) {
        let _ = self.drive(horizon, false);
    }

    /// Runs with the liveness watchdog: advances in `WATCHDOG_SLICE` steps,
    /// declaring the run *complete* when all flows resolved and the
    /// delivery pipeline drained, and *stalled* when
    /// `WATCHDOG_STALL_SLICES` consecutive slices elapse without a single
    /// new observation while work is still outstanding, or one slice
    /// exhausts its `SLICE_EVENT_BUDGET`. Either way it returns a
    /// [`RunReport`] instead of silently handing back a half-done
    /// simulation.
    pub fn run_reporting(&mut self, horizon: SimTime) -> RunReport {
        self.drive(horizon, true)
    }

    /// The single run loop behind [`Engine::run`] and
    /// [`Engine::run_reporting`]. Without the watchdog it runs to `horizon`
    /// or until the queue drains; with it, slices the run and checks
    /// completion/stall between slices. A drained queue with work still
    /// outstanding (retry budgets spent, say) is a stall, reported at once.
    fn drive(&mut self, horizon: SimTime, watchdog: bool) -> RunReport {
        let mut last_obs = self.sim.observations().len();
        let mut quiet: u32 = 0;
        let mut completed = false;
        let mut stalled = false;
        let mut cursor = self.sim.now();
        loop {
            if watchdog && self.restarts.is_empty() && self.poll().complete() {
                completed = true;
                break;
            }
            if cursor >= horizon {
                break;
            }
            // A pending scheduled restart keeps the run alive even when the
            // event queue drains: the revived controller creates new events.
            let next_restart = self.restarts.first().map(|r| r.at);
            let restart_pending = next_restart.map(|t| t <= horizon).unwrap_or(false);
            match self.sim.next_event_at() {
                // Drained queue: nothing will ever make progress again.
                None if !restart_pending => {
                    stalled = watchdog;
                    break;
                }
                Some(at) if at > horizon && !restart_pending => break,
                _ => {}
            }
            cursor = if watchdog {
                std::cmp::min(cursor + WATCHDOG_SLICE, horizon)
            } else {
                horizon
            };
            if let Some(t) = next_restart {
                cursor = std::cmp::min(cursor, std::cmp::max(t, self.sim.now()));
            }
            self.sim
                .set_max_events(if watchdog { SLICE_EVENT_BUDGET } else { u64::MAX });
            self.sim.run_until(cursor);
            if self.sim.next_event_at().is_some_and(|at| at <= cursor) {
                // The slice spent its event budget with events still due:
                // simulated time has stopped advancing.
                stalled = true;
                break;
            }
            self.perform_due_restarts(cursor);
            if watchdog {
                let n = self.sim.observations().len();
                if !self.restarts.is_empty() {
                    // Quietly waiting out the clock until a scheduled
                    // restart is not a stall.
                    last_obs = n;
                    quiet = 0;
                } else if n == last_obs {
                    quiet += 1;
                    if quiet >= WATCHDOG_STALL_SLICES {
                        stalled = true;
                        break;
                    }
                } else {
                    last_obs = n;
                    quiet = 0;
                }
            }
        }
        RunReport {
            completed,
            stalled,
            end: self.sim.now(),
            progress: Progress {
                dropped_per_node: self.sim.dropped_counts(),
                stats: retransmit_stats(self.sim.observations()),
                ..self.poll()
            },
        }
    }

    /// The watchdog's poll: flows resolved and work outstanding right now.
    fn poll(&mut self) -> Progress {
        // Crashed nodes are excluded: a dead replica's local bookkeeping can
        // never drain, but it is not outstanding protocol work either — its
        // live peers carry the flow to completion.
        let mut out = Outstanding::default();
        for seed in &self.dep.nodes {
            if !self.sim.is_crashed(seed.node) {
                out += self.sim.with_actor::<NodeRole, _>(seed.node, |r| r.outstanding());
            }
        }
        Progress {
            injected_flows: self.injected_flows,
            resolved_flows: resolved_flows(self.sim.observations()),
            outstanding: out,
            ..Progress::default()
        }
    }

    /// Observations so far.
    pub fn observations(&self) -> &[Observation<Obs>] {
        self.sim.observations()
    }

    /// Total control-plane messages delivered so far (experiment message
    /// cost; includes retransmissions, excludes drops and timers).
    pub fn delivered_messages(&self) -> u64 {
        self.sim.delivered_count()
    }

    /// Mean CPU utilization across all switches per bucket.
    pub fn mean_switch_cpu(&self) -> Vec<f64> {
        let series: Vec<Vec<f64>> = self
            .dep
            .shared
            .dir
            .switch_node
            .values()
            .map(|&n| self.sim.cpu_utilization(n))
            .collect();
        let len = series.iter().map(Vec::len).max().unwrap_or(0);
        (0..len)
            .map(|i| {
                let sum: f64 = series.iter().map(|s| s.get(i).copied().unwrap_or(0.0)).sum();
                sum / series.len().max(1) as f64
            })
            .collect()
    }

    /// Runs `f` against a switch actor (tests).
    pub fn with_switch<R>(&mut self, s: SwitchId, f: impl FnOnce(&mut SwitchActor) -> R) -> R {
        let node = self.switch_node(s);
        self.sim.with_actor::<NodeRole, R>(node, |role| match role {
            NodeRole::Switch { actor, .. } => f(actor),
            NodeRole::Controller { .. } => panic!("{node} is not a switch"),
        })
    }

    /// Runs `f` against a controller actor (tests / app configuration).
    pub fn with_controller<R>(
        &mut self,
        d: DomainId,
        c: ControllerId,
        f: impl FnOnce(&mut ControllerActor) -> R,
    ) -> R {
        let node = self.controller_node(d, c);
        self.sim.with_actor::<NodeRole, R>(node, |role| match role {
            NodeRole::Controller { actor, .. } => f(actor),
            NodeRole::Switch { .. } => panic!("{node} is not a controller"),
        })
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }
}

/// Convenience: a default single-pod engine for tests and examples.
pub fn default_pod_engine(mode: Mode, crypto: CryptoMode, racks: u16) -> Engine {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    let topo = Topology::single_pod(racks, 4, 4);
    let dm = DomainMap::single(&topo);
    Engine::build(cfg, topo, dm, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::node::{Actor, Host, TimerToken};

    /// With no flows and heartbeats off nothing waits on anything, so in
    /// every mode the event queue is empty one tick period after start: no
    /// controller keeps a timer running for work it does not have.
    #[test]
    fn an_idle_control_plane_schedules_nothing() {
        for mode in Mode::ALL {
            let mut engine = default_pod_engine(mode, CryptoMode::Modeled, 2);
            engine.run(SimTime::ZERO + SimDuration::from_millis(5));
            assert_eq!(engine.sim.next_event_at(), None, "{}", mode.label());
        }
    }

    /// Re-arms a zero-delay timer forever once poked: events keep coming
    /// but simulated time never advances.
    struct Spinner;

    impl Actor<Net, Obs> for Spinner {
        fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, _from: NodeId, _msg: Net) {
            ctx.set_timer(SimDuration::ZERO, TimerToken(0));
        }

        fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
            ctx.set_timer(SimDuration::ZERO, token);
        }
    }

    #[test]
    fn zero_delay_livelock_is_reported_as_a_stall() {
        let mut engine = default_pod_engine(Mode::Centralized, CryptoMode::Modeled, 2);
        let spinner = engine.sim.add_node(Spinner);
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        // The spin freezes time at `start`, so the flow arriving then is
        // never resolved and keeps the run from completing.
        engine.inject_flow(FlowId(1), HostId(0), HostId(1), 1, start).expect("routable");
        let poke = Net::LinkDown { a: SwitchId(0), b: SwitchId(1) };
        engine.inject_raw(start, simnet::sim::ENVIRONMENT, spinner, poke);
        let report = engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(60));
        assert!(report.stalled && !report.completed, "{report}");
        assert_eq!(report.end, start, "time stopped where the spin began");
    }
}
