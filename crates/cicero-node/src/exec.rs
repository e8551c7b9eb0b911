//! The threaded executor: one OS thread per protocol node, in-process
//! channels for links, wall-clock timers.
//!
//! Each node planned by [`cicero_core::deploy::plan`] runs its own thread
//! with a bounded mailbox, and boots every life of its actor there. A
//! [`ThreadHost`] implements the same [`Host`] trait the simulator's
//! `Context` does, so the *identical compiled protocol code* runs here —
//! only the scheduler underneath differs:
//!
//! * **time** comes from the [`WallClock`] epoch (the one wall-clock
//!   boundary, `clock.rs`);
//! * **sends** go through `try_send` on the receiver's bounded mailbox — a
//!   full mailbox drops the message like a lossy link, and the protocol's
//!   reliable-delivery layer recovers;
//! * **timers** and artificially delayed sends live in per-thread heaps
//!   serviced with `recv_timeout`;
//! * **`charge_cpu` is a no-op** — real cycles are spent for real;
//! * **observations** append to a shared, mutex-serialized log stamped
//!   with wall-clock-since-epoch times.

use crate::clock::WallClock;
use cicero_core::deploy::{Deployment, Life, NodeRole, Outstanding};
use cicero_core::msg::Net;
use cicero_core::obs::{resolved_flows, Obs};
use cicero_core::runtime::Shared;
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::sim::{Observation, ENVIRONMENT};
use simnet::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::thread::JoinHandle;
use substrate::rng::{SeedableRng, StdRng};
use substrate::sync::{bounded, Mutex, Receiver, RecvTimeoutError};
use workload::gen::FlowSpec;

/// Mailbox depth per node. Deep enough that a healthy deployment never
/// drops; a pathological burst degrades to loss (which the protocol's
/// retransmission layer absorbs) instead of deadlocking sender threads.
const MAILBOX_DEPTH: usize = 8192;

/// Poll period of the convergence watchdog.
const POLL_PERIOD: SimDuration = SimDuration::from_millis(25);

/// What travels into a node's mailbox.
enum Envelope {
    /// A routed protocol message.
    Msg {
        /// Sending node ([`ENVIRONMENT`] for injected workload).
        from: NodeId,
        /// The message.
        msg: Net,
    },
    /// Outstanding-work probe; the node replies with
    /// [`NodeRole::outstanding`].
    Probe(SyncSender<Outstanding>),
    /// Crash the node: it drops all state and drains its mailbox until a
    /// [`Envelope::Restart`] or [`Envelope::Shutdown`] arrives.
    Kill,
    /// Revive a killed node. Only the flag travels: the node wipes its disk
    /// (if lost) and boots its next life on its own thread, and only while
    /// it is dead — the disk is never touched under a running actor.
    Restart {
        /// Wipe the disk before booting (replacement machine).
        disk_lost: bool,
    },
    /// Stop the node loop.
    Shutdown,
}

/// A deadline-ordered heap entry (`BinaryHeap` is a max-heap, so entries
/// are wrapped in [`Reverse`]; `seq` breaks ties FIFO).
struct Due<T> {
    at: SimTime,
    seq: u64,
    what: T,
}

impl<T> PartialEq for Due<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Due<T> {}
impl<T> PartialOrd for Due<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Due<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The [`Host`] handed to actors on a threaded node: effects are collected
/// during the handler (exactly like the simulator's `Context`) and applied
/// by the node loop when it returns.
struct ThreadHost<'a> {
    id: NodeId,
    clock: WallClock,
    rng: &'a mut StdRng,
    sent: Vec<(NodeId, Net, SimDuration)>,
    timers: Vec<(SimDuration, TimerToken)>,
    observed: Vec<Obs>,
    crashed: bool,
}

impl Host<Net, Obs> for ThreadHost<'_> {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn send(&mut self, to: NodeId, msg: Net) {
        self.sent.push((to, msg, SimDuration::ZERO));
    }

    fn send_delayed(&mut self, to: NodeId, msg: Net, extra_delay: SimDuration) {
        self.sent.push((to, msg, extra_delay));
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.timers.push((delay, token));
    }

    fn charge_cpu(&mut self, _d: SimDuration) {
        // Real cycles are spent for real; the modeled charge is a
        // simulator concern.
    }

    fn observe(&mut self, obs: Obs) {
        self.observed.push(obs);
    }

    fn crash(&mut self) {
        self.crashed = true;
    }
}

/// Everything one node thread owns.
struct NodeRunner {
    id: NodeId,
    dep: Arc<Deployment>,
    role: NodeRole,
    rx: Receiver<Envelope>,
    senders: Arc<Vec<SyncSender<Envelope>>>,
    clock: WallClock,
    obs: Arc<Mutex<Vec<Observation<Obs>>>>,
    dropped: Arc<Mutex<Vec<u64>>>,
    rng: StdRng,
    /// Pending `on_timer` deadlines.
    timers: BinaryHeap<Reverse<Due<TimerToken>>>,
    /// Artificially delayed sends (including delayed self-sends like
    /// `FlowDone`), held locally until due.
    delayed: BinaryHeap<Reverse<Due<(NodeId, Net)>>>,
    seq: u64,
    crashed: bool,
}

impl NodeRunner {
    /// Runs a handler and applies its collected effects.
    fn handle(&mut self, f: impl FnOnce(&mut dyn Actor<Net, Obs>, &mut dyn Host<Net, Obs>)) {
        let mut rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let mut host = ThreadHost {
            id: self.id,
            clock: self.clock,
            rng: &mut rng,
            sent: Vec::new(),
            timers: Vec::new(),
            observed: Vec::new(),
            crashed: false,
        };
        f(&mut self.role, &mut host);
        let ThreadHost {
            sent,
            timers,
            observed,
            crashed,
            ..
        } = host;
        self.rng = rng;
        let now = self.clock.now();
        if !observed.is_empty() {
            let mut log = self.obs.lock();
            for value in observed {
                log.push(Observation {
                    at: now,
                    node: self.id,
                    value,
                });
            }
        }
        for (delay, token) in timers {
            self.seq += 1;
            self.timers.push(Reverse(Due {
                at: now + delay,
                seq: self.seq,
                what: token,
            }));
        }
        for (to, msg, extra) in sent {
            if extra == SimDuration::ZERO && to != self.id {
                self.transmit(to, msg);
            } else {
                // Delayed sends (and all self-sends, so a full own mailbox
                // cannot drop e.g. `FlowDone`) are held locally until due.
                self.seq += 1;
                self.delayed.push(Reverse(Due {
                    at: now + extra,
                    seq: self.seq,
                    what: (to, msg),
                }));
            }
        }
        if crashed {
            self.crashed = true;
        }
    }

    fn transmit(&self, to: NodeId, msg: Net) {
        let Some(tx) = self.senders.get(to.0 as usize) else {
            return;
        };
        if tx.try_send(Envelope::Msg { from: self.id, msg }).is_err() {
            // Full mailbox or dead peer: the link drops the message; the
            // reliable-delivery layer retransmits what matters.
            if let Some(slot) = self.dropped.lock().get_mut(to.0 as usize) {
                *slot += 1;
            }
        }
    }

    /// Fires every locally queued deadline that is due, then returns the
    /// earliest remaining one.
    fn service_deadlines(&mut self) -> Option<SimTime> {
        loop {
            if self.crashed {
                return None;
            }
            let now = self.clock.now();
            let next_timer = self.timers.peek().map(|Reverse(d)| d.at);
            let next_delayed = self.delayed.peek().map(|Reverse(d)| d.at);
            match (next_timer, next_delayed) {
                (Some(t), d) if t <= now && d.map(|d| t <= d).unwrap_or(true) => {
                    let Reverse(due) = self.timers.pop().expect("peeked timer");
                    self.handle(|a, h| a.on_timer(h, due.what));
                }
                (_, Some(d)) if d <= now => {
                    let Reverse(due) = self.delayed.pop().expect("peeked delayed send");
                    let (to, msg) = due.what;
                    if to == self.id {
                        let from = self.id;
                        self.handle(|a, h| a.on_message(h, from, msg));
                    } else {
                        self.transmit(to, msg);
                    }
                }
                (t, d) => {
                    return match (t, d) {
                        (Some(t), Some(d)) => Some(t.min(d)),
                        (t, d) => t.or(d),
                    };
                }
            }
        }
    }

    fn run(mut self) {
        'lives: loop {
            self.handle(|a, h| a.on_start(h));
            while !self.crashed {
                let envelope = match self.service_deadlines() {
                    _ if self.crashed => break,
                    Some(next) => {
                        let wait = next.since(self.clock.now());
                        match self
                            .rx
                            .recv_timeout(std::time::Duration::from_nanos(wait.as_nanos()))
                        {
                            Ok(e) => Some(e),
                            Err(RecvTimeoutError::Timeout) => None,
                            Err(RecvTimeoutError::Disconnected) => return,
                        }
                    }
                    None => match self.rx.recv() {
                        Ok(e) => Some(e),
                        Err(_) => return,
                    },
                };
                match envelope {
                    None => {}
                    Some(Envelope::Msg { from, msg }) => {
                        self.handle(|a, h| a.on_message(h, from, msg));
                    }
                    Some(Envelope::Probe(reply)) => {
                        let _ = reply.try_send(self.role.outstanding());
                    }
                    Some(Envelope::Kill) => self.crashed = true,
                    // A live node ignores a stray restart, disk and all.
                    Some(Envelope::Restart { .. }) => {}
                    Some(Envelope::Shutdown) => return,
                }
            }
            // A crashed node drops all future deliveries, like the
            // simulator: drain silently until restarted or shut down.
            loop {
                match self.rx.recv() {
                    Ok(Envelope::Shutdown) | Err(_) => return,
                    Ok(Envelope::Probe(reply)) => {
                        // Dead nodes hold no *outstanding* work (their live
                        // peers carry the protocol), mirroring the engine
                        // watchdog's is_crashed exclusion.
                        let _ = reply.try_send(Outstanding::default());
                    }
                    Ok(Envelope::Msg { .. }) | Ok(Envelope::Kill) => {}
                    Ok(Envelope::Restart { disk_lost }) => {
                        // Next life: fresh actor (booted from its durable
                        // disk), no carried-over timers or delayed sends —
                        // exactly what the simulator's revive_node does.
                        self.role = self.dep.boot(self.id, Life::Restart { disk_lost });
                        self.timers.clear();
                        self.delayed.clear();
                        self.crashed = false;
                        continue 'lives;
                    }
                }
            }
        }
    }
}

/// Outcome of a threaded run (the wall-clock analogue of the engine's
/// `RunReport`).
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// Every injected flow resolved and no node held outstanding work on
    /// two consecutive polls.
    pub completed: bool,
    /// Flows injected.
    pub injected_flows: usize,
    /// Flows that completed or were denied.
    pub resolved_flows: usize,
    /// Outstanding work at the last poll (0 when `completed`).
    pub outstanding: usize,
    /// Messages dropped on full mailboxes (recovered by retransmission).
    pub dropped_messages: u64,
    /// Drops broken down by *destination* node, indexed by node id — the
    /// threaded analogue of `RunReport::dropped_per_node`, for spotting
    /// which mailbox saturates.
    pub dropped_per_node: Vec<u64>,
    /// Wall-clock milliseconds from deployment start to verdict.
    pub wall_ms: f64,
}

impl std::fmt::Display for ThreadedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threaded run {} after {:.1} ms wall: {}/{} flows resolved, {} outstanding, {} dropped",
            if self.completed { "converged" } else { "DID NOT CONVERGE" },
            self.wall_ms,
            self.resolved_flows,
            self.injected_flows,
            self.outstanding,
            self.dropped_messages,
        )
    }
}

/// A running threaded deployment: one OS thread per planned node.
pub struct ThreadedDeployment {
    dep: Arc<Deployment>,
    senders: Arc<Vec<SyncSender<Envelope>>>,
    handles: Vec<JoinHandle<()>>,
    clock: WallClock,
    obs: Arc<Mutex<Vec<Observation<Obs>>>>,
    dropped: Arc<Mutex<Vec<u64>>>,
    injected_flows: usize,
}

impl ThreadedDeployment {
    /// Spawns every planned node on its own thread and starts the actors.
    pub fn launch(dep: Deployment) -> ThreadedDeployment {
        let clock = WallClock::start();
        let obs: Arc<Mutex<Vec<Observation<Obs>>>> = Arc::new(Mutex::new(Vec::new()));
        let dropped = Arc::new(Mutex::new(vec![0u64; dep.nodes.len()]));
        let seed = dep.shared.cfg.seed;
        let dep = Arc::new(dep);

        let mut senders = Vec::with_capacity(dep.nodes.len());
        let mut receivers = Vec::with_capacity(dep.nodes.len());
        for planned in &dep.nodes {
            assert_eq!(
                planned.node.0 as usize,
                senders.len(),
                "deployment plan must be dense in node ids"
            );
            let (tx, rx) = bounded(MAILBOX_DEPTH);
            senders.push(tx);
            receivers.push(rx);
        }
        let senders = Arc::new(senders);

        let mut handles = Vec::with_capacity(dep.nodes.len());
        for (planned, rx) in dep.nodes.iter().zip(receivers) {
            let id = planned.node;
            let (dep, senders) = (Arc::clone(&dep), Arc::clone(&senders));
            let (obs, dropped) = (Arc::clone(&obs), Arc::clone(&dropped));
            let boot_and_run = move || {
                let runner = NodeRunner {
                    id,
                    role: dep.boot(id, Life::First),
                    dep,
                    rx,
                    senders,
                    clock,
                    obs,
                    dropped,
                    // Per-node stream derived from the engine seed, mirroring
                    // how the simulator derives per-actor randomness from one
                    // seed (streams differ; determinism per node is what the
                    // protocol needs for e.g. retry jitter).
                    rng: StdRng::seed_from_u64(
                        seed ^ (0x9e37_79b9_7f4a_7c15 ^ u64::from(id.0)).rotate_left(17),
                    ),
                    timers: BinaryHeap::new(),
                    delayed: BinaryHeap::new(),
                    seq: 0,
                    crashed: false,
                };
                runner.run()
            };
            handles.push(substrate::sync::spawn(&format!("cicero-{id}"), boot_and_run));
        }

        ThreadedDeployment {
            dep,
            senders,
            handles,
            clock,
            obs,
            dropped,
            injected_flows: 0,
        }
    }

    /// The shared runtime context.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.dep.shared
    }

    /// Kills `node` — a controller or a switch: its thread drops all state
    /// and drains its mailbox until restarted. The durable disk survives
    /// the kill.
    pub fn kill(&self, node: NodeId) {
        let _ = self.senders[node.0 as usize].send(Envelope::Kill);
    }

    /// Revives a killed node with an actor booted from its seed and durable
    /// disk: it replays its WAL on start (a controller then state-syncs
    /// from a peer). With `disk_lost` the node wipes its disk first
    /// (replacement machine). A node that is not dead ignores this.
    ///
    /// # Panics
    ///
    /// Panics if the node's storage was never provisioned (see
    /// [`Deployment::provision_storage`]).
    pub fn restart(&self, node: NodeId, disk_lost: bool) {
        assert!(self.dep.has_storage(node), "restarting {node} needs provisioned storage");
        let _ = self.senders[node.0 as usize].send(Envelope::Restart { disk_lost });
    }

    /// Injects flows at their ingress ToR switches, in order. Arrival time
    /// is "now" on the wall clock; per-switch arrival order matches the
    /// slice order (channels are FIFO per sender), which is what keeps
    /// switch-local event ids equal to a simulated run of the same flows.
    pub fn inject_flows(&mut self, flows: &[FlowSpec]) {
        for f in flows {
            let Some((node, msg)) = self.dep.shared.flow_arrival(f, self.clock.now()) else {
                continue;
            };
            // Blocking send: injection is not a lossy link, and a fresh
            // deployment's mailboxes are empty.
            let envelope = Envelope::Msg {
                from: ENVIRONMENT,
                msg,
            };
            if self.senders[node.0 as usize].send(envelope).is_ok() {
                self.injected_flows += 1;
            }
        }
    }

    /// Probes every node for outstanding work; `None` if a probe reply
    /// timed out (node busy — try again next poll).
    fn probe_outstanding(&self) -> Option<usize> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in self.senders.iter() {
            let (ptx, prx) = bounded(1);
            match tx.try_send(Envelope::Probe(ptx)) {
                Ok(()) => replies.push(Some(prx)),
                // Dead node: no outstanding work (crashed-node exclusion).
                // Full mailbox: clearly still busy.
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => replies.push(None),
                Err(std::sync::mpsc::TrySendError::Full(_)) => return None,
            }
        }
        let mut sum = Outstanding::default();
        for prx in replies.into_iter().flatten() {
            sum += prx.recv_timeout(std::time::Duration::from_millis(500)).ok()?;
        }
        Some(sum.blocking())
    }

    /// Polls until every injected flow resolved and two consecutive probes
    /// found zero outstanding work anywhere, or until `budget` of wall time
    /// elapses.
    pub fn run_to_convergence(&mut self, budget: SimDuration) -> ThreadedReport {
        let deadline = self.clock.now() + budget;
        let mut clean_polls = 0u32;
        let mut last_outstanding = 0usize;
        let mut completed = false;
        loop {
            if resolved_flows(&self.obs.lock()) >= self.injected_flows {
                match self.probe_outstanding() {
                    Some(0) => {
                        clean_polls += 1;
                        last_outstanding = 0;
                        if clean_polls >= 2 {
                            completed = true;
                            break;
                        }
                    }
                    Some(n) => {
                        clean_polls = 0;
                        last_outstanding = n;
                    }
                    None => clean_polls = 0,
                }
            } else {
                clean_polls = 0;
            }
            if self.clock.now() >= deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_nanos(POLL_PERIOD.as_nanos()));
        }
        let dropped_per_node = self.dropped.lock().clone();
        ThreadedReport {
            completed,
            injected_flows: self.injected_flows,
            resolved_flows: resolved_flows(&self.obs.lock()),
            outstanding: if completed { 0 } else { last_outstanding },
            dropped_messages: dropped_per_node.iter().sum(),
            dropped_per_node,
            wall_ms: self.clock.now().as_millis_f64(),
        }
    }

    /// Stops every node thread, joins them, and returns the observation log
    /// (stamped with wall-clock-since-epoch times, in global append order).
    pub fn shutdown(self) -> Vec<Observation<Obs>> {
        for tx in self.senders.iter() {
            // Err means the node already exited (crash); that is fine.
            let _ = tx.send(Envelope::Shutdown);
        }
        for h in self.handles {
            let _ = h.join();
        }
        Arc::try_unwrap(self.obs)
            .map(Mutex::into_inner)
            .unwrap_or_else(|arc| arc.lock().clone())
    }
}
