//! The threaded executor: one OS thread per protocol node, in-process
//! channels for links, wall-clock timers.
//!
//! Each node planned by [`cicero_core::deploy::plan`] runs its own thread
//! with a bounded mailbox, and boots every life of its actor there. A
//! handler runs against the same [`Context`] as under the simulator — the
//! one effect-collecting `Host` — so the *identical compiled protocol code*
//! runs here and is handed the identical kind of world; an executor only
//! schedules, and this one differs from the simulator in how:
//!
//! * **time** comes from the [`WallClock`] epoch (the one wall-clock
//!   boundary, `clock.rs`), read once for the handler's `now()` and once
//!   more, when it returns, to stamp what it did;
//! * **sends** go through `try_send` on the receiver's bounded mailbox — a
//!   full mailbox drops the message like a lossy link, and the protocol's
//!   reliable-delivery layer recovers;
//! * **modeled cost is dropped**, CPU charges and the `extra_delay` of a
//!   send to another node alike — real cycles are spent for real — so such
//!   a send is transmitted when its handler returns;
//! * **timers** and self-sends (`FlowDone`: the data plane that does not
//!   exist in-process) live in a per-thread deadline queue serviced with
//!   `recv_timeout`;
//! * **observations** append to a shared, mutex-serialized log stamped
//!   with wall-clock-since-epoch times.
//!
//! The log is the one lock the executor shares between threads (a node's
//! disk is its own), and a node takes it only after its handler returns;
//! mailbox-full drops are counted in atomics. With one shared lock there is
//! no lock order to get wrong, and no handler blocks: a node waits on its
//! mailbox only in `NodeRunner::run`, between handlers (checked by
//! `scripts/verify.sh`).

use crate::clock::WallClock;
use cicero_core::deploy::{Deployment, Life, NodeRole, Outstanding, Progress};
use cicero_core::msg::Net;
use cicero_core::obs::{resolved_flows, retransmit_stats, Obs};
use cicero_core::runtime::Shared;
use simnet::node::{Actor, Context, Effect, Host, NodeId, TimerToken};
use simnet::sim::{Observation, ENVIRONMENT};
use simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::mpsc::SyncSender;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use substrate::rng::{SeedableRng, StdRng};
use substrate::sync::{bounded, mailbox, MailboxReceiver, MailboxSender, Mutex, RecvTimeoutError, TrySendError};
use workload::gen::FlowSpec;

/// Mailbox depth per node, a count (a mailbox allocates only what waits in
/// it). Deep enough that a healthy deployment never drops; a pathological
/// burst degrades to loss (which the protocol's retransmission layer
/// absorbs) instead of deadlocking sender threads.
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

/// What a node holds locally until its deadline.
enum Due {
    /// An `on_timer` call.
    Timer(TimerToken),
    /// A self-send (like `FlowDone`), delivered after its `extra_delay`.
    Send(Net),
}

/// Everything one node thread owns.
struct NodeRunner {
    id: NodeId,
    dep: Arc<Deployment>,
    role: NodeRole,
    rx: MailboxReceiver<Envelope>,
    senders: Arc<Vec<MailboxSender<Envelope>>>,
    clock: WallClock,
    obs: Arc<Mutex<Vec<Observation<Obs>>>>,
    dropped: Arc<Vec<AtomicU64>>,
    rng: StdRng,
    /// Timers and self-sends by deadline; `seq` breaks ties in the order
    /// the handlers made them, as the simulator's event queue does.
    due: BTreeMap<(SimTime, u64), Due>,
    seq: u64,
}

impl NodeRunner {
    /// Runs a handler against a [`Context`] built from one clock read, then
    /// applies its effects, stamped with the clock as it reads afterwards:
    /// observations first (nothing a message triggers elsewhere is logged
    /// before them), then timers and sends in the order they were made.
    fn handle(&mut self, f: impl FnOnce(&mut dyn Actor<Net, Obs>, &mut dyn Host<Net, Obs>)) {
        let mut ctx = Context::new(self.clock.now(), self.id, &mut self.rng);
        f(&mut self.role, &mut ctx);
        let effects = ctx.into_effects();
        let now = self.clock.now();
        let mut observed = Vec::new();
        let mut outbox = Vec::new();
        for effect in effects {
            self.seq += 1;
            match effect {
                Effect::Observe(value) => observed.push(Observation {
                    at: now,
                    node: self.id,
                    value,
                }),
                Effect::Timer { delay, token } => {
                    self.due.insert((now + delay, self.seq), Due::Timer(token));
                }
                // A self-send is held until due (and never goes through the
                // own mailbox, which could be full and drop e.g. `FlowDone`).
                Effect::Send { to, msg, extra_delay } if to == self.id => {
                    self.due.insert((now + extra_delay, self.seq), Due::Send(msg));
                }
                // To another node `extra_delay` is modeled cost: dropped.
                Effect::Send { to, msg, .. } => outbox.push((to, msg)),
            }
        }
        if !observed.is_empty() {
            self.obs.lock().extend(observed);
        }
        for (to, msg) in outbox {
            self.transmit(to, msg);
        }
    }

    fn transmit(&self, to: NodeId, msg: Net) {
        let Some(tx) = self.senders.get(to.0 as usize) else {
            return;
        };
        if tx.try_send(Envelope::Msg { from: self.id, msg }).is_err() {
            // Full mailbox or dead peer: the link drops the message; the
            // reliable-delivery layer retransmits what matters.
            if let Some(count) = self.dropped.get(to.0 as usize) {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fires every locally queued deadline that is due, then returns the
    /// earliest remaining one.
    fn service_deadlines(&mut self) -> Option<SimTime> {
        loop {
            let (&(at, _), _) = self.due.first_key_value()?;
            if at > self.clock.now() {
                return Some(at);
            }
            let from = self.id;
            match self.due.pop_first().expect("peeked").1 {
                Due::Timer(token) => self.handle(|a, h| a.on_timer(h, token)),
                Due::Send(msg) => self.handle(|a, h| a.on_message(h, from, msg)),
            }
        }
    }

    fn run(mut self) {
        'lives: loop {
            self.handle(|a, h| a.on_start(h));
            loop {
                let received = match self.service_deadlines() {
                    Some(next) => {
                        let wait = next.since(self.clock.now());
                        self.rx.recv_timeout(std::time::Duration::from_nanos(wait.as_nanos()))
                    }
                    None => self.rx.recv_timeout(std::time::Duration::MAX),
                };
                match received {
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) | Ok(Envelope::Shutdown) => return,
                    Ok(Envelope::Msg { from, msg }) => {
                        self.handle(|a, h| a.on_message(h, from, msg));
                    }
                    Ok(Envelope::Probe(reply)) => {
                        let _ = reply.try_send(self.role.outstanding());
                    }
                    Ok(Envelope::Kill) => break,
                    // A live node ignores a stray restart, disk and all.
                    Ok(Envelope::Restart { .. }) => {}
                }
            }
            // A crashed node drops all future deliveries, like the
            // simulator: drain silently until restarted or shut down.
            loop {
                match self.rx.recv_timeout(std::time::Duration::MAX) {
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
                        // disk), no carried-over timers or self-sends —
                        // exactly what the simulator's revive_node does.
                        self.role = self.dep.boot(self.id, Life::Restart { disk_lost });
                        self.due.clear();
                        continue 'lives;
                    }
                }
            }
        }
    }
}

/// Outcome of a threaded run: the engine's `RunReport` with a wall clock
/// where that has a simulated one.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    /// [`Progress::complete`] held on two consecutive polls.
    pub completed: bool,
    /// Flows, outstanding work, mailbox-full drops per *destination* node
    /// (recovered by retransmission) and recoveries at the verdict.
    pub progress: Progress,
    /// `progress.dropped_messages()`.
    pub dropped_messages: u64,
    /// Wall-clock milliseconds from deployment start to verdict.
    pub wall_ms: f64,
}

/// A `ThreadedReport` reads as its [`Progress`], like a `RunReport`.
impl std::ops::Deref for ThreadedReport {
    type Target = Progress;

    fn deref(&self) -> &Progress {
        &self.progress
    }
}

impl std::fmt::Display for ThreadedReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.completed { "converged" } else { "DID NOT CONVERGE" };
        write!(f, "threaded run {verdict} after {:.1} ms wall: {}", self.wall_ms, self.progress)
    }
}

/// A running threaded deployment: one OS thread per planned node.
pub struct ThreadedDeployment {
    dep: Arc<Deployment>,
    senders: Arc<Vec<MailboxSender<Envelope>>>,
    handles: Vec<JoinHandle<()>>,
    clock: WallClock,
    obs: Arc<Mutex<Vec<Observation<Obs>>>>,
    dropped: Arc<Vec<AtomicU64>>,
    injected_flows: usize,
    /// Log entries the watchdog has scanned, and the flows resolved in them.
    resolved: (usize, usize),
}

impl ThreadedDeployment {
    /// Spawns every planned node on its own thread and starts the actors.
    pub fn launch(dep: Deployment) -> ThreadedDeployment {
        let clock = WallClock::start();
        let obs: Arc<Mutex<Vec<Observation<Obs>>>> = Arc::new(Mutex::new(Vec::new()));
        let dropped = Arc::new(dep.nodes.iter().map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
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
            let (tx, rx) = mailbox(MAILBOX_DEPTH);
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
                    due: BTreeMap::new(),
                    seq: 0,
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
            resolved: (0, 0),
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
            let arrival = self.dep.shared.flow_arrival(f.id, f.src, f.dst, f.bytes, self.clock.now());
            let Some((_, node, msg)) = arrival else {
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
    fn probe_outstanding(&self) -> Option<Outstanding> {
        let mut replies = Vec::with_capacity(self.senders.len());
        for tx in self.senders.iter() {
            let (ptx, prx) = bounded(1);
            match tx.try_send(Envelope::Probe(ptx)) {
                Ok(()) => replies.push(Some(prx)),
                // Dead node: no outstanding work (crashed-node exclusion).
                // Full mailbox: clearly still busy.
                Err(TrySendError::Disconnected(_)) => replies.push(None),
                Err(TrySendError::Full(_)) => return None,
            }
        }
        let mut sum = Outstanding::default();
        for prx in replies.into_iter().flatten() {
            sum += prx.recv_timeout(std::time::Duration::from_millis(500)).ok()?;
        }
        Some(sum)
    }

    /// Flows resolved so far: the log only grows, under the lock every node
    /// thread appends through, so each poll counts the new tail alone.
    fn poll_resolved(&mut self) -> usize {
        let log = self.obs.lock();
        let (scanned, resolved) = &mut self.resolved;
        *resolved += resolved_flows(&log[*scanned..]);
        *scanned = log.len();
        *resolved
    }

    /// Polls until the run's progress is complete on two consecutive polls
    /// — every injected flow resolved, zero outstanding work anywhere — or
    /// until `budget` of wall time elapses.
    pub fn run_to_convergence(&mut self, budget: SimDuration) -> ThreadedReport {
        let deadline = self.clock.now() + budget;
        let mut clean_polls = 0u32;
        let (completed, polled) = loop {
            let resolved_flows = self.poll_resolved();
            let progress = |outstanding| Progress {
                injected_flows: self.injected_flows,
                resolved_flows,
                outstanding,
                ..Progress::default()
            };
            // A probe is a round trip to every node: not before the log
            // says the flows are through.
            let probed = (resolved_flows >= self.injected_flows).then(|| self.probe_outstanding());
            let polled = probed.flatten().map(progress);
            clean_polls = match &polled {
                Some(p) if p.complete() => clean_polls + 1,
                _ => 0,
            };
            if let (2.., Some(p)) = (clean_polls, polled) {
                break (true, p);
            }
            if self.clock.now() >= deadline {
                // Say what is outstanding, not only that something is.
                break (false, progress(self.probe_outstanding().unwrap_or_default()));
            }
            std::thread::sleep(std::time::Duration::from_nanos(POLL_PERIOD.as_nanos()));
        };
        let progress = Progress {
            dropped_per_node: self.dropped.iter().map(|n| n.load(Ordering::Relaxed)).collect(),
            stats: retransmit_stats(&self.obs.lock()),
            ..polled
        };
        ThreadedReport {
            completed,
            dropped_messages: progress.dropped_messages(),
            progress,
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

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::types::{FlowId, Phase};
    use substrate::storage::{mem_disk, Wal};

    /// Node 0 of a flowless deployment on a fresh clock, with the receiving
    /// ends of `mailboxes` peers' mailboxes (node ids 0..) and the shared log.
    #[allow(clippy::type_complexity, reason = "a test fixture's one-off tuple")]
    fn runner(mailboxes: usize) -> (NodeRunner, Vec<MailboxReceiver<Envelope>>, Arc<Mutex<Vec<Observation<Obs>>>>) {
        let spec = crate::NodeSpec::from_json(r#"{ "mode": "centralized", "flows": 0 }"#)
            .expect("valid spec");
        let topo = spec.topology();
        let plan = cicero_core::deploy::plan(spec.engine_config(), spec.topology(), spec.domain_map(&topo), 0);
        let (dep, id) = (Arc::new(plan), NodeId(0));
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..mailboxes).map(|_| mailbox(MAILBOX_DEPTH)).unzip();
        let (_tx, rx) = mailbox(1);
        let obs = Arc::new(Mutex::new(Vec::new()));
        let runner = NodeRunner {
            id,
            role: dep.boot(id, Life::First),
            dep,
            rx,
            senders: Arc::new(senders),
            clock: WallClock::start(),
            obs: Arc::clone(&obs),
            dropped: Arc::new((0..mailboxes).map(|_| AtomicU64::new(0)).collect()),
            rng: StdRng::seed_from_u64(0),
            due: BTreeMap::new(),
            seq: 0,
        };
        (runner, receivers, obs)
    }

    /// Each actor is a deterministic function of its inputs — the `now()`
    /// it is handed among them — on threads as in the simulator.
    #[test]
    fn a_handler_sees_one_now_however_long_it_runs() {
        let (mut runner, _, obs) = runner(0);
        let (pause, delay) = (SimDuration::from_millis(5), SimDuration::from_millis(10));
        let mut seen = SimTime::ZERO;
        runner.handle(|_actor, host| {
            seen = host.now();
            host.observe(Obs::FlowDenied { flow: FlowId(1) });
            std::thread::sleep(std::time::Duration::from_nanos(pause.as_nanos()));
            host.set_timer(delay, TimerToken(9));
            assert_eq!(host.now(), seen, "now() moved inside a handler");
        });
        assert!(seen > SimTime::ZERO, "the handler ran");
        // What it did is stamped from the clock as read after it returned.
        let done = seen + pause;
        assert!(obs.lock()[0].at >= done);
        let ((at, _), timer) = runner.due.pop_first().expect("the timer is armed");
        assert!(at >= done + delay && matches!(timer, Due::Timer(TimerToken(9))));
    }

    /// A full mailbox is a lossy link: the message past the depth is
    /// dropped and counted against its destination, and the probe reads the
    /// full mailbox as busy.
    #[test]
    fn the_message_past_the_mailbox_depth_is_dropped_and_counted() {
        let (runner, mailboxes, _) = runner(2);
        let beat = || Net::Heartbeat { phase: Phase(0) };
        for _ in 0..MAILBOX_DEPTH {
            runner.transmit(NodeId(1), beat());
        }
        assert_eq!(runner.dropped[1].load(Ordering::Relaxed), 0, "{MAILBOX_DEPTH} fit");
        runner.transmit(NodeId(1), beat());
        assert_eq!(runner.dropped[1].load(Ordering::Relaxed), 1, "the next one is dropped");
        let (probe, _) = bounded(1);
        assert!(matches!(runner.senders[1].try_send(Envelope::Probe(probe)), Err(TrySendError::Full(_))));
        assert!(mailboxes[1].recv_timeout(std::time::Duration::ZERO).is_ok());
        runner.transmit(NodeId(1), beat());
        assert_eq!(runner.dropped[1].load(Ordering::Relaxed), 1, "a message taken frees a place");
    }

    /// Modeled latency never reaches the clock: a delayed send to another
    /// node leaves with its handler; only the node's own future is held.
    #[test]
    fn a_delayed_send_to_a_peer_leaves_at_once_and_the_nodes_own_future_is_held() {
        let (mut runner, mailboxes, _) = runner(2);
        let (me, peer, delay) = (NodeId(0), NodeId(1), SimDuration::from_millis(10));
        let beat = |n| Net::Heartbeat { phase: Phase(n) };
        let before = runner.clock.now();
        runner.handle(|_actor, host| {
            host.send_delayed(peer, beat(1), delay);
            host.send_delayed(me, beat(2), delay);
            host.set_timer(delay, TimerToken(3));
        });
        let arrived = mailboxes[1].recv_timeout(std::time::Duration::ZERO).ok();
        assert!(
            matches!(arrived, Some(Envelope::Msg { from, msg: Net::Heartbeat { phase: Phase(1) } }) if from == me),
            "the peer's mailbox holds the send when handle returns"
        );
        assert!(mailboxes[0].recv_timeout(std::time::Duration::ZERO).is_err(), "a self-send never goes through the mailbox");
        // Held until due, in the order made; nothing is held for the peer.
        let held: Vec<(SimTime, &Due)> = runner.due.iter().map(|(&(at, _), d)| (at, d)).collect();
        assert!(matches!(
            held[..],
            [(_, Due::Send(Net::Heartbeat { phase: Phase(2) })), (_, Due::Timer(TimerToken(3)))]
        ));
        let first = held[0].0;
        assert!(first >= before + delay);
        assert_eq!(runner.service_deadlines(), Some(first), "not due yet: nothing fires");
        assert_eq!(runner.due.len(), 2);
    }

    /// Write-ahead holds whatever order a handler is written in: its sends
    /// are effects, transmitted only once it returns, and `Wal::append` is
    /// on disk when it returns. An ack sent before its record is appended
    /// still leaves after the record.
    #[test]
    fn a_send_leaves_after_every_wal_append_of_its_handler() {
        let (mut runner, mailboxes, _) = runner(2);
        let disk = mem_disk();
        let (mut wal, _) = Wal::open(Arc::clone(&disk), "wal");
        runner.handle(|_actor, host| {
            host.send(NodeId(1), Net::Heartbeat { phase: Phase(1) });
            assert!(mailboxes[1].recv_timeout(std::time::Duration::ZERO).is_err(), "the send left inside the handler");
            wal.append(b"acked");
        });
        let (_, records) = Wal::open(disk, "wal");
        assert_eq!(records, vec![b"acked".to_vec()]);
        assert!(
            matches!(mailboxes[1].recv_timeout(std::time::Duration::ZERO), Ok(Envelope::Msg { msg: Net::Heartbeat { .. }, .. })),
            "the peer's mailbox holds the send when handle returns"
        );
    }
}
