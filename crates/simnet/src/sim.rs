//! The discrete-event simulation engine.
//!
//! Determinism contract: given the same actors, latency model, fault plan
//! and seed, every run produces the identical event order (ties are broken
//! by a monotone sequence number) and therefore identical observations.

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::metrics::CpuMeter;
use crate::node::{Actor, Context, Effect, Host, NodeId, TimerToken};
use crate::time::{SimDuration, SimTime};
use substrate::rng::StdRng;
use substrate::rng::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The id messages injected by the experiment harness appear to come from.
pub const ENVIRONMENT: NodeId = NodeId(u32::MAX);

/// CPU-utilization bucket width of every node's meter (Fig. 11d).
const CPU_BUCKET: SimDuration = SimDuration::from_secs(1);

#[derive(Debug)]
enum EventKind<M> {
    Deliver { to: NodeId, from: NodeId, msg: M },
    // `epoch` is the node's incarnation at scheduling time: timers armed
    // before a crash must not fire on a revived incarnation (the revived
    // actor arms its own from `on_start`).
    Timer { node: NodeId, token: TimerToken, epoch: u64 },
    Crash { node: NodeId },
}

/// A queued event's place in time order: the heap orders keys by
/// `(at, seq)` (`seq` is unique, so `slot` never decides), and the event
/// itself waits in `Simulation::slots[slot]`. An event deferred behind a
/// busy node is re-keyed in place; its payload does not move.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

struct NodeEntry<M, O> {
    actor: Option<Box<dyn Actor<M, O>>>,
    busy_until: SimTime,
    crashed: bool,
    /// Incarnation count: bumped by [`Simulation::revive_node`].
    epoch: u64,
    /// Messages to this node dropped by the fault plan.
    dropped: u64,
    cpu: CpuMeter,
}

/// A recorded observation: when, by whom, what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observation<O> {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// The emitting node.
    pub node: NodeId,
    /// The payload.
    pub value: O,
}

/// The simulation: a set of actors, a latency model, a fault plan and an
/// event queue.
///
/// # Examples
///
/// ```
/// use simnet::prelude::*;
///
/// struct Echo;
/// impl Actor<u32, u32> for Echo {
///     fn on_message(&mut self, ctx: &mut dyn Host<u32, u32>, from: NodeId, msg: u32) {
///         ctx.observe(msg + 1);
///         let _ = from;
///     }
/// }
///
/// let mut sim = Simulation::new(7, UniformLatency(SimDuration::from_micros(10)));
/// let echo = sim.add_node(Echo);
/// sim.inject(SimTime::ZERO, echo, 41);
/// sim.run();
/// assert_eq!(sim.observations()[0].value, 42);
/// ```
pub struct Simulation<M, O = ()> {
    nodes: Vec<NodeEntry<M, O>>,
    queue: BinaryHeap<Reverse<Key>>,
    /// Queued events by `Key::slot`; `None` on the free list.
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
    latency: Box<dyn LatencyModel>,
    faults: FaultPlan,
    rng: StdRng,
    now: SimTime,
    seq: u64,
    observations: Vec<Observation<O>>,
    max_events: u64,
    processed: u64,
    delivered: u64,
}

impl<M: Clone + 'static, O: 'static> Simulation<M, O> {
    /// Creates a simulation with a seed and latency model.
    pub fn new<L: LatencyModel + 'static>(seed: u64, latency: L) -> Self {
        Simulation {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            latency: Box::new(latency),
            faults: FaultPlan::none(),
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            observations: Vec::new(),
            max_events: u64::MAX,
            processed: 0,
            delivered: 0,
        }
    }

    /// Installs a fault plan (scheduling its crashes).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        for &(at, node) in &faults.crashes {
            self.schedule(at, EventKind::Crash { node });
        }
        self.faults = faults;
    }

    /// Caps the number of events processed from now on (guards against
    /// livelock bugs: `run_until` returns with events still due once the
    /// budget is spent).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = self.processed.saturating_add(max);
    }

    /// Registers an actor, returning its node id (ids are sequential).
    pub fn add_node<A: Actor<M, O> + 'static>(&mut self, actor: A) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeEntry {
            actor: Some(Box::new(actor)),
            busy_until: SimTime::ZERO,
            crashed: false,
            epoch: 0,
            dropped: 0,
            cpu: CpuMeter::new(CPU_BUCKET),
        });
        id
    }

    /// Replaces a crashed node's actor with a fresh incarnation and runs
    /// its `on_start` at the current time — the restart half of a
    /// crash-recover fault. Timers armed by the previous incarnation are
    /// discarded (their epoch no longer matches); in-flight messages
    /// addressed to the node are delivered to the new incarnation.
    pub fn revive_node<A: Actor<M, O> + 'static>(&mut self, node: NodeId, actor: A) {
        let e = &mut self.nodes[node.0 as usize];
        e.actor = Some(Box::new(actor));
        e.crashed = false;
        e.busy_until = self.now;
        e.epoch += 1;
        self.dispatch_with(node, |actor, ctx| actor.on_start(ctx));
    }

    /// Per-destination counts of messages dropped by the fault plan
    /// (indexed by node id) — surfaces silent loss for diagnostics.
    pub fn dropped_counts(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.dropped).collect()
    }

    /// Total messages delivered to actors so far — the control-plane
    /// message cost of the run (includes retransmissions and duplicates;
    /// excludes dropped messages and timer fires).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Injects a message from the environment, arriving at exactly `at`.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        self.inject_from(at, ENVIRONMENT, to, msg);
    }

    /// Injects a message that appears to come from `from`, arriving at `at`.
    pub fn inject_from(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        self.schedule(at, EventKind::Deliver { to, from, msg });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Timestamp of the earliest queued event, or `None` when the queue is
    /// drained (no future progress is possible).
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(key)| key.at)
    }

    /// All observations so far.
    pub fn observations(&self) -> &[Observation<O>] {
        &self.observations
    }

    /// Consumes the simulation, returning the observations.
    pub fn into_observations(self) -> Vec<Observation<O>> {
        self.observations
    }

    /// The CPU utilization series of `node` (see [`CpuMeter::utilization`]).
    pub fn cpu_utilization(&self, node: NodeId) -> Vec<f64> {
        self.nodes[node.0 as usize].cpu.utilization()
    }

    /// The total CPU busy time of `node`.
    pub fn cpu_total(&self, node: NodeId) -> SimDuration {
        self.nodes[node.0 as usize].cpu.total_busy()
    }

    /// `true` iff the fault plan crashed the node (and nothing revived it).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].crashed
    }

    /// Runs `f` against the concrete actor at `node`.
    ///
    /// # Panics
    ///
    /// Panics if the actor's concrete type is not `A`.
    pub fn with_actor<A: Actor<M, O> + 'static, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut A) -> R,
    ) -> R {
        let actor = self.nodes[node.0 as usize]
            .actor
            .as_mut()
            .expect("actor is resident between events");
        let any: &mut dyn std::any::Any = actor.as_mut();
        f(any.downcast_mut::<A>().expect("actor type mismatch"))
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Queues `kind` at `at` under the next sequence number.
    fn schedule(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.queue.push(Reverse(Key { at, seq, slot }));
    }

    /// Calls every actor's `on_start` (at time zero).
    pub fn start(&mut self) {
        for i in 0..self.nodes.len() {
            self.dispatch_with(NodeId(i as u32), |actor, ctx| actor.on_start(ctx));
        }
    }

    /// Runs until the queue is empty (or `max_events` is hit).
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Runs all events with timestamp `<= deadline`; `now` advances to the
    /// last processed event (not beyond the deadline).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(&Reverse(key)) = self.queue.peek() {
            if key.at > deadline || self.processed >= self.max_events {
                break;
            }
            self.processed += 1;
            if let Some(busy) = self.deferral(key) {
                // Wait behind the node's current work: a new key in place
                // (one sift-down), as if popped and pushed back.
                let seq = self.next_seq();
                let mut top = self.queue.peek_mut().expect("peeked");
                top.0.at = busy;
                top.0.seq = seq;
                continue;
            }
            self.queue.pop();
            let kind = self.slots[key.slot as usize]
                .take()
                .expect("a queued key owns its slot");
            self.free.push(key.slot);
            self.process(key.at, kind);
        }
    }

    /// Advances the idle clock to `t`. A no-op if `t` is in the past or an
    /// event earlier than `t` is still queued (the clock only coasts over
    /// genuinely quiet stretches). Lets an external driver apply state
    /// changes at a chosen instant — e.g. a controller restart while the
    /// network is drained.
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(Reverse(key)) = self.queue.peek() {
            if key.at < t {
                return;
            }
        }
        self.now = t;
    }

    /// `Some(busy_until)` iff the event under `key` is a timer or message
    /// for a live node that is still busy at `key.at`: it must wait.
    fn deferral(&self, key: Key) -> Option<SimTime> {
        let node = match self.slots[key.slot as usize]
            .as_ref()
            .expect("a queued key owns its slot")
        {
            EventKind::Crash { .. } => return None,
            EventKind::Timer { node, epoch, .. } => {
                let n = &self.nodes[node.0 as usize];
                if n.epoch != *epoch {
                    return None;
                }
                n
            }
            EventKind::Deliver { to, .. } => self.nodes.get(to.0 as usize)?,
        };
        (!node.crashed && node.busy_until > key.at).then_some(node.busy_until)
    }

    fn process(&mut self, at: SimTime, kind: EventKind<M>) {
        debug_assert!(at >= self.now, "time went backwards");
        match kind {
            EventKind::Crash { node } => {
                self.now = at;
                self.nodes[node.0 as usize].crashed = true;
            }
            EventKind::Timer { node, token, epoch } => {
                if self.nodes[node.0 as usize].crashed
                    || self.nodes[node.0 as usize].epoch != epoch
                {
                    return;
                }
                self.now = at;
                self.dispatch_with(node, |actor, ctx| actor.on_timer(ctx, token));
            }
            EventKind::Deliver { to, from, msg } => {
                // Messages to unknown destinations (e.g. replies to the
                // environment) are dropped silently.
                if to.0 as usize >= self.nodes.len() || self.nodes[to.0 as usize].crashed {
                    return;
                }
                self.now = at;
                self.delivered += 1;
                self.dispatch_with(to, |actor, ctx| actor.on_message(ctx, from, msg));
            }
        }
    }

    fn dispatch_with(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Actor<M, O>, &mut dyn Host<M, O>),
    ) {
        let idx = node.0 as usize;
        if self.nodes[idx].crashed {
            return;
        }
        let mut actor = self.nodes[idx]
            .actor
            .take()
            .expect("actor is resident between events");
        let mut ctx = Context::new(self.now, node, &mut self.rng);
        f(actor.as_mut(), &mut ctx);
        let cpu_charge = ctx.cpu_charge;
        let effects = ctx.into_effects();
        self.nodes[idx].actor = Some(actor);

        // CPU model: the node is busy until processing completes; sends
        // depart at completion time.
        let done = self.now + cpu_charge;
        if cpu_charge > SimDuration::ZERO {
            self.nodes[idx].cpu.record(self.now, cpu_charge);
            self.nodes[idx].busy_until = done;
        }

        for effect in effects {
            match effect {
                Effect::Send {
                    to,
                    msg,
                    extra_delay,
                } => {
                    // Self-addressed messages are intra-node (timers in
                    // disguise); they never traverse the faulty network.
                    // Faults apply at departure time (`done`), so a message
                    // sent while a link is severed is lost even if the link
                    // would have healed before arrival.
                    let loopback = to == node;
                    if !loopback && self.faults.should_drop(node, to, done, &mut self.rng) {
                        if (to.0 as usize) < self.nodes.len() {
                            self.nodes[to.0 as usize].dropped += 1;
                        }
                        continue;
                    }
                    let arrive = done + self.latency.latency(node, to) + extra_delay;
                    if !loopback && self.faults.should_duplicate(&mut self.rng) {
                        let copy = EventKind::Deliver {
                            to,
                            from: node,
                            msg: msg.clone(),
                        };
                        self.schedule(arrive + SimDuration::from_nanos(1), copy);
                    }
                    self.schedule(arrive, EventKind::Deliver { to, from: node, msg });
                }
                Effect::Timer { delay, token } => {
                    let epoch = self.nodes[idx].epoch;
                    self.schedule(done + delay, EventKind::Timer { node, token, epoch });
                }
                Effect::Observe(obs) => {
                    self.observations.push(Observation {
                        at: self.now,
                        node,
                        value: obs,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        peer: NodeId,
        rounds: u32,
    }
    impl Actor<Msg, (NodeId, Msg)> for Pinger {
        fn on_message(&mut self, ctx: &mut dyn Host<Msg, (NodeId, Msg)>, from: NodeId, msg: Msg) {
            ctx.observe((from, msg.clone()));
            match msg {
                Msg::Ping(n) => ctx.send(from, Msg::Pong(n)),
                Msg::Pong(n) if n < self.rounds => ctx.send(self.peer, Msg::Ping(n + 1)),
                Msg::Pong(_) => {}
            }
        }
    }

    #[test]
    fn ping_pong_latency_accumulates() {
        let mut sim: Simulation<Msg, (NodeId, Msg)> =
            Simulation::new(1, UniformLatency(SimDuration::from_micros(100)));
        let a = sim.add_node(Pinger {
            peer: NodeId(1),
            rounds: 3,
        });
        let b = sim.add_node(Pinger {
            peer: NodeId(0),
            rounds: 3,
        });
        sim.inject_from(SimTime::ZERO, a, b, Msg::Ping(1));
        sim.run();
        let obs = sim.observations();
        // ping(1)@b, then pong(1)@a 100us later, ...
        assert_eq!(obs[0].value, (a, Msg::Ping(1)));
        assert_eq!(obs[1].value, (b, Msg::Pong(1)));
        assert_eq!(obs[1].at.as_micros(), 100);
        // Full exchange: ping1,pong1,ping2,pong2,ping3,pong3 observed.
        assert_eq!(obs.len(), 6);
        assert_eq!(obs[5].at.as_micros(), 500);
        let _ = a;
    }

    struct Worker;
    impl Actor<Msg, u64> for Worker {
        fn on_message(&mut self, ctx: &mut dyn Host<Msg, u64>, _from: NodeId, _msg: Msg) {
            ctx.observe(ctx.now().as_micros());
            ctx.charge_cpu(SimDuration::from_micros(500));
        }
    }

    #[test]
    fn cpu_serializes_deliveries() {
        let mut sim: Simulation<Msg, u64> =
            Simulation::new(2, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Worker);
        // Three messages arrive simultaneously; each takes 500 us of CPU.
        for _ in 0..3 {
            sim.inject(SimTime::ZERO, w, Msg::Ping(0));
        }
        sim.run();
        let starts: Vec<u64> = sim.observations().iter().map(|o| o.value).collect();
        assert_eq!(starts, vec![0, 500, 1000]);
        assert_eq!(sim.cpu_total(w).as_micros(), 1500);
    }

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// Observes `(from, n, µs)` per message, charging 500 µs of CPU each,
    /// and `(itself, token, µs)` per timer; `arm` is a `(token, delay µs)`
    /// timer set by `on_start`.
    struct Busy {
        arm: Option<(u32, u64)>,
    }
    impl Actor<Msg, (NodeId, u32, u64)> for Busy {
        fn on_start(&mut self, ctx: &mut dyn Host<Msg, (NodeId, u32, u64)>) {
            if let Some((token, delay)) = self.arm {
                ctx.set_timer(SimDuration::from_micros(delay), TimerToken(token.into()));
            }
        }
        fn on_message(
            &mut self,
            ctx: &mut dyn Host<Msg, (NodeId, u32, u64)>,
            from: NodeId,
            msg: Msg,
        ) {
            let (Msg::Ping(n) | Msg::Pong(n)) = msg;
            ctx.observe((from, n, ctx.now().as_micros()));
            ctx.charge_cpu(SimDuration::from_micros(500));
        }
        fn on_timer(&mut self, ctx: &mut dyn Host<Msg, (NodeId, u32, u64)>, token: TimerToken) {
            let id = ctx.id();
            ctx.observe((id, token.0 as u32, ctx.now().as_micros()));
        }
    }

    #[test]
    fn waiting_messages_keep_their_order_behind_an_arrival_at_busy_until() {
        let mut sim: Simulation<Msg, (NodeId, u32, u64)> =
            Simulation::new(8, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Busy { arm: None });
        let (x, y) = (NodeId(7), NodeId(8));
        sim.inject_from(at_us(0), x, w, Msg::Ping(0));
        for n in 1..=3 {
            sim.inject_from(at_us(100 * u64::from(n)), x, w, Msg::Ping(n));
        }
        sim.inject_from(at_us(500), y, w, Msg::Ping(4));
        sim.run();
        // `y`'s message was queued before the three waiting ones were put
        // back at 500 µs, so it goes first; they keep their arrival order.
        let handled: Vec<_> = sim.observations().iter().map(|o| o.value).collect();
        assert_eq!(
            handled,
            vec![(x, 0, 0), (y, 4, 500), (x, 1, 1000), (x, 2, 1500), (x, 3, 2000)]
        );
        assert_eq!(sim.delivered_count(), 5);
    }

    #[test]
    fn an_old_incarnations_timer_is_dropped_while_the_revived_node_is_busy() {
        let mut sim: Simulation<Msg, (NodeId, u32, u64)> =
            Simulation::new(9, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Busy { arm: Some((1, 1000)) });
        sim.set_faults(FaultPlan::none().with_crash(at_us(10), w));
        sim.start();
        sim.run_until(at_us(20));
        assert!(sim.is_crashed(w));
        sim.revive_node(w, Busy { arm: Some((2, 3000)) });
        // Busy from 900 to 1400 µs: the first incarnation's timer comes due
        // at 1000 µs in between.
        sim.inject(at_us(900), w, Msg::Ping(5));
        sim.run();
        let seen: Vec<_> = sim.observations().iter().map(|o| o.value).collect();
        assert_eq!(seen, vec![(ENVIRONMENT, 5, 900), (w, 2, 3010)]);
    }

    #[test]
    fn a_message_waiting_on_a_node_that_crashes_is_dropped() {
        let mut sim: Simulation<Msg, (NodeId, u32, u64)> =
            Simulation::new(10, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Busy { arm: None });
        sim.set_faults(FaultPlan::none().with_crash(at_us(300), w));
        sim.inject(at_us(0), w, Msg::Ping(0));
        sim.inject(at_us(100), w, Msg::Ping(1));
        sim.run();
        let seen: Vec<_> = sim.observations().iter().map(|o| o.value).collect();
        assert_eq!(seen, vec![(ENVIRONMENT, 0, 0)]);
        assert_eq!(sim.delivered_count(), 1);
        assert_eq!(sim.next_event_at(), None);
    }

    #[test]
    fn waiting_counts_against_the_event_budget() {
        let mut sim: Simulation<Msg, (NodeId, u32, u64)> =
            Simulation::new(11, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Busy { arm: None });
        for n in 0..3 {
            sim.inject(SimTime::ZERO, w, Msg::Ping(n));
        }
        // Handle 0, put 1 and 2 back to 500 µs.
        sim.set_max_events(3);
        sim.run();
        assert_eq!(sim.observations().len(), 1);
        assert_eq!(sim.next_event_at(), Some(at_us(500)));
        // Handle 1, put 2 back to 1000 µs.
        sim.set_max_events(2);
        sim.run();
        assert_eq!(sim.observations().len(), 2);
        assert_eq!(sim.next_event_at(), Some(at_us(1000)));
        sim.set_max_events(1);
        sim.run();
        assert_eq!(sim.observations().len(), 3);
        assert_eq!(sim.next_event_at(), None);
    }

    #[test]
    fn scheduled_crash_drops_future_messages() {
        let mut sim: Simulation<Msg, u64> =
            Simulation::new(4, UniformLatency(SimDuration::ZERO));
        let w = sim.add_node(Worker);
        sim.set_faults(
            FaultPlan::none().with_crash(SimTime::from_nanos(5), w),
        );
        sim.inject(SimTime::ZERO, w, Msg::Ping(0));
        sim.inject(SimTime::from_nanos(10), w, Msg::Ping(1));
        sim.run();
        assert_eq!(sim.observations().len(), 1);
        assert!(sim.is_crashed(w));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<Observation<(NodeId, Msg)>> {
            let mut sim: Simulation<Msg, (NodeId, Msg)> =
                Simulation::new(seed, UniformLatency(SimDuration::from_micros(33)));
            let a = sim.add_node(Pinger {
                peer: NodeId(1),
                rounds: 5,
            });
            let b = sim.add_node(Pinger {
                peer: NodeId(0),
                rounds: 5,
            });
            sim.inject_from(SimTime::ZERO, a, b, Msg::Ping(1));
            sim.inject_from(SimTime::ZERO, b, a, Msg::Ping(1));
            sim.run();
            sim.into_observations()
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim: Simulation<Msg, (NodeId, Msg)> =
            Simulation::new(5, UniformLatency(SimDuration::from_micros(100)));
        let a = sim.add_node(Pinger {
            peer: NodeId(1),
            rounds: 100,
        });
        let b = sim.add_node(Pinger {
            peer: NodeId(0),
            rounds: 100,
        });
        sim.inject_from(SimTime::ZERO, a, b, Msg::Ping(1));
        sim.run_until(SimTime::from_nanos(250_000));
        assert!(sim.now() <= SimTime::from_nanos(250_000));
        let before = sim.observations().len();
        assert!(before >= 2);
        sim.run();
        assert!(sim.observations().len() > before);
    }

    #[test]
    fn with_actor_downcasts() {
        let mut sim: Simulation<Msg, (NodeId, Msg)> =
            Simulation::new(6, UniformLatency(SimDuration::ZERO));
        let n = sim.add_node(Pinger {
            peer: NodeId(0),
            rounds: 1,
        });
        let rounds = sim.with_actor::<Pinger, _>(n, |p| p.rounds);
        assert_eq!(rounds, 1);
    }
}
