//! Node identities, the host abstraction, and the actor trait.
//!
//! The split here is the repo's core/runtime boundary: [`Actor`]s hold the
//! protocol logic and talk to the world exclusively through the [`Host`]
//! trait (send/set_timer/charge_cpu/observe/rng/now). [`Context`] is its one
//! implementation: it collects what a handler did as ordered [`Effect`]s,
//! and every executor — the discrete-event simulator here, `cicero-node`'s
//! threads, a muted recovery replay — builds one per handler call and then
//! applies, or drops, the effects its own way. Protocol code that compiles
//! against `dyn Host` cannot tell which runtime is underneath — that is
//! what makes the sim-vs-threads equivalence check meaningful.

use crate::time::{SimDuration, SimTime};
use substrate::rng::StdRng;

/// Identifies a simulated node (controller, switch, or host).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An opaque timer identifier chosen by the actor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TimerToken(pub u64);

/// The handler-side API an actor runs against: send messages, set timers,
/// charge CPU time, emit observations — without knowing whether the runtime
/// underneath is the discrete-event simulator or a real-threads executor.
///
/// The trait is object-safe on purpose: actors receive `&mut dyn Host` so
/// the same compiled protocol code runs under every executor. Time is
/// expressed in [`SimTime`] under both runtimes; a threaded host maps it
/// onto a wall-clock epoch behind its own boundary module.
pub trait Host<M, O = ()> {
    /// Current time (simulated or wall-clock-since-epoch).
    fn now(&self) -> SimTime;

    /// This node's id.
    fn id(&self) -> NodeId;

    /// Deterministic RNG (per-simulation in the simulator, per-node under a
    /// threaded host — both seeded from the engine seed).
    fn rng(&mut self) -> &mut StdRng;

    /// Sends `msg` to `to`; it arrives after the link latency (plus any CPU
    /// time charged by this handler, modeling that transmission happens when
    /// processing finishes).
    fn send(&mut self, to: NodeId, msg: M) {
        self.send_delayed(to, msg, SimDuration::ZERO);
    }

    /// Sends with an extra artificial delay on top of link latency.
    ///
    /// `extra_delay` is *modeled cost* — the simulator's stand-in for time
    /// the sender spends producing the message (pipeline stages, signing on
    /// spare cores) — and only the simulator honours it: an executor that
    /// really spends that time transmits at once, and holds only a
    /// self-send until due. A protocol that must *wait* sets a timer.
    fn send_delayed(&mut self, to: NodeId, msg: M, extra_delay: SimDuration);

    /// Schedules `on_timer(token)` after `delay`.
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken);

    /// Charges `d` of CPU time to this node: the node stays busy (deferring
    /// later deliveries) and the busy time is recorded for utilization
    /// metrics. A wall-clock host may treat this as a no-op (real CPU time
    /// is spent, not modeled).
    fn charge_cpu(&mut self, d: SimDuration);

    /// Emits an observation to the experiment harness.
    fn observe(&mut self, obs: O);
}

/// A protocol process. `M` is the message type exchanged on the network;
/// `O` is the observation type emitted to the experiment harness.
///
/// Handlers run to completion and speak to their runtime only through the
/// [`Host`] they are handed. Real processing cost is modeled explicitly with
/// [`Host::charge_cpu`], which (under the simulator) serializes subsequent
/// deliveries to this node (single-core node model, matching the OVS switch
/// threads measured in the paper's Fig. 11d).
pub trait Actor<M, O = ()>: std::any::Any {
    /// Invoked once when the runtime starts.
    fn on_start(&mut self, _ctx: &mut dyn Host<M, O>) {}

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut dyn Host<M, O>, from: NodeId, msg: M);

    /// Invoked when a timer set with [`Host::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut dyn Host<M, O>, _token: TimerToken) {}
}

/// One thing a handler asked its runtime to do.
#[derive(Debug, PartialEq)]
pub enum Effect<M, O> {
    /// [`Host::send`] / [`Host::send_delayed`].
    Send {
        /// Destination.
        to: NodeId,
        /// The message.
        msg: M,
        /// Artificial delay on top of the link's (zero for a plain send).
        extra_delay: SimDuration,
    },
    /// [`Host::set_timer`].
    Timer {
        /// Delay from the end of the handler.
        delay: SimDuration,
        /// The token `on_timer` is called with.
        token: TimerToken,
    },
    /// [`Host::observe`].
    Observe(O),
}

/// The [`Host`]: one handler call's view of the world. `now` is read once,
/// before the handler runs, and does not move while it does; effects are
/// collected in call order and applied by the executor when the handler
/// returns (the simulator departs sends at CPU-completion time and applies
/// faults; the threaded executor stamps them with its clock).
pub struct Context<'a, M, O = ()> {
    now: SimTime,
    self_id: NodeId,
    rng: &'a mut StdRng,
    effects: Vec<Effect<M, O>>,
    pub(crate) cpu_charge: SimDuration,
}

impl<'a, M, O> Context<'a, M, O> {
    /// A context for one handler call of node `id` at time `now`.
    pub fn new(now: SimTime, id: NodeId, rng: &'a mut StdRng) -> Self {
        Context {
            now,
            self_id: id,
            rng,
            effects: Vec::new(),
            cpu_charge: SimDuration::ZERO,
        }
    }

    /// What the handler did, in call order.
    pub fn into_effects(self) -> Vec<Effect<M, O>> {
        self.effects
    }
}

impl<'a, M, O> Host<M, O> for Context<'a, M, O> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.self_id
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn send_delayed(&mut self, to: NodeId, msg: M, extra_delay: SimDuration) {
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_delay,
        });
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.effects.push(Effect::Timer { delay, token });
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        self.cpu_charge += d;
    }

    fn observe(&mut self, obs: O) {
        self.effects.push(Effect::Observe(obs));
    }
}
