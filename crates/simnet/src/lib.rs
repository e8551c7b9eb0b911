//! # simnet — a deterministic discrete-event network simulator
//!
//! The Cicero reproduction measures *protocol-induced latency* (messaging
//! rounds plus cryptographic processing). This crate provides the substrate
//! that the paper obtained from a DeterLab testbed: simulated nodes
//! ([`node::Actor`]s) exchanging messages over links with configurable
//! latency ([`latency::LatencyModel`]), with explicit per-node CPU accounting
//! ([`metrics::CpuMeter`], used for the switch-utilization figure) and
//! benign fault injection ([`fault::FaultPlan`]).
//!
//! Determinism: same actors + same seed ⇒ identical event order and
//! observations. All time is simulated ([`time::SimTime`]); wall-clock speed
//! of the host never affects results.
//!
//! ```
//! use simnet::prelude::*;
//!
//! struct Counter(u32);
//! impl Actor<(), u32> for Counter {
//!     fn on_message(&mut self, ctx: &mut dyn Host<(), u32>, _from: NodeId, _msg: ()) {
//!         self.0 += 1;
//!         ctx.observe(self.0);
//!     }
//! }
//!
//! let mut sim = Simulation::new(0, UniformLatency(SimDuration::from_micros(5)));
//! let n = sim.add_node(Counter(0));
//! sim.inject(SimTime::ZERO, n, ());
//! sim.inject(SimTime::ZERO, n, ());
//! sim.run();
//! assert_eq!(sim.observations().last().unwrap().value, 2);
//! ```

#![forbid(unsafe_code)]


pub mod fault;
pub mod latency;
pub mod metrics;
pub mod node;
pub mod sim;
pub mod time;

/// Commonly used items.
pub mod prelude {
    pub use crate::fault::FaultPlan;
    pub use crate::latency::{LatencyModel, UniformLatency};
    pub use crate::node::{Actor, Context, Effect, Host, NodeId, TimerToken};
    pub use crate::sim::{Observation, Simulation, ENVIRONMENT};
    pub use crate::time::{SimDuration, SimTime};
}

pub use prelude::*;
