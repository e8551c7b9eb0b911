//! # cicero-core — the Cicero protocol engine
//!
//! This crate implements the paper's contribution proper: **consistent and
//! secure network updates** over the simulated substrate crates.
//!
//! * [`config`] — the four evaluated protocol modes (centralized,
//!   crash-tolerant, Cicero with switch or controller aggregation), the
//!   crypto execution mode and the calibrated cost model;
//! * [`msg`] — the protocol message alphabet and the consensus payload;
//! * [`auth`] — the authentication seam: the one place deciding whether a
//!   message carries a real signature, a placeholder or none, for every
//!   sign and verify site of both actors;
//! * [`collector`] — the one optimistic aggregate → verify → evict quorum
//!   collector the switch, the cross-domain handshake and the aggregator
//!   share;
//! * [`switch`] — the switch runtime (paper Fig. 6): table misses raise
//!   tagged events; each update arrives with its controllers' shares of
//!   its domain-event's update set, checked against the set, buffered until
//!   a quorum of identical ones, aggregated, verified against the group
//!   public key, applied and acknowledged;
//! * [`ctrl`] — the controller runtime (paper Figs. 7–8): PBFT-ordered
//!   events, deterministic app + scheduler, dependency-driven parallel
//!   update release, cross-domain forwarding, the aggregator role, and
//!   membership changes with public-key-preserving share redistribution;
//! * [`engine`] — builds a full deployment on the simulator and injects
//!   workloads;
//! * [`experiment`] — one driver per evaluation figure;
//! * [`obs`] — observations and metric reductions (CDFs, per-domain event
//!   counts, CPU series).
//!
//! ```no_run
//! use cicero_core::prelude::*;
//! use netmodel::topology::Topology;
//! use controller::policy::DomainMap;
//!
//! let cfg = EngineConfig::for_mode(Mode::Cicero { aggregation: Aggregation::Switch });
//! let topo = Topology::single_pod(8, 4, 4);
//! let dm = DomainMap::single(&topo);
//! let mut engine = Engine::build(cfg, topo, dm, 0);
//! engine.run(SimTime::from_nanos(u64::MAX));
//! ```

#![forbid(unsafe_code)]


pub mod audit;
pub mod auth;
pub mod collector;
pub mod config;
pub mod ctrl;
pub mod deploy;
pub mod engine;
pub mod experiment;
pub mod msg;
pub mod obs;
pub mod runtime;
pub mod switch;

/// Commonly used items.
pub mod prelude {
    pub use crate::audit::{audit_flow, Hazard, ReplayState, WalkOutcome};
    pub use crate::config::{Aggregation, CostModel, CryptoMode, EngineConfig, Mode};
    pub use crate::ctrl::ControllerActor;
    pub use crate::deploy::{Deployment, Life, NodeRole, Outstanding, Progress};
    pub use crate::engine::{default_pod_engine, Engine, RunReport};
    pub use crate::experiment::{
        fig11_flow_completion, fig12a_update_time, fig12b_event_locality, fig12c_runs, fig12d_runs,
        flow_setup_latency_ms, flow_setup_latency_with, run_flow_completion,
        segway_vs_cicero_md, FlowRun, ALL_MODES,
    };
    pub use crate::msg::{AckBody, Net, OrderedOp, PhaseInfo};
    pub use crate::obs::{
        check_event_linearizability, delivery_sequences, events_per_domain, flow_latencies,
        resolved_flows, retransmit_stats, unique_events, Cdf, Obs, RetransmitStats,
    };
    pub use crate::runtime::{bootstrap_keys, Directory, KeyMaterial, Shared};
    pub use crate::switch::SwitchActor;
    pub use simnet::time::{SimDuration, SimTime};
}

pub use prelude::*;
