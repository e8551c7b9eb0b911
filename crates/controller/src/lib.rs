//! # controller — Cicero's control-plane logic
//!
//! The pure (network-free) building blocks of the controller runtime,
//! mirroring the component list of paper §5.1:
//!
//! * [`app`] — the pluggable controller application
//!   ([`app::NetworkApp`]); shortest-path routing with firewall policies is
//!   the evaluation app;
//! * [`scheduler`] — pluggable update schedulers computing dependency sets
//!   (reverse-path, Dionysus-style dependency graph, and an unordered
//!   hazard baseline);
//! * [`pending`] — dependency-driven parallel update release, drained by
//!   verified switch acknowledgements;
//! * [`policy`] — update domains and the static global domain policy that
//!   routes events to affected domains;
//! * [`membership`] — the dynamic control-plane view: phases, bootstrap
//!   controller, never-reused identifiers, Byzantine quorum sizing;
//! * [`failure`] — the heartbeat failure detector.
//!
//! The message-driven runtime that wires these to the (simulated) network
//! lives in `cicero-core`; keeping this layer sans-io makes each policy
//! decision unit-testable.

// A protocol hot path: a panic here states its invariant (`expect("…")`,
// checked by scripts/verify.sh).
#![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

pub mod app;
pub mod failure;
pub mod membership;
pub mod pending;
pub mod policy;
pub mod scheduler;

/// Commonly used items.
pub mod prelude {
    pub use crate::app::{FirewallPolicy, NetworkApp, ShortestPathApp};
    pub use crate::failure::HeartbeatDetector;
    pub use crate::membership::{ControlPlaneView, MembershipError};
    pub use crate::pending::PendingUpdates;
    pub use crate::policy::{DomainMap, GlobalDomainPolicy};
    pub use crate::scheduler::{
        is_acyclic, DependencyGraphScheduler, ReversePathScheduler, ScheduledUpdate,
        UnorderedScheduler, UpdateScheduler,
    };
}

pub use prelude::*;
