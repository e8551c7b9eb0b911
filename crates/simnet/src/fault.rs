//! Fault injection: message loss/duplication, link partitions (permanent or
//! time-bounded) and scheduled node crashes.
//!
//! Byzantine behaviour is *not* injected here — a Byzantine node is simply an
//! [`crate::node::Actor`] implementation that lies — but benign network and
//! crash faults are environmental and belong to the simulator.
//!
//! Determinism contract: severed-link checks are pure functions of the plan
//! and the departure time and never touch the RNG, so adding or healing a
//! partition in an existing plan does not perturb the seeded drop/duplicate
//! draw sequence of messages on unrelated links (`CHECK_SEED` replay
//! stability).

use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use substrate::rng::Rng as _;
use substrate::rng::StdRng;

/// A time-bounded partition of one directed link: messages departing in
/// `[from, until)` are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeverWindow {
    /// First instant at which the link is down.
    pub from: SimTime,
    /// The link heals at this instant (exclusive bound).
    pub until: SimTime,
}

impl SeverWindow {
    /// `true` iff the link is down at `at`.
    pub fn covers(&self, at: SimTime) -> bool {
        self.from <= at && at < self.until
    }
}

/// Declarative fault plan applied by the simulation engine.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any message is silently dropped.
    pub drop_probability: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub duplicate_probability: f64,
    /// Nodes that crash at a given time.
    pub crashes: Vec<(SimTime, NodeId)>,
    /// Ordered pairs that can never communicate (permanent partition).
    pub severed: BTreeSet<(NodeId, NodeId)>,
    /// Ordered pairs that cannot communicate during bounded windows
    /// (healing partitions).
    pub severed_windows: BTreeMap<(NodeId, NodeId), Vec<SeverWindow>>,
    /// Per-directed-link drop probabilities, overriding the uniform
    /// [`FaultPlan::drop_probability`] for that link.
    pub link_drop: BTreeMap<(NodeId, NodeId), f64>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Sets a uniform message-drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.drop_probability = p;
        self
    }

    /// Sets a uniform message-duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_duplicate_probability(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.duplicate_probability = p;
        self
    }

    /// Sets the drop probability of the `a`–`b` link (both directions),
    /// overriding the uniform probability there.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_link_drop_probability(mut self, a: NodeId, b: NodeId, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.link_drop.insert((a, b), p);
        self.link_drop.insert((b, a), p);
        self
    }

    /// Schedules `node` to crash at `at`.
    pub fn with_crash(mut self, at: SimTime, node: NodeId) -> Self {
        self.crashes.push((at, node));
        self
    }

    /// Severs the link between `a` and `b` in both directions, permanently.
    pub fn with_severed_link(mut self, a: NodeId, b: NodeId) -> Self {
        self.severed.insert((a, b));
        self.severed.insert((b, a));
        self
    }

    /// Severs the link between `a` and `b` in both directions for the
    /// half-open window `[from, until)` — a partition that heals.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn with_severed_window(
        mut self,
        a: NodeId,
        b: NodeId,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(from < until, "sever window must be non-empty");
        let w = SeverWindow { from, until };
        self.severed_windows.entry((a, b)).or_default().push(w);
        self.severed_windows.entry((b, a)).or_default().push(w);
        self
    }

    /// `true` iff the directed link `from → to` is severed at `at`.
    pub fn is_severed(&self, from: NodeId, to: NodeId, at: SimTime) -> bool {
        if self.severed.contains(&(from, to)) {
            return true;
        }
        self.severed_windows
            .get(&(from, to))
            .is_some_and(|ws| ws.iter().any(|w| w.covers(at)))
    }

    pub(crate) fn should_drop(
        &self,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        rng: &mut StdRng,
    ) -> bool {
        // Severed checks short-circuit before any RNG draw in every branch:
        // partitions must never consume (or skip) a draw that probabilistic
        // loss on other links depends on.
        if self.is_severed(from, to, at) {
            return true;
        }
        let p = self
            .link_drop
            .get(&(from, to))
            .copied()
            .unwrap_or(self.drop_probability);
        p > 0.0 && rng.random::<f64>() < p
    }

    pub(crate) fn should_duplicate(&self, rng: &mut StdRng) -> bool {
        self.duplicate_probability > 0.0 && rng.random::<f64>() < self.duplicate_probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::rng::SeedableRng;

    #[test]
    fn severed_links_always_drop() {
        let plan = FaultPlan::none().with_severed_link(NodeId(1), NodeId(2));
        let mut rng = StdRng::seed_from_u64(0);
        assert!(plan.should_drop(NodeId(1), NodeId(2), SimTime::ZERO, &mut rng));
        assert!(plan.should_drop(NodeId(2), NodeId(1), SimTime::ZERO, &mut rng));
        assert!(!plan.should_drop(NodeId(1), NodeId(3), SimTime::ZERO, &mut rng));
    }

    #[test]
    fn drop_probability_is_roughly_respected() {
        let plan = FaultPlan::none().with_drop_probability(0.25);
        let mut rng = StdRng::seed_from_u64(7);
        let dropped = (0..10_000)
            .filter(|_| plan.should_drop(NodeId(1), NodeId(2), SimTime::ZERO, &mut rng))
            .count();
        assert!((2000..3000).contains(&dropped), "dropped = {dropped}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_panics() {
        let _ = FaultPlan::none().with_drop_probability(1.5);
    }

    #[test]
    fn severed_window_heals() {
        let plan = FaultPlan::none().with_severed_window(
            NodeId(1),
            NodeId(2),
            SimTime::from_nanos(100),
            SimTime::from_nanos(200),
        );
        let mut rng = StdRng::seed_from_u64(1);
        // Before the window: delivered.
        assert!(!plan.should_drop(NodeId(1), NodeId(2), SimTime::from_nanos(50), &mut rng));
        // Inside the window, both directions: dropped.
        assert!(plan.should_drop(NodeId(1), NodeId(2), SimTime::from_nanos(100), &mut rng));
        assert!(plan.should_drop(NodeId(2), NodeId(1), SimTime::from_nanos(199), &mut rng));
        // Healed (the bound is exclusive): delivered.
        assert!(!plan.should_drop(NodeId(1), NodeId(2), SimTime::from_nanos(200), &mut rng));
    }

    #[test]
    fn per_link_probability_overrides_uniform() {
        let plan = FaultPlan::none()
            .with_drop_probability(0.0)
            .with_link_drop_probability(NodeId(1), NodeId(2), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(plan.should_drop(NodeId(1), NodeId(2), SimTime::ZERO, &mut rng));
        assert!(plan.should_drop(NodeId(2), NodeId(1), SimTime::ZERO, &mut rng));
        assert!(!plan.should_drop(NodeId(1), NodeId(3), SimTime::ZERO, &mut rng));
    }

    #[test]
    fn severed_checks_never_consume_rng_draws() {
        // Two plans differing only by a partition on an unrelated link must
        // produce the identical drop sequence for other links (seed-replay
        // stability when partitions are added to an existing plan).
        let base = FaultPlan::none().with_drop_probability(0.5);
        let with_partition = FaultPlan::none()
            .with_drop_probability(0.5)
            .with_severed_link(NodeId(8), NodeId(9))
            .with_severed_window(
                NodeId(8),
                NodeId(7),
                SimTime::ZERO,
                SimTime::from_nanos(1_000),
            );
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        for i in 0..1_000 {
            let at = SimTime::from_nanos(i);
            // Interleave severed-link queries on plan B only; they must not
            // advance its RNG.
            assert!(with_partition.should_drop(NodeId(8), NodeId(9), at, &mut rng_b));
            let a = base.should_drop(NodeId(1), NodeId(2), at, &mut rng_a);
            let b = with_partition.should_drop(NodeId(1), NodeId(2), at, &mut rng_b);
            assert_eq!(a, b, "draw sequence diverged at message {i}");
        }
    }
}
