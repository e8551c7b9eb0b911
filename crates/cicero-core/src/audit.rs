//! Consistency auditing: replaying the sequence of applied updates and
//! checking, after every step, that no *transient* data-plane hazard exists
//! (the problems of paper Table 1 / Figs. 1–3).
//!
//! A hazard is judged from the perspective of a packet entering at the
//! ingress switch the moment the intermediate state is live:
//!
//! * **black hole** — the ingress forwards, but some switch along the walk
//!   has no rule (Fig. 2's packet loss);
//! * **loop** — the walk revisits a switch (Fig. 2's unintended loop);
//! * **policy violation** — the walk delivers a flow the firewall policy
//!   denies (Fig. 1's broken firewall);
//! * **misdelivery** — the walk delivers to the wrong host.
//!
//! Congestion hazards (Fig. 3) are checked separately with
//! [`netmodel::linkload::LinkLoad`] over the same replay.

use crate::obs::Obs;
use simnet::sim::Observation;
use southbound::types::{
    FlowAction, FlowMatch, HostId, NextHop, SwitchId, UpdateKind,
};
use std::collections::BTreeMap;

/// Outcome of walking one flow through a (possibly partial) rule state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalkOutcome {
    /// The ingress has no rule: the packet is buffered/raised, not lost.
    NotForwarded,
    /// Delivered to this host.
    Delivered(HostId),
    /// Dropped by an explicit deny rule.
    Denied,
    /// A downstream switch had no rule — transient black hole.
    BlackHole(SwitchId),
    /// The walk revisited a switch — transient loop.
    Loop(SwitchId),
}

/// A replayed data-plane state.
#[derive(Clone, Debug, Default)]
pub struct ReplayState {
    rules: BTreeMap<(SwitchId, FlowMatch), FlowAction>,
}

impl ReplayState {
    /// Empty state.
    pub fn new() -> Self {
        ReplayState::default()
    }

    /// Applies one update.
    pub fn apply(&mut self, switch: SwitchId, kind: UpdateKind) {
        match kind {
            UpdateKind::Install(rule) => {
                self.rules.insert((switch, rule.matcher), rule.action);
            }
            UpdateKind::Remove(m) => {
                self.rules.remove(&(switch, m));
            }
        }
    }

    /// The rule for `m` at `switch`, if any.
    pub fn rule(&self, switch: SwitchId, m: FlowMatch) -> Option<FlowAction> {
        self.rules.get(&(switch, m)).copied()
    }

    /// Walks flow `m` starting at `ingress`.
    pub fn walk(&self, ingress: SwitchId, m: FlowMatch) -> WalkOutcome {
        self.walk_path(ingress, m).0
    }

    /// [`walk`](Self::walk), with the switches the walk visited, ingress
    /// first: a delivered walk's path.
    pub fn walk_path(&self, ingress: SwitchId, m: FlowMatch) -> (WalkOutcome, Vec<SwitchId>) {
        let mut path = Vec::new();
        let mut cur = ingress;
        let outcome = loop {
            if path.contains(&cur) {
                break WalkOutcome::Loop(cur);
            }
            path.push(cur);
            match self.rule(cur, m) {
                None if cur == ingress => break WalkOutcome::NotForwarded,
                None => break WalkOutcome::BlackHole(cur),
                Some(FlowAction::Deny) => break WalkOutcome::Denied,
                Some(FlowAction::Forward(NextHop::Host(h))) => break WalkOutcome::Delivered(h),
                Some(FlowAction::Forward(NextHop::Switch(s))) => cur = s,
            }
        };
        (outcome, path)
    }
}

/// A transient hazard found during replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hazard {
    /// The replay step (index into the applied-update sequence) after which
    /// the hazard state was live.
    pub step: usize,
    /// The offending walk outcome.
    pub outcome: WalkOutcome,
}

/// Replays every applied update from an observation stream and audits the
/// intermediate states for the flow `m` entering at `ingress`.
///
/// `denied` marks flows the firewall policy forbids: delivering one is a
/// policy-violation hazard, denying/buffering it is fine.
pub fn audit_flow(
    observations: &[Observation<Obs>],
    ingress: SwitchId,
    m: FlowMatch,
    denied: bool,
) -> Vec<Hazard> {
    let mut state = ReplayState::new();
    let mut hazards = Vec::new();
    for (step, obs) in observations.iter().enumerate() {
        let Obs::UpdateApplied { switch, kind, .. } = obs.value else {
            continue;
        };
        state.apply(switch, kind);
        match state.walk(ingress, m) {
            // An allowed flow transiently denied is buffered, not lost.
            WalkOutcome::NotForwarded | WalkOutcome::Denied => {}
            WalkOutcome::Delivered(h) if !denied && h == m.dst => {}
            outcome => hazards.push(Hazard { step, outcome }),
        }
    }
    hazards
}

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::types::FlowRule;

    fn m() -> FlowMatch {
        FlowMatch {
            src: HostId(1),
            dst: HostId(2),
        }
    }

    fn fwd(next: NextHop) -> UpdateKind {
        UpdateKind::Install(FlowRule {
            matcher: m(),
            action: FlowAction::Forward(next),
        })
    }

    #[test]
    fn walk_detects_black_hole_and_recovery() {
        let mut state = ReplayState::new();
        // Ingress rule first (the hazard-prone order).
        state.apply(SwitchId(1), fwd(NextHop::Switch(SwitchId(2))));
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::BlackHole(SwitchId(2)));
        state.apply(SwitchId(2), fwd(NextHop::Host(HostId(2))));
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::Delivered(HostId(2)));
        let delivered = (WalkOutcome::Delivered(HostId(2)), vec![SwitchId(1), SwitchId(2)]);
        assert_eq!(state.walk_path(SwitchId(1), m()), delivered);
    }

    #[test]
    fn walk_detects_loop() {
        let mut state = ReplayState::new();
        state.apply(SwitchId(1), fwd(NextHop::Switch(SwitchId(2))));
        state.apply(SwitchId(2), fwd(NextHop::Switch(SwitchId(1))));
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::Loop(SwitchId(1)));
    }

    #[test]
    fn walk_respects_deny() {
        let mut state = ReplayState::new();
        state.apply(
            SwitchId(1),
            UpdateKind::Install(FlowRule {
                matcher: m(),
                action: FlowAction::Deny,
            }),
        );
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::Denied);
    }

    #[test]
    fn not_forwarded_when_no_ingress_rule() {
        let state = ReplayState::new();
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::NotForwarded);
    }

    #[test]
    fn removal_reopens_black_hole() {
        let mut state = ReplayState::new();
        state.apply(SwitchId(1), fwd(NextHop::Switch(SwitchId(2))));
        state.apply(SwitchId(2), fwd(NextHop::Host(HostId(2))));
        state.apply(SwitchId(2), UpdateKind::Remove(m()));
        assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::BlackHole(SwitchId(2)));
    }
}
