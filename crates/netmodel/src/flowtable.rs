//! The switch flow table: exact-match rules with hit/miss counters.

use southbound::types::{FlowAction, FlowMatch, FlowRule, NetworkUpdate, UpdateKind};
use std::collections::BTreeMap;

/// A switch's forwarding state.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    rules: BTreeMap<FlowMatch, FlowAction>,
    hits: u64,
    misses: u64,
}

/// Result of a lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// A rule matched; act on it.
    Action(FlowAction),
    /// No rule — the switch must raise a `PacketIn` event (table miss).
    Miss,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` iff no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Looks up the action for a packet of flow `m`, counting hits/misses.
    pub fn lookup(&mut self, m: FlowMatch) -> Lookup {
        match self.rules.get(&m) {
            Some(&a) => {
                self.hits += 1;
                Lookup::Action(a)
            }
            None => {
                self.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Read-only rule query (no counter side effects).
    pub fn rule(&self, m: FlowMatch) -> Option<FlowAction> {
        self.rules.get(&m).copied()
    }

    /// Installs a rule, returning the previous action if replaced.
    pub fn install(&mut self, rule: FlowRule) -> Option<FlowAction> {
        self.rules.insert(rule.matcher, rule.action)
    }

    /// Removes the rule matching `m`, returning it if present.
    pub fn remove(&mut self, m: FlowMatch) -> Option<FlowAction> {
        self.rules.remove(&m)
    }

    /// Applies a validated network update.
    pub fn apply(&mut self, update: &NetworkUpdate) {
        match update.kind {
            UpdateKind::Install(rule) => {
                self.install(rule);
            }
            UpdateKind::Remove(m) => {
                self.remove(m);
            }
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Iterates over installed `(match, action)` pairs (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowMatch, &FlowAction)> {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::types::{EventId, HostId, NextHop, SwitchId, UpdateId};

    fn m(src: u32, dst: u32) -> FlowMatch {
        FlowMatch {
            src: HostId(src),
            dst: HostId(dst),
        }
    }

    fn fwd(src: u32, dst: u32, next: u32) -> FlowRule {
        FlowRule {
            matcher: m(src, dst),
            action: FlowAction::Forward(NextHop::Switch(SwitchId(next))),
        }
    }

    #[test]
    fn install_lookup_remove() {
        let mut t = FlowTable::new();
        assert_eq!(t.lookup(m(1, 2)), Lookup::Miss);
        t.install(fwd(1, 2, 9));
        assert_eq!(
            t.lookup(m(1, 2)),
            Lookup::Action(FlowAction::Forward(NextHop::Switch(SwitchId(9))))
        );
        assert_eq!(t.stats(), (1, 1));
        assert!(t.remove(m(1, 2)).is_some());
        assert_eq!(t.lookup(m(1, 2)), Lookup::Miss);
        assert!(t.is_empty());
    }

    #[test]
    fn install_replaces() {
        let mut t = FlowTable::new();
        t.install(fwd(1, 2, 9));
        let prev = t.install(fwd(1, 2, 10));
        assert_eq!(prev, Some(FlowAction::Forward(NextHop::Switch(SwitchId(9)))));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn apply_updates() {
        let mut t = FlowTable::new();
        let id = UpdateId {
            event: EventId(1),
            seq: 0,
        };
        t.apply(&NetworkUpdate {
            id,
            switch: SwitchId(1),
            kind: UpdateKind::Install(fwd(1, 2, 3)),
        });
        assert_eq!(t.len(), 1);
        t.apply(&NetworkUpdate {
            id,
            switch: SwitchId(1),
            kind: UpdateKind::Remove(m(1, 2)),
        });
        assert!(t.is_empty());
    }

    #[test]
    fn deny_rules() {
        let mut t = FlowTable::new();
        t.install(FlowRule {
            matcher: m(4, 5),
            action: FlowAction::Deny,
        });
        assert_eq!(t.lookup(m(4, 5)), Lookup::Action(FlowAction::Deny));
    }
}
