//! Controller applications.
//!
//! Cicero "is designed as a separate layer to allow for any controller
//! application" (paper §5.1). The [`NetworkApp`] trait is that seam: an app
//! deterministically maps an ordered event to the network updates answering
//! it. Determinism matters — every replica runs the app independently on the
//! atomically-broadcast event stream, and switches only accept updates that
//! a quorum computed *identically*.

use netmodel::routing::{link_key, route_avoiding};
use netmodel::topology::Topology;
use southbound::types::{
    Event, EventKind, FlowAction, FlowMatch, FlowRule, NetworkUpdate, NextHop, SwitchId,
    UpdateId, UpdateKind,
};
use std::collections::{BTreeMap, BTreeSet};

/// A deterministic controller application.
pub trait NetworkApp: Send {
    /// Computes the updates answering `event`. The *order* of the returned
    /// vector is meaningful to schedulers (e.g. path order for routes).
    fn handle_event(&mut self, event: &Event, topo: &Topology) -> Vec<NetworkUpdate>;
}

/// Firewall policy consulted by routing apps (paper Fig. 1 scenario).
#[derive(Clone, Debug, Default)]
pub struct FirewallPolicy {
    denied: BTreeSet<FlowMatch>,
}

impl FirewallPolicy {
    /// Denies the `(src, dst)` pair.
    pub fn deny(&mut self, m: FlowMatch) -> &mut Self {
        self.denied.insert(m);
        self
    }

    /// Re-allows the pair.
    pub fn allow(&mut self, m: FlowMatch) -> &mut Self {
        self.denied.remove(&m);
        self
    }

    /// `true` iff the pair is denied.
    pub fn is_denied(&self, m: FlowMatch) -> bool {
        self.denied.contains(&m)
    }
}

/// Shortest-path routing with an optional firewall — the paper's evaluation
/// application ("establishes rules for flows based on shortest path
/// routing", §5.1).
///
/// For a `PacketIn(src → dst)` it emits one `Install` per switch on the
/// shortest path, **in path order** (ingress first); the reverse-path
/// scheduler then enforces downstream-first application. Denied flows get a
/// single `Deny` rule at the ingress ToR. `FlowTeardown` removes the path's
/// rules. `LinkFailure` triggers make-before-break repair of every installed
/// route that crossed the dead link (paper Fig. 2).
#[derive(Clone, Debug, Default)]
pub struct ShortestPathApp {
    /// Firewall policy applied to new routes.
    pub firewall: FirewallPolicy,
    /// Links reported failed (avoided by new and repaired routes).
    failed_links: BTreeSet<(SwitchId, SwitchId)>,
    /// Paths this app has installed, for failure-driven repair. All
    /// replicas process the same delivered event sequence, so this state is
    /// identical across the control plane.
    installed: BTreeMap<FlowMatch, Vec<SwitchId>>,
}

impl ShortestPathApp {
    /// App with no firewall restrictions.
    pub fn new() -> Self {
        ShortestPathApp::default()
    }

    /// Links currently considered failed.
    pub fn failed_links(&self) -> &BTreeSet<(SwitchId, SwitchId)> {
        &self.failed_links
    }

    /// The path currently installed for a flow, if any.
    pub fn installed_path(&self, m: FlowMatch) -> Option<&[SwitchId]> {
        self.installed.get(&m).map(Vec::as_slice)
    }

    fn route_updates(
        &mut self,
        event: &Event,
        topo: &Topology,
        m: FlowMatch,
        install: bool,
    ) -> Vec<NetworkUpdate> {
        let Some(r) = route_avoiding(topo, m.src, m.dst, &self.failed_links) else {
            return Vec::new();
        };
        let mut updates = Vec::with_capacity(r.path.len());
        let mut seq = 0u32;
        let mut push = |switch: SwitchId, kind: UpdateKind| {
            updates.push(NetworkUpdate {
                id: UpdateId {
                    event: event.id,
                    seq,
                },
                switch,
                kind,
            });
            seq += 1;
        };
        if self.firewall.is_denied(m) {
            if install {
                push(
                    r.path[0],
                    UpdateKind::Install(FlowRule {
                        matcher: m,
                        action: FlowAction::Deny,
                    }),
                );
            } else {
                push(r.path[0], UpdateKind::Remove(m));
            }
            return updates;
        }
        for (i, &sw) in r.path.iter().enumerate() {
            let kind = if install {
                let next = if i + 1 < r.path.len() {
                    NextHop::Switch(r.path[i + 1])
                } else {
                    NextHop::Host(m.dst)
                };
                UpdateKind::Install(FlowRule {
                    matcher: m,
                    action: FlowAction::Forward(next),
                })
            } else {
                UpdateKind::Remove(m)
            };
            push(sw, kind);
        }
        if install {
            self.installed.insert(m, r.path.clone());
        } else {
            self.installed.remove(&m);
        }
        updates
    }

    /// Repairs every installed route that crosses the failed link `a`–`b`:
    /// the replacement path is installed *first* (reverse-path scheduled,
    /// make-before-break — loop/black-hole freedom, paper Fig. 2), then
    /// rules on abandoned switches are removed.
    fn repair_after_link_failure(
        &mut self,
        event: &Event,
        topo: &Topology,
        a: SwitchId,
        b: SwitchId,
    ) -> Vec<NetworkUpdate> {
        self.failed_links.insert(link_key(a, b));
        let affected: Vec<(FlowMatch, Vec<SwitchId>)> = self
            .installed
            .iter()
            .filter(|(_, path)| {
                path.windows(2)
                    .any(|w| link_key(w[0], w[1]) == link_key(a, b))
            })
            .map(|(&m, p)| (m, p.clone()))
            .collect();
        let mut updates = Vec::new();
        let mut seq = 0u32;
        for (m, old_path) in affected {
            let Some(r) = route_avoiding(topo, m.src, m.dst, &self.failed_links) else {
                // No alternative route: leave the stale rules; traffic stays
                // parked at the ingress until the topology heals.
                continue;
            };
            // The reverse-path scheduler applies the *last* listed update
            // first. Listing [removals…, installs path-ordered…] therefore
            // applies: new path destination-first, ingress flip, and only
            // then the removals on abandoned switches — make-before-break.
            for &sw in old_path.iter().filter(|sw| !r.path.contains(sw)) {
                updates.push(NetworkUpdate {
                    id: UpdateId {
                        event: event.id,
                        seq,
                    },
                    switch: sw,
                    kind: UpdateKind::Remove(m),
                });
                seq += 1;
            }
            for (i, &sw) in r.path.iter().enumerate() {
                let next = if i + 1 < r.path.len() {
                    NextHop::Switch(r.path[i + 1])
                } else {
                    NextHop::Host(m.dst)
                };
                updates.push(NetworkUpdate {
                    id: UpdateId {
                        event: event.id,
                        seq,
                    },
                    switch: sw,
                    kind: UpdateKind::Install(FlowRule {
                        matcher: m,
                        action: FlowAction::Forward(next),
                    }),
                });
                seq += 1;
            }
            self.installed.insert(m, r.path);
        }
        updates
    }
}

impl NetworkApp for ShortestPathApp {
    fn handle_event(&mut self, event: &Event, topo: &Topology) -> Vec<NetworkUpdate> {
        match event.kind {
            EventKind::PacketIn { src, dst, .. } => {
                self.route_updates(event, topo, FlowMatch { src, dst }, true)
            }
            EventKind::FlowTeardown { src, dst, .. } => {
                self.route_updates(event, topo, FlowMatch { src, dst }, false)
            }
            EventKind::LinkFailure { a, b } => {
                self.repair_after_link_failure(event, topo, a, b)
            }
            // Policy changes are application-specific triggers; membership
            // events carry no data-plane updates.
            EventKind::PolicyChange { .. } | EventKind::MembershipChanged { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::topology::Topology;
    use southbound::types::{DomainId, EventId, FlowId};

    fn packet_in(topo: &Topology) -> (Event, FlowMatch) {
        let hosts = topo.hosts();
        let (src, dst) = (hosts[0].id, hosts.last().unwrap().id);
        (
            Event {
                id: EventId(1),
                kind: EventKind::PacketIn {
                    switch: hosts[0].attached,
                    flow: FlowId(1),
                    src,
                    dst,
                },
                origin: DomainId(0),
                forwarded: false,
            },
            FlowMatch { src, dst },
        )
    }

    #[test]
    fn installs_along_path_in_order() {
        let topo = Topology::single_pod(4, 2, 2);
        let (event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        let updates = app.handle_event(&event, &topo);
        assert_eq!(updates.len(), 3, "ToR -> edge -> ToR");
        // Sequence numbers are path-ordered and unique.
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.id.seq, i as u32);
            assert_eq!(u.id.event, event.id);
        }
        // The last hop delivers to the host.
        match updates.last().unwrap().kind {
            UpdateKind::Install(rule) => {
                assert_eq!(rule.matcher, m);
                assert_eq!(rule.action, FlowAction::Forward(NextHop::Host(m.dst)));
            }
            _ => panic!("expected install"),
        }
        // Middle hops forward to the next switch in the path.
        match (updates[0].kind, updates[1].switch) {
            (UpdateKind::Install(rule), next) => {
                assert_eq!(rule.action, FlowAction::Forward(NextHop::Switch(next)));
            }
            _ => panic!("expected install"),
        }
    }

    #[test]
    fn teardown_removes_same_path() {
        let topo = Topology::single_pod(4, 2, 2);
        let (mut event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        let installs = app.handle_event(&event, &topo);
        event.kind = EventKind::FlowTeardown {
            flow: FlowId(1),
            src: m.src,
            dst: m.dst,
        };
        let removes = app.handle_event(&event, &topo);
        assert_eq!(installs.len(), removes.len());
        for (i, r) in removes.iter().enumerate() {
            assert_eq!(r.switch, installs[i].switch);
            assert_eq!(r.kind, UpdateKind::Remove(m));
        }
    }

    #[test]
    fn firewall_denies_at_ingress() {
        let topo = Topology::single_pod(4, 2, 2);
        let (event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        app.firewall.deny(m);
        let updates = app.handle_event(&event, &topo);
        assert_eq!(updates.len(), 1, "single deny rule at ingress");
        match updates[0].kind {
            UpdateKind::Install(rule) => assert_eq!(rule.action, FlowAction::Deny),
            _ => panic!("expected deny install"),
        }
        // Allowing again restores routing.
        app.firewall.allow(m);
        assert_eq!(app.handle_event(&event, &topo).len(), 3);
    }

    #[test]
    fn link_failure_repairs_installed_routes() {
        let topo = Topology::single_pod(4, 2, 2);
        let (event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        let installs = app.handle_event(&event, &topo);
        assert_eq!(installs.len(), 3);
        let old_path = app.installed_path(m).unwrap().to_vec();
        // The ToR-edge link used by the route fails.
        let fail = Event {
            id: EventId(2),
            kind: EventKind::LinkFailure {
                a: old_path[0],
                b: old_path[1],
            },
            origin: DomainId(0),
            forwarded: false,
        };
        let repairs = app.handle_event(&fail, &topo);
        assert!(!repairs.is_empty(), "the route must be repaired");
        let new_path = app.installed_path(m).unwrap().to_vec();
        assert_ne!(new_path[1], old_path[1], "repair uses the other edge switch");
        // Removals listed before installs (make-before-break under the
        // reverse-path scheduler, which applies the list back-to-front).
        let first_install = repairs
            .iter()
            .position(|u| matches!(u.kind, UpdateKind::Install(_)))
            .unwrap();
        assert!(
            repairs[..first_install]
                .iter()
                .all(|u| matches!(u.kind, UpdateKind::Remove(_))),
            "removals precede installs in list order"
        );
        // The removal targets the abandoned edge switch.
        assert!(repairs
            .iter()
            .any(|u| u.switch == old_path[1] && matches!(u.kind, UpdateKind::Remove(_))));
    }

    #[test]
    fn unroutable_failures_leave_rules_in_place() {
        // Single-edge pod: failing the only uplink leaves no alternative.
        let topo = Topology::single_pod(2, 1, 2);
        let (event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        app.handle_event(&event, &topo);
        let path = app.installed_path(m).unwrap().to_vec();
        let fail = Event {
            id: EventId(2),
            kind: EventKind::LinkFailure {
                a: path[0],
                b: path[1],
            },
            origin: DomainId(0),
            forwarded: false,
        };
        let repairs = app.handle_event(&fail, &topo);
        assert!(repairs.is_empty(), "no alternative route exists");
        assert_eq!(app.installed_path(m).unwrap(), path.as_slice());
        assert_eq!(app.failed_links().len(), 1);
    }

    #[test]
    fn new_routes_avoid_known_failed_links() {
        let topo = Topology::single_pod(4, 2, 2);
        let (event, m) = packet_in(&topo);
        let mut app = ShortestPathApp::new();
        // Report a failure before any route exists.
        let edges: Vec<_> = topo
            .switches()
            .iter()
            .filter(|s| s.role == netmodel::topology::SwitchRole::Edge)
            .map(|s| s.id)
            .collect();
        let ingress = topo.host(m.src).unwrap().attached;
        let fail = Event {
            id: EventId(9),
            kind: EventKind::LinkFailure {
                a: ingress,
                b: edges[0],
            },
            origin: DomainId(0),
            forwarded: false,
        };
        app.handle_event(&fail, &topo);
        let updates = app.handle_event(&event, &topo);
        assert!(!updates.is_empty());
        let path = app.installed_path(m).unwrap();
        assert_ne!(path[1], edges[0], "fresh route avoids the dead link");
    }

    #[test]
    fn replicas_compute_identical_updates() {
        let topo = Topology::multi_pod(2, 4, 2, 2, 2);
        let (event, _) = packet_in(&topo);
        let a = ShortestPathApp::new().handle_event(&event, &topo);
        let b = ShortestPathApp::new().handle_event(&event, &topo);
        assert_eq!(a, b);
    }
}
