//! Update schedulers: computing *dependencies* between the updates of one
//! event (paper §3.1).
//!
//! A schedule is a set of `(u, D)` pairs — update `u` may only be sent once
//! every update in `D` has been acknowledged. Cicero treats the scheduler as
//! a pluggable module ("we assume the existence of a basic update scheduler
//! implemented using any of these approaches"); three are provided:
//!
//! * [`ReversePathScheduler`] — the paper's evaluation scheduler: rules are
//!   installed from the destination backwards so downstream rules always
//!   exist before traffic can reach them (loop/black-hole freedom);
//! * [`DependencyGraphScheduler`] — a Dionysus-style scheduler that accepts
//!   an arbitrary dependency DAG, shown here computing the same
//!   reverse-path constraints plus removal-before-install ordering;
//! * [`UnorderedScheduler`] — no constraints; used by tests and examples to
//!   demonstrate the transient inconsistencies of Figs. 1–3.

use southbound::types::{DomainId, NetworkUpdate, SwitchId, UpdateId, UpdateKind};
use std::collections::{BTreeMap, BTreeSet};

/// One scheduled update with its dependency set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledUpdate {
    /// The update.
    pub update: NetworkUpdate,
    /// Updates that must be acknowledged before this one may be sent.
    pub deps: BTreeSet<UpdateId>,
}

/// Computes dependencies for the (ordered) updates answering one event.
pub trait UpdateScheduler: Send {
    /// Builds the schedule. `updates` is in application order (path order
    /// for routing apps).
    fn schedule(&self, updates: &[NetworkUpdate]) -> Vec<ScheduledUpdate>;
}

/// No ordering constraints — updates race (the hazard baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct UnorderedScheduler;

impl UpdateScheduler for UnorderedScheduler {
    fn schedule(&self, updates: &[NetworkUpdate]) -> Vec<ScheduledUpdate> {
        updates
            .iter()
            .map(|&update| ScheduledUpdate {
                update,
                deps: BTreeSet::new(),
            })
            .collect()
    }
}

/// The paper's reverse-path scheduler: "dependencies for these updates such
/// that all updates are applied to s3 before any updates to s2, and all
/// updates to s2 before any to s1" (§5.1). Each update depends on its
/// immediate successor in path order, so installation proceeds from the
/// last switch backwards.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReversePathScheduler;

impl UpdateScheduler for ReversePathScheduler {
    fn schedule(&self, updates: &[NetworkUpdate]) -> Vec<ScheduledUpdate> {
        updates
            .iter()
            .enumerate()
            .map(|(i, &update)| {
                let mut deps = BTreeSet::new();
                if i + 1 < updates.len() {
                    deps.insert(updates[i + 1].id);
                }
                ScheduledUpdate { update, deps }
            })
            .collect()
    }
}

/// A Dionysus-style dependency-graph scheduler: callers may inject extra
/// edges; by default it reproduces the reverse-path chain for installs and
/// additionally orders *removals before installs on the same switch* (rule
/// replacement without transient conflicts).
#[derive(Clone, Debug, Default)]
pub struct DependencyGraphScheduler {
    extra_edges: Vec<(UpdateId, UpdateId)>,
}

impl DependencyGraphScheduler {
    /// No extra constraints.
    pub fn new() -> Self {
        DependencyGraphScheduler::default()
    }

    /// Adds a constraint: `before` must be acknowledged before `after` is
    /// sent.
    pub fn add_edge(&mut self, before: UpdateId, after: UpdateId) -> &mut Self {
        self.extra_edges.push((before, after));
        self
    }
}

impl UpdateScheduler for DependencyGraphScheduler {
    fn schedule(&self, updates: &[NetworkUpdate]) -> Vec<ScheduledUpdate> {
        let ids: BTreeSet<UpdateId> = updates.iter().map(|u| u.id).collect();
        let mut deps: BTreeMap<UpdateId, BTreeSet<UpdateId>> = updates
            .iter()
            .map(|u| (u.id, BTreeSet::new()))
            .collect();
        // Reverse-path chain over installs.
        let installs: Vec<&NetworkUpdate> = updates
            .iter()
            .filter(|u| matches!(u.kind, UpdateKind::Install(_)))
            .collect();
        for pair in installs.windows(2) {
            deps.get_mut(&pair[0].id)
                .expect("present")
                .insert(pair[1].id);
        }
        // Removals on a switch precede installs on the same switch.
        for r in updates.iter().filter(|u| matches!(u.kind, UpdateKind::Remove(_))) {
            for i in updates
                .iter()
                .filter(|u| u.switch == r.switch && matches!(u.kind, UpdateKind::Install(_)))
            {
                deps.get_mut(&i.id).expect("present").insert(r.id);
            }
        }
        for (before, after) in &self.extra_edges {
            if ids.contains(before) && ids.contains(after) {
                deps.get_mut(after).expect("present").insert(*before);
            }
        }
        updates
            .iter()
            .map(|&update| ScheduledUpdate {
                deps: deps[&update.id].clone(),
                update,
            })
            .collect()
    }
}

/// A prerequisite owned by another domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForeignDep {
    /// The prerequisite update.
    pub update: UpdateId,
    /// The switch that applies it.
    pub switch: SwitchId,
    /// Its segment (see [`Projected::segment`]).
    pub segment: u32,
    /// The domain owning that segment.
    pub domain: DomainId,
}

/// One update of a domain, with every edge of the full schedule that
/// touches it — what the domain's controllers need to order the update,
/// whoever ends up enforcing the order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Projected {
    /// The update.
    pub update: NetworkUpdate,
    /// Index of the update's *segment*: the maximal run of consecutive
    /// same-domain updates of the list it lies in, counted in list order.
    /// Cross-domain ordering works at segment granularity — a dependency
    /// into a foreign segment is satisfied by its owning domain confirming
    /// the whole segment applied, not by the individual ack (which the
    /// depending domain never sees). A path re-entering a domain opens a
    /// *new* segment, or the revisit would deadlock on its own earlier one.
    pub segment: u32,
    /// Prerequisites in the own domain, `(update, its switch)`, ascending.
    pub local: Vec<(UpdateId, SwitchId)>,
    /// Prerequisites in other domains, ascending by update.
    pub foreign: Vec<ForeignDep>,
    /// Switches holding an update that waits on this one, ascending.
    pub notify: Vec<SwitchId>,
    /// Other domains holding an update that waits on this one, ascending.
    pub upstream: Vec<DomainId>,
}

/// Projects the schedule of one event's *full* update list onto
/// `own_domain`. Pure: every controller of every domain computes the same
/// full schedule, so the projections of all domains partition its edges —
/// an edge inside a domain is a `local` dep there; an edge across two is a
/// `foreign` dep on the depending side and a `notify` / `upstream` entry on
/// the other. Updates on switches `domain_of` cannot place are skipped,
/// with their edges (they can never be released anywhere).
pub fn project(
    full: &[ScheduledUpdate],
    domain_of: impl Fn(SwitchId) -> Option<DomainId>,
    own_domain: DomainId,
) -> Vec<Projected> {
    // Where each placeable update lives: (switch, segment, domain).
    let mut place: BTreeMap<UpdateId, (SwitchId, u32, DomainId)> = BTreeMap::new();
    let mut last: Option<(u32, DomainId)> = None;
    for s in full {
        let Some(domain) = domain_of(s.update.switch) else {
            continue;
        };
        let segment = match last {
            Some((k, d)) if d == domain => k,
            Some((k, _)) => k + 1,
            None => 0,
        };
        last = Some((segment, domain));
        place.insert(s.update.id, (s.update.switch, segment, domain));
    }
    let mut out = Vec::new();
    for s in full {
        let Some(&(_, segment, domain)) = place.get(&s.update.id) else {
            continue;
        };
        if domain != own_domain {
            continue;
        }
        let mut p = Projected {
            update: s.update,
            segment,
            local: Vec::new(),
            foreign: Vec::new(),
            notify: Vec::new(),
            upstream: Vec::new(),
        };
        for &update in &s.deps {
            match place.get(&update) {
                Some(&(switch, _, d)) if d == own_domain => p.local.push((update, switch)),
                Some(&(switch, segment, domain)) => p.foreign.push(ForeignDep {
                    update,
                    switch,
                    segment,
                    domain,
                }),
                None => {}
            }
        }
        for v in full.iter().filter(|v| v.deps.contains(&s.update.id)) {
            if let Some(&(switch, _, d)) = place.get(&v.update.id) {
                p.notify.push(switch);
                if d != own_domain {
                    p.upstream.push(d);
                }
            }
        }
        p.notify.sort();
        p.notify.dedup();
        p.upstream.sort();
        p.upstream.dedup();
        out.push(p);
    }
    out
}

/// Validates that a schedule is acyclic (a cyclic schedule would deadlock
/// the pending-update release).
pub fn is_acyclic(schedule: &[ScheduledUpdate]) -> bool {
    let mut remaining: BTreeMap<UpdateId, BTreeSet<UpdateId>> = schedule
        .iter()
        .map(|s| (s.update.id, s.deps.clone()))
        .collect();
    loop {
        let ready: Vec<UpdateId> = remaining
            .iter()
            .filter(|(_, d)| d.iter().all(|id| !remaining.contains_key(id)))
            .map(|(&id, _)| id)
            .collect();
        if ready.is_empty() {
            return remaining.is_empty();
        }
        for id in ready {
            remaining.remove(&id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use southbound::types::{EventId, FlowAction, FlowMatch, FlowRule, HostId, NextHop};

    fn updates(n: u32) -> Vec<NetworkUpdate> {
        (0..n)
            .map(|i| NetworkUpdate {
                id: UpdateId {
                    event: EventId(1),
                    seq: i,
                },
                switch: SwitchId(i),
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(0),
                        dst: HostId(9),
                    },
                    action: FlowAction::Forward(NextHop::Switch(SwitchId(i + 1))),
                }),
            })
            .collect()
    }

    #[test]
    fn reverse_path_chains_dependencies() {
        let us = updates(3);
        let sched = ReversePathScheduler.schedule(&us);
        assert!(sched[0].deps.contains(&us[1].id));
        assert!(sched[1].deps.contains(&us[2].id));
        assert!(sched[2].deps.is_empty(), "last hop has no deps");
        assert!(is_acyclic(&sched));
    }

    #[test]
    fn unordered_has_no_deps() {
        let us = updates(4);
        let sched = UnorderedScheduler.schedule(&us);
        assert!(sched.iter().all(|s| s.deps.is_empty()));
    }

    #[test]
    fn dependency_graph_orders_removals_first() {
        let mut us = updates(2);
        us.push(NetworkUpdate {
            id: UpdateId {
                event: EventId(1),
                seq: 99,
            },
            switch: SwitchId(0),
            kind: UpdateKind::Remove(FlowMatch {
                src: HostId(0),
                dst: HostId(8),
            }),
        });
        let sched = DependencyGraphScheduler::new().schedule(&us);
        let install_s0 = sched.iter().find(|s| s.update.id.seq == 0).unwrap();
        assert!(
            install_s0.deps.contains(&us[2].id),
            "install on s0 waits for removal on s0"
        );
        assert!(is_acyclic(&sched));
    }

    #[test]
    fn extra_edges_are_respected_and_unknown_ids_ignored() {
        let us = updates(3);
        let mut g = DependencyGraphScheduler::new();
        g.add_edge(us[0].id, us[2].id);
        g.add_edge(
            UpdateId {
                event: EventId(77),
                seq: 0,
            },
            us[1].id,
        );
        let sched = g.schedule(&us);
        let last = sched.iter().find(|s| s.update.id.seq == 2).unwrap();
        assert!(last.deps.contains(&us[0].id));
        let mid = sched.iter().find(|s| s.update.id.seq == 1).unwrap();
        assert_eq!(mid.deps.len(), 1, "foreign edge ignored");
        // That cycle (0 -> 2 via extra, 0 <- 1 <- 2 via chain) is detected.
        assert!(!is_acyclic(&sched));
    }

    #[test]
    fn reverse_path_is_always_acyclic() {
        substrate::forall!(|g| {
            let n = g.u32_in(1..20);
            let sched = ReversePathScheduler.schedule(&updates(n));
            assert!(is_acyclic(&sched));
        });
    }

    fn dep(us: &[NetworkUpdate], i: usize, segment: u32, domain: u16) -> ForeignDep {
        ForeignDep {
            update: us[i].id,
            switch: us[i].switch,
            segment,
            domain: DomainId(domain),
        }
    }

    #[test]
    fn project_single_domain_keeps_every_edge_local() {
        let us = updates(4);
        let full = ReversePathScheduler.schedule(&us);
        let ps = project(&full, |_| Some(DomainId(3)), DomainId(3));
        assert_eq!(ps.len(), 4);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!((p.update, p.segment), (us[i], 0));
            // The chain edge, with the switch that applies it.
            let next = us.get(i + 1).map(|u| (u.id, u.switch));
            assert_eq!(p.local, Vec::from_iter(next));
            let prev = i.checked_sub(1).map(|j| us[j].switch);
            assert_eq!(p.notify, Vec::from_iter(prev));
            assert!(p.foreign.is_empty() && p.upstream.is_empty());
        }
        assert!(project(&full, |_| Some(DomainId(3)), DomainId(4)).is_empty());
    }

    #[test]
    fn project_three_domain_path() {
        // A cross-pod path: source pod (switches 0, 1), core (2),
        // destination pod (3, 4) — three domains, three segments.
        let us = updates(5);
        let domain_of = |s: SwitchId| Some(DomainId([0, 0, 1, 2, 2][s.0 as usize]));
        let full = ReversePathScheduler.schedule(&us);
        let src = project(&full, domain_of, DomainId(0));
        assert_eq!(src[0].local, vec![(us[1].id, us[1].switch)]);
        assert_eq!(src[1].foreign, vec![dep(&us, 2, 1, 1)]);
        assert!(src[1].local.is_empty() && src[0].foreign.is_empty());
        assert!(src.iter().all(|p| p.segment == 0 && p.upstream.is_empty()));
        let core = project(&full, domain_of, DomainId(1));
        assert_eq!(core.len(), 1);
        assert_eq!((core[0].update, core[0].segment), (us[2], 1));
        assert_eq!(core[0].foreign, vec![dep(&us, 3, 2, 2)]);
        assert_eq!(core[0].notify, vec![us[1].switch]);
        assert_eq!(core[0].upstream, vec![DomainId(0)]);
        let dst = project(&full, domain_of, DomainId(2));
        assert_eq!(dst[0].local, vec![(us[4].id, us[4].switch)]);
        assert_eq!(dst[0].notify, vec![us[2].switch]);
        assert_eq!(dst[0].upstream, vec![DomainId(1)]);
        // The last hop waits on nothing and releases inside its own domain.
        assert!(dst[1].local.is_empty() && dst[1].foreign.is_empty());
        assert_eq!(dst[1].notify, vec![us[3].switch]);
        assert!(dst[1].upstream.is_empty());
    }

    #[test]
    fn project_domain_owning_two_segments_of_one_path() {
        // Switches 0, 1 -> domain 0; 2, 3 -> domain 1; 4 -> domain 0 again:
        // the re-entry is a *new* segment, so domain 0 both waits on domain
        // 1 (segment 1) and is waited on by it (segment 2).
        let us = updates(5);
        let domain_of = |s: SwitchId| Some(DomainId([0, 0, 1, 1, 0][s.0 as usize]));
        let full = ReversePathScheduler.schedule(&us);
        let d0 = project(&full, domain_of, DomainId(0));
        let segs: Vec<u32> = d0.iter().map(|p| p.segment).collect();
        assert_eq!(segs, vec![0, 0, 2]);
        assert_eq!(d0[1].foreign, vec![dep(&us, 2, 1, 1)]);
        assert_eq!(d0[2].notify, vec![us[3].switch]);
        assert_eq!(d0[2].upstream, vec![DomainId(1)]);
        assert!(d0[2].local.is_empty() && d0[2].foreign.is_empty());
        let d1 = project(&full, domain_of, DomainId(1));
        assert_eq!(d1[0].local, vec![(us[3].id, us[3].switch)]);
        assert_eq!(d1[1].foreign, vec![dep(&us, 4, 2, 0)]);
        assert_eq!(d1[0].upstream, vec![DomainId(0)]);
        // Scheduling domain 0's updates alone (the handshake-off control)
        // is a different schedule, not this projection minus its foreign
        // edges: it chains the two segments directly.
        let own: Vec<NetworkUpdate> = d0.iter().map(|p| p.update).collect();
        let alone = project(&ReversePathScheduler.schedule(&own), domain_of, DomainId(0));
        assert_eq!(alone[1].local, vec![(us[4].id, us[4].switch)]);
    }

    #[test]
    fn project_skips_unplaceable_updates_and_their_edges() {
        let us = updates(3);
        let full = ReversePathScheduler.schedule(&us);
        let ps = project(&full, |s| (s.0 != 1).then_some(DomainId(0)), DomainId(0));
        assert_eq!(ps.len(), 2);
        // The orphan neither splits the segment nor gates anyone.
        for p in ps {
            assert!(p.segment == 0 && p.local.is_empty() && p.notify.is_empty());
        }
    }

    /// The projections onto all domains partition the full schedule: every
    /// update is owned once, and every edge shows up exactly once as a dep
    /// — local inside a domain, foreign across two — mirrored by a notify
    /// entry (and, across domains, an upstream entry) at its other end.
    #[test]
    fn projections_partition_the_full_schedule() {
        substrate::forall!(|g| {
            let n = g.u32_in(1..12);
            let mut us = updates(n);
            // Removals on path switches give the graph scheduler same-switch
            // edges on top of the chain.
            for i in 0..g.u32_in(0..3) {
                us.push(NetworkUpdate {
                    id: UpdateId {
                        event: EventId(1),
                        seq: 100 + i,
                    },
                    switch: SwitchId(g.u32_in(0..n)),
                    kind: UpdateKind::Remove(FlowMatch {
                        src: HostId(0),
                        dst: HostId(8),
                    }),
                });
            }
            let domains = g.u32_in(1..4) as u16;
            let owner: Vec<u16> = (0..n).map(|_| g.u32_in(0..domains as u32) as u16).collect();
            let domain_of = |s: SwitchId| Some(DomainId(owner[s.0 as usize]));
            for full in [
                ReversePathScheduler.schedule(&us),
                DependencyGraphScheduler::new().schedule(&us),
            ] {
                let by_domain: Vec<Vec<Projected>> = (0..domains)
                    .map(|d| project(&full, domain_of, DomainId(d)))
                    .collect();
                let find = |id: UpdateId| {
                    let mut hits = by_domain.iter().flatten().filter(|p| p.update.id == id);
                    let p = hits.next().expect("every update is projected somewhere");
                    assert!(hits.next().is_none(), "and only once");
                    p
                };
                let mut edges = 0;
                for s in &full {
                    let after = find(s.update.id);
                    let d_after = domain_of(s.update.switch).unwrap();
                    assert_eq!(after.local.len() + after.foreign.len(), s.deps.len());
                    edges += s.deps.len();
                    for &b in &s.deps {
                        let before = find(b);
                        let d_before = domain_of(before.update.switch).unwrap();
                        assert!(before.notify.contains(&s.update.switch));
                        if d_before == d_after {
                            assert!(after.local.contains(&(b, before.update.switch)));
                        } else {
                            assert!(after.foreign.contains(&ForeignDep {
                                update: b,
                                switch: before.update.switch,
                                segment: before.segment,
                                domain: d_before,
                            }));
                            assert!(before.upstream.contains(&d_after));
                        }
                    }
                }
                let projected: usize = by_domain
                    .iter()
                    .flatten()
                    .map(|p| p.local.len() + p.foreign.len())
                    .sum();
                assert_eq!(projected, edges, "no edge is invented or counted twice");
            }
        });
    }

    #[test]
    fn schedulers_preserve_update_sets() {
        substrate::forall!(|g| {
            let us = updates(g.u32_in(1..20));
            for sched in [
                ReversePathScheduler.schedule(&us),
                UnorderedScheduler.schedule(&us),
                DependencyGraphScheduler::new().schedule(&us),
            ] {
                let got: BTreeSet<UpdateId> = sched.iter().map(|s| s.update.id).collect();
                let want: BTreeSet<UpdateId> = us.iter().map(|u| u.id).collect();
                assert_eq!(got, want);
            }
        });
    }
}
