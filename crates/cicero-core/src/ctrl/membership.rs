//! Membership changes (paper §4.3): phase changes with public-key-preserving
//! share redistribution, cross-domain membership notices, state sync for
//! joiners, and the post-reshare phase notice to the domain's switches. The
//! re-key itself, and whatever crypto level it runs at, is the seam's
//! ([`crate::auth::Authenticator::start_rekey`]).

use super::ControllerActor;
use crate::collector::Quorum;
use crate::msg::{Net, OrderedOp, PhaseInfo};
use crate::obs::Obs;
use crate::runtime::labels;
use blscrypto::dkg::GroupPublic;
use controller::membership::ControlPlaneView;
use simnet::node::{Host, NodeId};
use southbound::envelope::{QuorumSigned, ShareSigned};
use southbound::types::{ControllerId, DomainId, Event, EventId, EventKind};
use std::collections::BTreeSet;

/// The designated dealers of a re-key into `view`: the lowest old `t + 1`
/// members of `old` (ascending, as a view lists them) that stay on in it.
fn dealers(old: Vec<ControllerId>, view: &ControlPlaneView) -> BTreeSet<ControllerId> {
    let old_t = (old.len() - 1) / 3;
    old.into_iter().filter(|&c| view.contains(c)).take(old_t + 1).collect()
}

impl ControllerActor {
    pub(super) fn start_phase_change(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        added: bool,
        subject: ControllerId,
    ) {
        let old_view = self.view.clone();
        let result = if added {
            self.view.add(old_view.bootstrap(), subject)
        } else {
            self.view.remove(subject)
        };
        if result.is_err() {
            self.view = old_view;
            return;
        }
        // Old-phase shares and releases no longer count.
        self.drop_shares();
        self.releases_sent.clear();
        if added {
            self.detector.track(subject, ctx.now());
        } else {
            self.detector.forget(subject);
        }

        // Cross-domain notification (paper §4.3 final step): the bootstrap
        // forwards a MembershipChanged event to every other domain.
        if self.id == self.view.bootstrap() {
            let event = Event {
                id: EventId(((self.id.0 as u64) << 48) | self.view.phase().0),
                kind: EventKind::MembershipChanged {
                    domain: self.domain,
                    controller: subject,
                    added,
                },
                origin: self.domain,
                forwarded: true,
            };
            let domains: Vec<DomainId> = self
                .remote_members
                .keys()
                .copied()
                .filter(|d| *d != self.domain)
                .collect();
            for d in domains {
                if let Some(target) = self.remote_members[&d].first().copied() {
                    let msg_id = self.auth.next_msg_id();
                    self.send_forward(ctx, event, msg_id, d, target);
                }
            }
            // State sync for a joiner: the view, and the commitment the
            // dealers' current shares lie on.
            if added {
                let (view, group) = (self.view.clone(), self.auth.group().clone());
                let joiner = self.shared.dir.controller(self.domain, subject);
                ctx.send(joiner, Net::StateSync { view, group });
            }
        }

        if !added && subject == self.id {
            // We were removed: stop participating.
            self.active = false;
            self.replica = None;
            return;
        }

        let dealers = dealers(old_view.members().collect(), &self.view);
        if self.auth.start_rekey(ctx, &self.view, dealers) {
            self.finish_phase_change(ctx);
        }
    }

    pub(super) fn finish_phase_change(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        self.active = true;
        self.replica = Some(Self::build_replica(&self.view, self.id));
        self.agg_shares.retain_phase(self.view.phase());
        self.relayed.clear();
        ctx.observe(Obs::PhaseChanged {
            domain: self.domain,
            phase: self.view.phase().0,
        });

        // Inform switches of the new phase/quorum/aggregator under the
        // (unchanged) group public key: every member share-signs it, the
        // aggregator (itself included) collects a quorum.
        let info = PhaseInfo::of(&self.view);
        let phase = info.phase;
        let partial = self.auth.sign_share(ctx, labels::PHASE, info, phase);
        ctx.send(self.node_of(self.view.aggregator()), Net::PhasePartial(partial));

        // Drain work accumulated during the change.
        let queued: Vec<Event> = self.queued_events.drain(..).collect();
        for e in queued {
            self.submit_op(ctx, OrderedOp::Event(e));
        }
        let unprocessed: Vec<OrderedOp> = self.unprocessed.values().cloned().collect();
        self.unprocessed.clear();
        for op in unprocessed {
            self.submit_op(ctx, op);
        }
    }

    /// Collects a member's partial over the new phase notice, under its
    /// sender's own slot only (as every share collector does): one member
    /// filing partials under every index would otherwise crowd out the
    /// honest ones and starve the notice. The certified notice is kept, and
    /// the partial that certifies it and each later one send it as kept.
    pub(super) fn on_phase_partial(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        msg: ShareSigned<PhaseInfo>,
    ) {
        if !self.is_lowest() || !self.auth.own_slot(from, self.domain, &msg) {
            return;
        }
        let phase = msg.phase;
        if !self.phase_notices.contains(&phase) {
            let (quorum, domain) = (self.view.quorum(), self.domain);
            let shares = &mut self.phase_shares;
            let outcome = self.auth.collect(shares, (), msg, labels::PHASE, quorum, domain);
            let Quorum::Certified(cert) = outcome else {
                return;
            };
            let msg_id = self.auth.next_msg_id();
            let (payload, signature) = (cert.payload, cert.signature);
            self.phase_notices.keep(phase, QuorumSigned { payload, phase, msg_id, signature });
        }
        let kept = self.phase_notices.resend(&phase, |_| true, || None);
        let (notice, _) = kept.expect("certified notices are kept");
        for node in self.shared.dir.domain_switch_nodes(self.domain) {
            ctx.send(node, Net::PhaseNotice(notice.clone()));
        }
    }

    /// A standby joiner adopts the synced view and commitment, and waits for
    /// dealings checked against that commitment.
    pub(super) fn on_state_sync(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        view: ControlPlaneView,
        group: GroupPublic,
    ) {
        if self.active {
            return;
        }
        // The old membership is the synced one without the joiner.
        let dealers = dealers(view.members().filter(|&c| c != self.id).collect(), &view);
        self.view = view;
        self.drop_shares();
        self.releases_sent.clear();
        self.auth.sync_group(group);
        if self.auth.start_rekey(ctx, &self.view, dealers) {
            self.finish_phase_change(ctx);
        }
    }
}
