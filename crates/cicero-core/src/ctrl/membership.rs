//! Membership changes (paper §4.3): phase changes with public-key-preserving
//! share redistribution, cross-domain membership notices, state sync for
//! joiners, and the post-reshare phase notice to the domain's switches.

use super::{ControllerActor, TICK, TICK_PERIOD};
use crate::msg::{Net, OrderedOp, PhaseInfo};
use crate::obs::Obs;
use crate::runtime::{fake_group, labels};
use blscrypto::bls::PartialSignature;
use blscrypto::dkg::{DkgConfig, GroupPublic};
use blscrypto::reshare::{deal_reshare_to, finalize_reshare};
use controller::membership::ControlPlaneView;
use simnet::node::{Host, NodeId};
use southbound::envelope::{QuorumSigned, ShareSigned};
use southbound::types::{ControllerId, DomainId, Event, EventId, EventKind, Phase};

/// State tracked while a membership change (and its reshare) is in flight.
pub(super) struct PendingReshare {
    phase: Phase,
    need: usize,
    old_group: GroupPublic,
    new_cfg: DkgConfig,
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
        self.updates_sent.clear(); // old-phase shares no longer count
        self.in_phase_change = true;
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
                    let signed = self
                        .auth
                        .sign(ctx, labels::FORWARD, event, self.view.phase());
                    ctx.send(self.shared.dir.controller(d, target), Net::ForwardedEvent(signed));
                }
            }
            // State sync for a joiner.
            if added {
                ctx.send(
                    self.shared.dir.controller(self.domain, subject),
                    Net::StateSync {
                        view: self.view.clone(),
                    },
                );
            }
        }

        if !added && subject == self.id {
            // We were removed: stop participating.
            self.active = false;
            self.replica = None;
            self.in_phase_change = false;
            return;
        }

        let new_members: Vec<u32> = self.view.members().map(|c| c.0).collect();
        let new_cfg = DkgConfig::new(self.view.len() as u32, self.view.threshold_t())
            .expect("valid view parameters");

        if self.shared.real_crypto() && self.shared.cfg.mode.is_signed() {
            let old_t = old_view.threshold_t() as usize;
            self.pending_reshare = Some(PendingReshare {
                phase: self.view.phase(),
                need: old_t + 1,
                old_group: self.auth.group().clone(),
                new_cfg,
            });
            // Dealers: the lowest old_t + 1 surviving old members.
            let dealers: Vec<ControllerId> = old_view
                .members()
                .filter(|&c| added || c != subject)
                .take(old_t + 1)
                .collect();
            if dealers.contains(&self.id) {
                let share = self.auth.share().expect("members hold shares");
                let dealing = deal_reshare_to(share, new_cfg.t, &new_members, ctx.rng());
                let phase = self.view.phase();
                for &m in self.members().iter() {
                    if m == self.id {
                        self.reshare_buf.entry(phase).or_default().push(dealing.clone());
                    } else {
                        ctx.send(
                            self.node_of(m),
                            Net::Reshare {
                                phase,
                                dealing: dealing.clone(),
                            },
                        );
                    }
                }
            }
            self.try_finalize_reshare(ctx);
        } else {
            // Modeled crypto: the reshare's *timing* is not part of any
            // figure; jump straight to the new phase with placeholder keys.
            let group = fake_group(self.view.len() as u32, self.view.threshold_t());
            self.auth.rekey(None, group);
            self.finish_phase_change(ctx);
        }
    }

    pub(super) fn try_finalize_reshare(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let Some(pr) = self.pending_reshare.as_ref() else {
            return;
        };
        let Some(dealings) = self.reshare_buf.get(&pr.phase) else {
            return;
        };
        if dealings.len() < pr.need {
            return;
        }
        let dealings = dealings.clone();
        let pr = self.pending_reshare.take().expect("checked above");
        match finalize_reshare(&dealings[..pr.need], &pr.old_group, pr.new_cfg, self.id.0) {
            Ok((share, group)) => {
                self.auth.rekey(Some(share), group);
                self.finish_phase_change(ctx);
            }
            Err(_) => {
                // A bad dealing slipped in; wait for more dealers.
                self.pending_reshare = Some(pr);
            }
        }
    }

    pub(super) fn finish_phase_change(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        self.in_phase_change = false;
        self.active = true;
        self.replica = Some(Self::build_replica(&self.view, self.id));
        self.agg_shares.retain_phase(self.view.phase());
        self.relayed.clear();
        ctx.observe(Obs::PhaseChanged {
            domain: self.domain,
            phase: self.view.phase().0,
        });

        // Inform switches of the new phase/quorum/aggregator under the
        // (unchanged) group public key.
        let info = PhaseInfo {
            phase: self.view.phase(),
            quorum: self.view.quorum() as u32,
            aggregator: self.view.aggregator(),
        };
        if self.shared.real_crypto() && self.shared.cfg.mode.is_signed() {
            let msg_id = self.auth.next_msg_id();
            let share = self.auth.share().expect("post-reshare share");
            let partial = ShareSigned::sign(labels::PHASE, info, info.phase, msg_id, share);
            let agg = self.view.aggregator();
            if agg == self.id {
                let me = self.node_of(self.id);
                self.on_phase_partial(ctx, me, partial);
            } else {
                ctx.send(self.node_of(agg), Net::PhasePartial(partial));
            }
        } else if self.is_lowest() {
            let msg_id = self.auth.next_msg_id();
            let notice = QuorumSigned {
                payload: info,
                phase: info.phase,
                msg_id,
                signature: self.shared.keys.dummy,
            };
            for node in self.shared.dir.domain_switch_nodes(self.domain) {
                ctx.send(node, Net::PhaseNotice(notice.clone()));
            }
        }

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
    /// honest ones and starve the notice.
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
        let store = self.phase_partials.entry(phase).or_default();
        store.insert(msg.partial.index, msg.partial);
        let quorum = self.view.quorum();
        if store.len() < quorum || phase != self.view.phase() {
            return;
        }
        let partials: Vec<PartialSignature> = store.values().copied().collect();
        let info = PhaseInfo {
            phase: self.view.phase(),
            quorum: self.view.quorum() as u32,
            aggregator: self.view.aggregator(),
        };
        let msg_id = self.auth.next_msg_id();
        let Ok(notice) =
            QuorumSigned::aggregate(info, phase, msg_id, &partials[..quorum], quorum - 1)
        else {
            return;
        };
        for node in self.shared.dir.domain_switch_nodes(self.domain) {
            ctx.send(node, Net::PhaseNotice(notice.clone()));
        }
    }

    /// A standby joiner adopts the synced view and waits for dealings.
    pub(super) fn on_state_sync(&mut self, ctx: &mut dyn Host<Net, Obs>, view: ControlPlaneView) {
        if self.active {
            return;
        }
        self.view = view;
        self.updates_sent.clear();
        self.in_phase_change = true;
        let new_cfg = DkgConfig::new(self.view.len() as u32, self.view.threshold_t())
            .expect("valid view");
        if self.shared.real_crypto() && self.shared.cfg.mode.is_signed() {
            // old view = new view minus ourselves.
            let old_n = self.view.len() as u32 - 1;
            let old_t = (old_n.saturating_sub(1)) / 3;
            self.pending_reshare = Some(PendingReshare {
                phase: self.view.phase(),
                need: old_t as usize + 1,
                old_group: self.auth.group().clone(),
                new_cfg,
            });
            self.try_finalize_reshare(ctx);
        } else {
            let group = fake_group(self.view.len() as u32, self.view.threshold_t());
            self.auth.rekey(None, group);
            self.finish_phase_change(ctx);
        }
        if self.uses_consensus() {
            ctx.set_timer(TICK_PERIOD, TICK);
        }
    }
}
