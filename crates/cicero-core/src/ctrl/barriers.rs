//! The cross-domain ordering handshake (DESIGN.md §3): barriers held for
//! foreign segments and released on a *quorum certificate* — threshold
//! shares of the downstream domain over one segment body, aggregated and
//! verified once against that domain's group key; share-signed
//! segment-applied reports for own segments foreign updates depend on,
//! sent once and kept, and re-sent to whoever re-forwards the event — the
//! re-forward of a controller still waiting on this domain (`ctrl/events.rs`)
//! is the one recovery loop that keeps the handshake live under loss.

use super::ControllerActor;
use crate::auth::Peer;
use crate::collector::Quorum;
use crate::msg::{Net, SegmentBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::scheduler::{Projected, ScheduledUpdate};
use simnet::node::{Host, NodeId};
use simnet::time::SimDuration;
use southbound::envelope::ShareSigned;
use southbound::types::{ControllerId, DomainId, Event, EventId, UpdateId};
use std::collections::{BTreeMap, BTreeSet};

/// Synthetic dependency ids standing for "a foreign domain's path segment
/// has been applied". Real per-event sequence numbers are tiny, so the top
/// of the `u32` range is free for barriers.
const BARRIER_SEQ_BASE: u32 = 0xFFFF_0000;

/// Segment reports one downstream controller may have parked here below
/// quorum. Honest reporters sit far below it (an entry lives only until
/// f more of its domain report the same segment); it bounds what a
/// Byzantine one can make an upstream controller remember.
const MAX_OPEN_REPORTS: usize = 1024;

pub(super) fn barrier_id(event: EventId, segment: u32) -> UpdateId {
    UpdateId {
        event,
        seq: BARRIER_SEQ_BASE + segment,
    }
}

/// What the upstream side of one cross-domain barrier still expects. Set
/// when local event processing registers the dependency; the downstream
/// quorum may legitimately certify earlier and wait in
/// [`BarrierState::signers`] until then.
pub(super) struct BarrierExpect {
    /// The domain whose segment must apply before the barrier releases.
    downstream: DomainId,
    /// Distinct downstream signers required.
    quorum: usize,
}

/// Upstream half of the cross-domain ordering handshake for one
/// `(event, segment)`: the verified downstream signers, and the barrier
/// they release. Shares still below quorum live in the actor's
/// `seg_shares` collector, not here — they are volatile by design.
#[derive(Default)]
pub(super) struct BarrierState {
    /// `(domain, controller)` signers of a *verified* quorum — every entry
    /// is in the WAL.
    signers: BTreeSet<(DomainId, u32)>,
    /// Release condition, once our own schedule registered the dependency.
    expected: Option<BarrierExpect>,
    /// Set once released; later shares change nothing.
    released: bool,
}

impl BarrierState {
    fn certified(&self, domain: DomainId, quorum: usize) -> bool {
        self.signers.iter().filter(|(d, _)| *d == domain).count() >= quorum
    }
}

/// Downstream half of the handshake, first stage: waits until every update
/// of an own segment is switch-acked.
pub(super) struct SegWatch {
    /// Own-segment updates not yet switch-acked.
    pub(super) remaining: BTreeSet<UpdateId>,
    /// Domains holding a barrier on this segment.
    upstreams: Vec<DomainId>,
}

/// Downstream half, second stage: the drained segment's threshold share —
/// signed once, sent once to every upstream controller, and kept so an
/// upstream controller still waiting can have it again by re-forwarding the
/// event ([`Net::ForwardedEvent`]). One per reported `(event, segment)`, living
/// exactly as long as the upstream side's `barriers` entry of that key;
/// a restart rebuilds it by replaying the acks that drained the segment.
pub(super) struct KeptShare {
    /// The share-signed report, re-sent as-is.
    report: ShareSigned<SegmentBody>,
    /// Domains holding a barrier on this segment — whose controllers may ask.
    upstreams: Vec<DomainId>,
    /// Re-sends so far (numbers `Obs::SegmentRetransmitted`).
    resends: u32,
}

impl ControllerActor {
    /// Every mode but Segway: the controllers enforce the projected
    /// dependencies themselves. Own prerequisites are held in the
    /// pending-update tracker; foreign ones become per-segment barrier ids
    /// (acked when a quorum of the owning domain reports the segment
    /// applied), and watches are registered for own segments that foreign
    /// updates wait on, so this controller reports them upstream once they
    /// drain.
    pub(super) fn hold_at_controller(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        event: &Event,
        projected: Vec<Projected>,
    ) -> Vec<ScheduledUpdate> {
        // Foreign segments our updates depend on → barriers to hold, and
        // own segments foreign updates depend on → watches to report.
        let mut barrier_deps: BTreeMap<u32, DomainId> = BTreeMap::new();
        let mut watched: BTreeMap<u32, BTreeSet<DomainId>> = BTreeMap::new();
        let mut schedule = Vec::new();
        for p in &projected {
            let mut deps: BTreeSet<UpdateId> = p.local.iter().map(|&(u, _)| u).collect();
            for f in &p.foreign {
                deps.insert(barrier_id(event.id, f.segment));
                barrier_deps.insert(f.segment, f.domain);
            }
            if !p.upstream.is_empty() {
                watched.entry(p.segment).or_default().extend(&p.upstream);
            }
            schedule.push(ScheduledUpdate {
                update: p.update,
                deps,
            });
        }
        for (k, downstream) in barrier_deps {
            let quorum = self.downstream_quorum(downstream);
            let st = self.barriers.entry((event.id, k)).or_default();
            if st.expected.is_none() && !st.released {
                st.expected = Some(BarrierExpect { downstream, quorum });
            }
            self.check_barrier_release(ctx, (event.id, k), SimDuration::ZERO);
        }
        for (k, ups) in watched {
            let remaining: BTreeSet<UpdateId> = projected
                .iter()
                .filter(|p| p.segment == k && !self.pending.is_acked(p.update.id))
                .map(|p| p.update.id)
                .collect();
            let drained = remaining.is_empty();
            self.seg_watch.insert(
                (event.id, k),
                SegWatch {
                    remaining,
                    upstreams: ups.into_iter().collect(),
                },
            );
            if drained {
                self.start_segment_report(ctx, (event.id, k));
            }
        }
        self.arm_retry(ctx);
        schedule
    }

    /// Sends `msg` to controller `c` of another domain, if the directory
    /// knows it.
    pub(super) fn send_remote(
        &self,
        ctx: &mut dyn Host<Net, Obs>,
        d: DomainId,
        c: ControllerId,
        msg: Net,
    ) {
        if let Some(&node) = self.shared.dir.controller_node.get(&(d, c)) {
            ctx.send(node, msg);
        }
    }

    /// Distinct downstream signers required before a barrier releases:
    /// enough that at least one is honest under the mode's fault model.
    fn downstream_quorum(&self, d: DomainId) -> usize {
        if self.shared.cfg.mode.is_signed() {
            let n = self.remote_members.get(&d).map(|m| m.len()).unwrap_or(1);
            (n.saturating_sub(1)) / 3 + 1
        } else {
            // Centralized / crash-tolerant controllers never equivocate in
            // the fault model; a single report suffices.
            1
        }
    }

    /// Acks the barrier id (releasing held boundary updates, `extra` late)
    /// once a verified quorum of the expected downstream domain is on
    /// record.
    fn check_barrier_release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        key: (EventId, u32),
        extra: SimDuration,
    ) {
        let Some(st) = self.barriers.get_mut(&key) else {
            return;
        };
        let ready = st
            .expected
            .as_ref()
            .is_some_and(|exp| st.certified(exp.downstream, exp.quorum));
        if st.released || !ready {
            return;
        }
        st.released = true;
        ctx.observe(Obs::BoundaryReleased {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        let ready = self.pending.ack(barrier_id(key.0, key.1), ctx.now());
        for u in ready {
            self.send_update_delayed(ctx, u, extra);
        }
        self.retire_forward(key.0);
        self.arm_retry(ctx);
    }

    /// Takes the acked `update` off the own-segment watches and reports
    /// every segment it drained (live acks, and muted on crash-recovery
    /// replay — which is what rebuilds the kept shares).
    pub(super) fn report_drained_segments(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: UpdateId,
    ) {
        let mut drained: Vec<(EventId, u32)> = Vec::new();
        for (key, w) in self.seg_watch.iter_mut() {
            if key.0 == update.event && w.remaining.remove(&update) && w.remaining.is_empty() {
                drained.push(*key);
            }
        }
        for key in drained {
            self.start_segment_report(ctx, key);
        }
    }

    /// The one unsolicited transmission of a drained segment's report —
    /// this controller's threshold share over the segment body — to every
    /// controller of every upstream domain holding a barrier on it. The
    /// share is kept: whoever misses it re-forwards the event and has it
    /// again ([`Self::answer_reforward`]).
    fn start_segment_report(&mut self, ctx: &mut dyn Host<Net, Obs>, key: (EventId, u32)) {
        let Some(w) = self.seg_watch.remove(&key) else {
            return;
        };
        let body = SegmentBody {
            event: key.0,
            segment: key.1,
            domain: self.domain,
        };
        let cost = self.shared.cfg.costs.event_sign;
        let signed = self
            .auth
            .sign_share(ctx, labels::SEGMENT, body, self.view.phase(), cost);
        for &d in &w.upstreams {
            for &c in self.remote_members.get(&d).into_iter().flatten() {
                self.send_remote(ctx, d, c, Net::SegmentApplied(signed.clone()));
            }
        }
        ctx.observe(Obs::SegmentReported {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        let kept = KeptShare {
            report: signed,
            upstreams: w.upstreams,
            resends: 0,
        };
        self.seg_sent.insert(key, kept);
    }

    /// Answers a re-forward of `event`, which this controller has delivered:
    /// its sender still waits on this domain, and what it can lack from here
    /// is the event's segment reports. Answered only over the channel of a
    /// current member of a domain upstream of a segment, with the kept share,
    /// to the sender alone — one reply per kept report per re-forward,
    /// nothing signed or verified on either side. A segment not drained yet
    /// has no share to send; the sender gets it unsolicited when it drains.
    pub(super) fn answer_reforward(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        event: EventId,
    ) {
        let Some(Peer::Controller(d, c)) = self.shared.dir.peer(from) else {
            return;
        };
        let members = self.remote_members.get(&d);
        if !members.is_some_and(|ms| ms.contains(&c)) {
            return;
        }
        let (domain, controller) = (self.domain, self.id.0);
        for (&(event, segment), kept) in self.seg_sent.range_mut((event, 0)..=(event, u32::MAX)) {
            if !kept.upstreams.contains(&d) {
                continue;
            }
            kept.resends += 1;
            ctx.send(from, Net::SegmentApplied(kept.report.clone()));
            ctx.observe(Obs::SegmentRetransmitted {
                domain,
                controller,
                event,
                segment,
                attempt: kept.resends,
            });
        }
    }

    /// Handles a downstream controller's share of a segment report.
    ///
    /// A share is only accepted over the authenticated channel of the
    /// controller whose index it carries, so nobody can occupy (or get
    /// evicted) another signer's slot. Below quorum the share is only
    /// bucketed — no crypto, and a crash here loses nothing this controller
    /// will not ask for again. The share completing a quorum triggers the
    /// one aggregate verification; its signers are logged and may release
    /// the barrier. Every later share finds the quorum on record and is
    /// dropped, no crypto at all.
    pub(super) fn on_segment_applied(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        m: ShareSigned<SegmentBody>,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let body = m.payload;
        let signer = m.partial.index;
        if !self.shared.keys.domains.contains_key(&body.domain)
            || body.domain == self.domain
            || !self.auth.own_slot(from, body.domain, &m)
        {
            return;
        }
        let key = (body.event, body.segment);
        let quorum = self.downstream_quorum(body.domain);
        let certified = |st: &BarrierState| st.certified(body.domain, quorum);
        if self.barriers.get(&key).is_some_and(certified) {
            return;
        }
        let shares = self.seg_shares.entry(body.domain).or_default();
        if shares.held_by(signer) >= MAX_OPEN_REPORTS {
            return;
        }
        let outcome = self
            .auth
            .collect(shares, key, m, labels::SEGMENT, quorum, body.domain);
        // Like every controller-side verification, the certificate check
        // is modeled as latency on what it releases, not serialized CPU
        // (the paper's controllers are 12-core machines).
        let verify_latency = self.auth.quorum_cost(&outcome);
        let Quorum::Certified(cert) = outcome else {
            return;
        };
        // A verified signer is a durable fact, logged before the release it
        // permits: a restarted controller must not demand the quorum twice
        // (nor release without it).
        let st = self.barriers.entry(key).or_default();
        let fresh: Vec<u32> = cert
            .signers
            .into_iter()
            .filter(|&c| st.signers.insert((body.domain, c)))
            .collect();
        for c in fresh {
            self.log_record(&WalRecord::BarrierSigner {
                barrier: barrier_id(body.event, body.segment),
                domain: body.domain,
                controller: ControllerId(c),
            });
        }
        self.check_barrier_release(ctx, key, verify_latency);
    }

    /// Crash-recovery replay of a logged barrier signer (ctrl/durable.rs).
    pub(super) fn restore_barrier_signer(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        barrier: UpdateId,
        domain: DomainId,
        controller: ControllerId,
    ) {
        let key = (barrier.event, barrier.seq.wrapping_sub(BARRIER_SEQ_BASE));
        let st = self.barriers.entry(key).or_default();
        st.signers.insert((domain, controller.0));
        self.check_barrier_release(ctx, key, SimDuration::ZERO);
    }

    /// Every verified barrier signer, as WAL records (snapshot body).
    pub(super) fn barrier_signer_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for (&(event, segment), st) in self.barriers.iter() {
            for &(domain, controller) in st.signers.iter() {
                out.push(WalRecord::BarrierSigner {
                    barrier: barrier_id(event, segment),
                    domain,
                    controller: ControllerId(controller),
                });
            }
        }
        out
    }

    /// `true` when the cross-domain handshake holds no unfinished work:
    /// every registered barrier released and every own-segment watch
    /// reported (snapshot quiescence check).
    pub(super) fn handshake_idle(&self) -> bool {
        self.barriers
            .iter()
            .all(|(_, st)| st.released || st.expected.is_none())
            && self.seg_watch.is_empty()
    }

    /// The verified downstream signers on record for barrier `(event,
    /// segment)`, as `(domain, controller)` (tests).
    pub fn barrier_signers(&self, event: EventId, segment: u32) -> Vec<(DomainId, u32)> {
        self.barriers
            .get(&(event, segment))
            .map(|st| st.signers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Barriers released so far (tests).
    pub fn barriers_released(&self) -> usize {
        self.barriers.values().filter(|st| st.released).count()
    }

    /// Entries in each handshake structure: barriers, kept forwards,
    /// reporting domains with open shares, own-segment watches, kept
    /// shares (tests: what unauthenticated traffic can make us remember).
    pub fn handshake_footprint(&self) -> [usize; 5] {
        [
            self.barriers.len(),
            self.forwards.len(),
            self.seg_shares.len(),
            self.seg_watch.len(),
            self.seg_sent.len(),
        ]
    }
}
