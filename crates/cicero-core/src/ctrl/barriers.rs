//! The cross-domain ordering handshake (DESIGN.md §3): barriers held for
//! foreign segments and released on a *quorum certificate* — threshold
//! shares of the downstream domain over one segment body, aggregated and
//! verified once against that domain's group key; share-signed
//! segment-applied reports for own segments foreign updates depend on;
//! once-signed boundary-release receipts, batch-verified by the reporter;
//! and the re-forward / retransmission loops that keep the handshake live
//! under loss.

use super::ControllerActor;
use crate::auth::Peer;
use crate::collector::Quorum;
use crate::msg::{Net, ReleaseBody, SegmentBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::pending::Retry;
use controller::scheduler::{Projected, ScheduledUpdate};
use simnet::node::{Host, NodeId};
use simnet::time::{SimDuration, SimTime};
use southbound::envelope::{ShareSigned, Signed};
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
    /// The event, kept for re-forwarding if the downstream domain went
    /// quiet (its copy of the forwarded event may have been lost).
    event: Event,
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
    /// Set once released; later shares are receipted but change nothing.
    released: bool,
    /// Our receipt for the verified quorum: signed once, re-sent as-is.
    receipt: Option<Signed<ReleaseBody>>,
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

/// Downstream half, second stage: the drained segment's threshold share,
/// reported to each upstream controller until all of them receipted (or the
/// retry budget is spent).
pub(super) struct SegReport {
    /// The share-signed report: signed once, retransmitted as-is.
    report: ShareSigned<SegmentBody>,
    /// `(domain, controller)` targets that have not receipted yet.
    pending_receipts: BTreeSet<(DomainId, u32)>,
    /// Unverified receipts from pending targets, checked in one batch when
    /// the last one arrives or the retry sweep fires.
    receipts: BTreeMap<(DomainId, u32), Signed<ReleaseBody>>,
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
        let now = ctx.now();
        for (k, downstream) in barrier_deps {
            let quorum = self.downstream_quorum(downstream);
            let st = self.barriers.entry((event.id, k)).or_default();
            if st.expected.is_none() && !st.released {
                let event = Event {
                    forwarded: true,
                    ..*event
                };
                st.expected = Some(BarrierExpect {
                    downstream,
                    quorum,
                    event,
                });
                self.forwards
                    .insert((event.id, k), barrier_id(event.id, k), (), now);
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
    fn send_remote(&self, ctx: &mut dyn Host<Net, Obs>, d: DomainId, c: ControllerId, msg: Net) {
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
        self.forwards.remove(&key);
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
        self.arm_retry(ctx);
    }

    /// First transmission of a drained segment's report — this
    /// controller's threshold share over the segment body — to every
    /// controller of every upstream domain holding a barrier on it.
    pub(super) fn start_segment_report(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        key: (EventId, u32),
    ) {
        let Some(w) = self.seg_watch.remove(&key) else {
            return;
        };
        let targets: Vec<(DomainId, ControllerId)> = w
            .upstreams
            .iter()
            .flat_map(|&d| {
                self.remote_members
                    .get(&d)
                    .into_iter()
                    .flatten()
                    .map(move |&c| (d, c))
            })
            .collect();
        let body = SegmentBody {
            event: key.0,
            segment: key.1,
            domain: self.domain,
        };
        let cost = self.shared.cfg.costs.event_sign;
        let signed = self
            .auth
            .sign_share(ctx, labels::SEGMENT, body, self.view.phase(), cost);
        if !targets.is_empty() {
            let report = SegReport {
                report: signed.clone(),
                pending_receipts: targets.iter().map(|&(d, c)| (d, c.0)).collect(),
                receipts: BTreeMap::new(),
            };
            self.seg_reports
                .insert(key, barrier_id(key.0, key.1), report, ctx.now());
        }
        for (d, c) in targets {
            self.send_remote(ctx, d, c, Net::SegmentApplied(signed.clone()));
        }
        ctx.observe(Obs::SegmentReported {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        self.arm_retry(ctx);
    }

    /// Handles a downstream controller's share of a segment report.
    ///
    /// A share is only accepted over the authenticated channel of the
    /// controller whose index it carries, so nobody can occupy (or get
    /// evicted) another signer's slot. Below quorum the share is only
    /// bucketed — no crypto, no receipt, so the sender keeps retransmitting
    /// and a crash here loses nothing it will not re-learn. The share
    /// completing a quorum triggers the one aggregate verification; its
    /// signers are logged, receipted and may release the barrier. Every
    /// later share finds the quorum on record and is answered with the
    /// cached receipt, no crypto at all.
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
        let sender = (body.domain, ControllerId(signer));
        let sender = self.shared.dir.controller_node.get(&sender);
        if !self.shared.keys.domains.contains_key(&body.domain)
            || body.domain == self.domain
            || m.msg_id.origin != signer
            || sender != Some(&from)
        {
            return;
        }
        let key = (body.event, body.segment);
        let quorum = self.downstream_quorum(body.domain);
        let mut receipt_to = vec![signer];
        // Like every controller-side verification, the certificate check
        // is modeled as latency on what it releases, not serialized CPU
        // (the paper's controllers are 12-core machines).
        let mut verify_latency = SimDuration::ZERO;
        if !self
            .barriers
            .get(&key)
            .is_some_and(|st| st.certified(body.domain, quorum))
        {
            let shares = self.seg_shares.entry(body.domain).or_default();
            if shares.held_by(signer) >= MAX_OPEN_REPORTS {
                return;
            }
            let outcome = self
                .auth
                .collect(shares, key, m, labels::SEGMENT, quorum, body.domain);
            verify_latency = self.auth.quorum_cost(&outcome);
            let Quorum::Certified(cert) = outcome else {
                return;
            };
            // A verified signer is a durable fact: a restarted controller
            // must not demand the quorum twice (nor release without it).
            // Logged *before* any receipt goes out — the receipt stops the
            // downstream retransmitting, so if we crashed after sending but
            // before logging, the quorum would be forgotten with no
            // retransmission left to re-teach it.
            for &c in &cert.signers {
                if self
                    .barriers
                    .entry(key)
                    .or_default()
                    .signers
                    .insert((body.domain, c))
                {
                    self.log_record(&WalRecord::BarrierSigner {
                        barrier: barrier_id(body.event, body.segment),
                        domain: body.domain,
                        controller: ControllerId(c),
                    });
                }
            }
            // Everyone whose share is in the certificate has been waiting.
            receipt_to = cert.signers;
        }
        // The receipt only means "the quorum is on my disk, stop
        // retransmitting to me", never "released" — so it also answers
        // shares arriving before our own barrier exists.
        let receipt = match self.barriers.get(&key).and_then(|st| st.receipt.clone()) {
            Some(r) => r,
            None => {
                let release = ReleaseBody {
                    event: body.event,
                    segment: body.segment,
                    domain: self.domain,
                };
                let r = self
                    .auth
                    .sign(ctx, labels::RELEASE, release, self.view.phase());
                self.barriers.entry(key).or_default().receipt = Some(r.clone());
                r
            }
        };
        for c in receipt_to {
            let msg = Net::BoundaryRelease(receipt.clone());
            self.send_remote(ctx, body.domain, ControllerId(c), msg);
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
    /// receipted (snapshot quiescence check).
    pub(super) fn handshake_idle(&self) -> bool {
        self.barriers
            .iter()
            .all(|(_, st)| st.released || st.expected.is_none())
            && self.seg_watch.is_empty()
            && self.seg_reports.is_empty()
    }

    /// The verified downstream signers on record for barrier `(event,
    /// segment)`, as `(domain, controller)` (tests).
    pub fn barrier_signers(&self, event: EventId, segment: u32) -> Vec<(DomainId, u32)> {
        self.barriers
            .get(&(event, segment))
            .map(|st| st.signers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// `(barriers released, receipts still awaited for own segment
    /// reports)` (tests).
    pub fn handshake_status(&self) -> (usize, usize) {
        (
            self.barriers.values().filter(|st| st.released).count(),
            self.seg_reports
                .values()
                .map(|r| r.pending_receipts.len())
                .sum(),
        )
    }

    /// Handles an upstream controller's receipt for our segment report: a
    /// receipt from a target still pending — over that target's own
    /// channel — is buffered, and the buffer is verified as one batch once
    /// every pending target has answered (the retry sweep settles a buffer
    /// that never fills).
    pub(super) fn on_boundary_release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        m: Signed<ReleaseBody>,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let key = (m.payload.event, m.payload.segment);
        let sender = (m.payload.domain, m.msg_id.origin);
        let node = (sender.0, ControllerId(sender.1));
        if self.shared.dir.controller_node.get(&node) != Some(&from) {
            return;
        }
        let Some(w) = self.seg_reports.get_mut(&key) else {
            return;
        };
        if !w.pending_receipts.contains(&sender) {
            return;
        }
        match w.receipts.get(&sender) {
            // A retransmission of the buffered receipt.
            Some(held) if held.signature == m.signature => return,
            // Two different receipts under one sender: the buffered one may
            // be a forgery shadowing this one. Settle what is buffered now
            // (a forgery is thrown out, its sender stays pending), then
            // buffer the newcomer if its slot is open again.
            Some(_) => {
                self.settle_receipts(ctx, key);
                let Some(w) = self.seg_reports.get_mut(&key) else {
                    return;
                };
                if w.pending_receipts.contains(&sender) {
                    w.receipts.insert(sender, m);
                }
            }
            None => {
                w.receipts.insert(sender, m);
            }
        }
        if self
            .seg_reports
            .get(&key)
            .is_some_and(|w| w.receipts.len() == w.pending_receipts.len())
        {
            self.settle_receipts(ctx, key);
        }
    }

    /// Verifies the buffered receipts of one report in one batch and stops
    /// retransmitting to every target whose receipt verified under its
    /// claimed sender's identity key.
    fn settle_receipts(&mut self, ctx: &mut dyn Host<Net, Obs>, key: (EventId, u32)) {
        let receipts = match self.seg_reports.get_mut(&key) {
            Some(w) if !w.receipts.is_empty() => std::mem::take(&mut w.receipts),
            _ => return,
        };
        let items: Vec<(&Signed<ReleaseBody>, Peer)> = receipts
            .iter()
            .map(|(&(d, c), m)| (m, Peer::Controller(d, ControllerId(c))))
            .collect();
        let verdicts = self.auth.verify_batch(ctx, labels::RELEASE, &items);
        let Some(w) = self.seg_reports.get_mut(&key) else {
            return;
        };
        for (sender, valid) in receipts.keys().zip(verdicts) {
            if valid {
                w.pending_receipts.remove(sender);
            }
        }
        if w.pending_receipts.is_empty() {
            self.seg_reports.remove(&key);
        }
    }

    /// Earliest handshake retransmission deadline: segment reports still
    /// awaiting receipts, and (on the forwarding controller) barriers whose
    /// downstream domain may have lost the forwarded event.
    pub(super) fn handshake_next_due(&self) -> Option<SimTime> {
        let forwards = self.forwards.next_due().filter(|_| self.is_lowest());
        let due = [self.seg_reports.next_due(), forwards];
        due.into_iter().flatten().min()
    }

    /// Retransmits overdue handshake traffic (driven by the retry timer).
    pub(super) fn sweep_handshake(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let now = ctx.now();
        for r in self.seg_reports.sweep(now) {
            // A report whose budget is spent is abandoned with its watch.
            let Retry::Resend(key, attempt) = r else {
                continue;
            };
            // Receipts buffered for an overdue report are settled first, so
            // the retransmission only goes to targets that truly never
            // answered (or answered with a forgery).
            self.settle_receipts(ctx, key);
            self.resend_segment_report(ctx, key, attempt);
        }
        // Barriers still waiting on a quorum: the forwarded event (sent to
        // one downstream member) may have been lost, or its target crashed.
        // Re-forward to every member of the downstream domain; `seen_events`
        // dedups over there. Stamp our own domain as origin so receivers
        // verify against the actual forwarder's key.
        if !self.is_lowest() {
            return;
        }
        for r in self.forwards.sweep(now) {
            // Budget spent: the barrier keeps waiting, quietly.
            let Retry::Resend(key, attempt) = r else {
                continue;
            };
            let Some(exp) = self.barriers.get(&key).and_then(|st| st.expected.as_ref()) else {
                continue;
            };
            let downstream = exp.downstream;
            let event = Event {
                origin: self.domain,
                ..exp.event
            };
            // One signature for every copy: the digest covers the event,
            // not the addressee.
            let signed = self
                .auth
                .sign(ctx, labels::FORWARD, event, self.view.phase());
            let members = self.remote_members.get(&downstream);
            for &c in members.into_iter().flatten() {
                self.send_remote(ctx, downstream, c, Net::ForwardedEvent(signed.clone()));
            }
            ctx.observe(Obs::ForwardRetransmitted {
                domain: self.domain,
                controller: self.id.0,
                event: key.0,
                attempt,
            });
        }
    }

    /// Retransmits the (already signed) segment report to the targets that
    /// have not receipted (none left: the report settled meanwhile).
    fn resend_segment_report(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        key: (EventId, u32),
        attempt: u32,
    ) {
        let Some(w) = self.seg_reports.get(&key) else {
            return;
        };
        for &(d, c) in w.pending_receipts.iter() {
            let msg = Net::SegmentApplied(w.report.clone());
            self.send_remote(ctx, d, ControllerId(c), msg);
        }
        ctx.observe(Obs::SegmentRetransmitted {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
            attempt,
        });
    }
}
