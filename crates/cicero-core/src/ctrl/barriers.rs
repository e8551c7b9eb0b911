//! The cross-domain ordering handshake (DESIGN.md §3): barriers held for
//! foreign segments and released on `⌊(n−1)/3⌋+1` segment reports from
//! distinct members of the downstream domain, each tag-checked under its
//! sender's own slot; reports of own segments foreign updates depend on,
//! one body tagged once per upstream controller, sent once and kept, and
//! re-sent to whoever re-forwards the event — the re-forward of a
//! controller still waiting on this domain (`ctrl/events.rs`) is the one
//! recovery loop that keeps the handshake live under loss.

use super::ControllerActor;
use crate::auth::Peer;
use crate::msg::{Net, SegmentBody, UpdateBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::scheduler::{Projected, ScheduledUpdate};
use simnet::node::{Host, NodeId};
use simnet::time::SimDuration;
use southbound::envelope::{MsgId, Tagged};
use southbound::types::{ControllerId, DomainId, Event, EventId, Phase, UpdateId};
use std::collections::{BTreeMap, BTreeSet};

/// Synthetic dependency ids standing for "a foreign domain's path segment
/// has been applied". Real per-event sequence numbers are tiny, so the top
/// of the `u32` range is free for barriers.
const BARRIER_SEQ_BASE: u32 = 0xFFFF_0000;

/// The synthetic dependency id of `event`'s foreign segment `segment`.
pub fn barrier_id(event: EventId, segment: u32) -> UpdateId {
    UpdateId {
        event,
        seq: BARRIER_SEQ_BASE + segment,
    }
}

/// What the barrier on `(event, segment)` waits for, once our own schedule
/// raised it (its reports may come first and wait in `reports`). It is
/// released once its id is acknowledged.
pub(super) struct Barrier {
    /// The domain whose segment must apply before the barrier releases.
    downstream: DomainId,
    /// Distinct downstream signers required.
    quorum: usize,
}

/// Downstream half of the handshake, first stage: waits until every update
/// of an own segment is switch-acked.
pub(super) struct SegWatch {
    /// Own-segment updates not yet switch-acked.
    pub(super) remaining: BTreeSet<UpdateId>,
    /// Domains holding a barrier on this segment.
    upstreams: Vec<DomainId>,
}

/// Downstream half, second stage: a drained segment's report as sent — one
/// body and one id, tagged once for each controller of every domain holding
/// a barrier on it. Kept (`seg_sent`) so an upstream controller still
/// waiting can have its copy again by re-forwarding the event
/// (a forwarded [`Net::EventMsg`]), for exactly as long as the upstream side's
/// `barriers` entry of that key lives; a restart rebuilds it by replaying
/// the acks that drained the segment.
pub(super) struct Report {
    /// Domains holding a barrier on this segment — whose controllers may ask.
    upstreams: Vec<DomainId>,
    /// The report, its phase and its id, shared by every copy.
    body: SegmentBody,
    phase: Phase,
    msg_id: MsgId,
    /// The copy tagged for each upstream controller.
    copies: BTreeMap<(DomainId, ControllerId), Tagged<SegmentBody>>,
}

impl ControllerActor {
    /// Every mode but Segway: the controllers enforce the projected
    /// dependencies themselves. Own prerequisites are held in the
    /// pending-update tracker; foreign ones become per-segment barrier ids
    /// (acked when a quorum of the owning domain reports the segment
    /// applied), and watches are registered for own segments that foreign
    /// updates wait on, so this controller reports them upstream once they
    /// drain. In Cicero an update with dependencies is *held*: its body
    /// says so, the whole schedule is one set signed and sent at admission,
    /// and what the drained dependencies release is the controllers' tagged
    /// word for a held update.
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
        let mut bodies = Vec::new();
        let holds = self.shared.cfg.holds_at_switch();
        for p in &projected {
            let mut deps: BTreeSet<UpdateId> = p.local.iter().map(|&(u, _)| u).collect();
            for f in &p.foreign {
                deps.insert(barrier_id(event.id, f.segment));
                barrier_deps.insert(f.segment, f.domain);
            }
            if !p.upstream.is_empty() {
                watched.entry(p.segment).or_default().extend(&p.upstream);
            }
            let held = holds && !deps.is_empty();
            if held {
                let (domain, controller, update) = (self.domain, self.id.0, p.update.id);
                for &dep in &deps {
                    ctx.observe(Obs::UpdateHeld { domain, controller, update, dep });
                }
            }
            let (gates, notify) = (Vec::new(), Vec::new());
            bodies.push(UpdateBody { update: p.update, gates, notify, held });
            schedule.push(ScheduledUpdate {
                update: p.update,
                deps,
            });
        }
        if holds {
            self.open_set(event.id, bodies);
        }
        for (k, downstream) in barrier_deps {
            let key = (event.id, k);
            if !self.barriers.contains_key(&key) {
                let quorum = self.downstream_quorum(downstream);
                self.barriers.insert(key, Barrier { downstream, quorum });
                self.reports.register(key);
            }
            self.check_barrier_release(ctx, key, SimDuration::ZERO);
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

    /// `true` iff `quorum` members of `domain` reported segment `key`.
    fn certified(&self, key: (EventId, u32), domain: DomainId, quorum: usize) -> bool {
        self.reports.senders(key).filter(|&(d, _)| d == domain).count() >= quorum
    }

    /// `true` iff barrier `key` is released: its id is acknowledged.
    fn released(&self, (event, segment): (EventId, u32)) -> bool {
        self.pending.is_acked(barrier_id(event, segment))
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
        let Some(b) = self.barriers.get(&key) else {
            return;
        };
        if self.released(key) || !self.certified(key, b.downstream, b.quorum) {
            return;
        }
        ctx.observe(Obs::BoundaryReleased {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        let ready = self.pending.ack(barrier_id(key.0, key.1), ctx.now());
        for u in ready {
            self.release(ctx, u, extra);
        }
        self.retire_forward(key.0);
        self.arm_retry(ctx);
    }

    /// Takes the acked `update` off the own-segment watches and reports
    /// every segment it drained (live acks, and muted on crash-recovery
    /// replay — which is what rebuilds the kept reports).
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

    /// The one unsolicited transmission of a drained segment's report to
    /// every controller of every upstream domain holding a barrier on it:
    /// one body, one id, one tag per recipient under the key shared with it.
    /// The copies are kept: whoever misses its copy re-forwards the event and
    /// has it again ([`Self::answer_reforward`]).
    fn start_segment_report(&mut self, ctx: &mut dyn Host<Net, Obs>, key: (EventId, u32)) {
        let Some(w) = self.seg_watch.remove(&key) else {
            return;
        };
        let mut report = Report {
            body: SegmentBody {
                event: key.0,
                segment: key.1,
                domain: self.domain,
            },
            phase: self.view.phase(),
            msg_id: self.auth.next_msg_id(),
            copies: BTreeMap::new(),
            upstreams: w.upstreams,
        };
        for &d in &report.upstreams {
            for &c in self.remote_members.get(&d).into_iter().flatten() {
                let to = Peer::Controller(d, c);
                let (body, phase, id) = (report.body, report.phase, report.msg_id);
                if let Some(copy) = self.auth.tag(ctx, labels::SEGMENT, body, phase, id, to) {
                    self.send_remote(ctx, d, c, Net::SegmentApplied(copy.clone()));
                    report.copies.insert((d, c), copy);
                }
            }
        }
        ctx.observe(Obs::SegmentReported {
            domain: self.domain,
            controller: self.id.0,
            event: key.0,
            segment: key.1,
        });
        self.seg_sent.keep(key, report);
    }

    /// Answers a re-forward of `event`, which this controller has delivered:
    /// its sender still waits on this domain, and what it can lack from here
    /// is the event's segment reports. Answered only over the channel of a
    /// current member of a domain upstream of a segment, with the copy kept
    /// for it, to the sender alone — one reply per kept report per
    /// re-forward, nothing checked on either side, and nothing tagged but
    /// the first copy for a member that joined after the report. A segment
    /// not drained yet has no report to send; the sender gets it unsolicited
    /// when it drains.
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
        let keys: Vec<_> = self.seg_sent.keys((event, 0)..=(event, u32::MAX)).copied().collect();
        for key in keys {
            let auth = &mut self.auth;
            // The copy kept for the asker, or one tagged now and kept — for a
            // member that joined since. Nothing when the pair has no key.
            let asks = |r: &mut Report| {
                if r.upstreams.contains(&d) && !r.copies.contains_key(&(d, c)) {
                    let to = Peer::Controller(d, c);
                    let copy = auth.tag(ctx, labels::SEGMENT, r.body, r.phase, r.msg_id, to);
                    r.copies.extend(copy.map(|copy| ((d, c), copy)));
                }
                r.copies.contains_key(&(d, c))
            };
            let whole = || unreachable!("a report is kept whole");
            let Some((report, attempt)) = self.seg_sent.resend(&key, asks, whole) else {
                continue;
            };
            ctx.send(from, Net::SegmentApplied(report.copies[&(d, c)].clone()));
            ctx.observe(Obs::SegmentRetransmitted {
                domain,
                controller,
                event,
                segment: key.1,
                attempt,
            });
        }
    }

    /// Handles a downstream controller's segment report.
    ///
    /// A report counts only under its sender's own slot — over the channel
    /// of the controller its `msg_id` names, a current member of the
    /// reporting domain — so nobody can report for (or crowd out) another
    /// member. Once the barrier's quorum is on record, or this sender is, a
    /// report changes nothing and is dropped before its tag is checked; so
    /// is one for a barrier not registered here while its sender already has
    /// [`controller::pending::MAX_EARLY`] such reports on record. Otherwise
    /// the tag is checked under the key the sender shares with this
    /// controller; a verified sender is logged and may release the barrier.
    pub(super) fn on_segment_applied(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        m: Tagged<SegmentBody>,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let body = m.payload;
        let signer = ControllerId(m.msg_id.origin);
        let sender = Peer::Controller(body.domain, signer);
        let members = self.remote_members.get(&body.domain);
        let member = members.is_some_and(|ms| ms.contains(&signer));
        if body.domain == self.domain || !member || self.shared.dir.peer(from) != Some(sender) {
            return;
        }
        let key = (body.event, body.segment);
        let quorum = self.downstream_quorum(body.domain);
        let admitted = self.reports.admits(key, (body.domain, signer.0));
        if self.certified(key, body.domain, quorum) || !admitted {
            return;
        }
        // Like every controller-side check, the tag check is modeled as
        // latency on what it releases, not serialized CPU (the paper's
        // controllers are 12-core machines).
        let Some(verify_latency) = self.auth.verify_tag(ctx, labels::SEGMENT, &m, sender) else {
            return;
        };
        // A verified signer is a durable fact, logged before the release it
        // may permit: a restarted controller must not demand the quorum twice
        // (nor release without it).
        self.reports.record(key, (body.domain, signer.0));
        self.log_record(&WalRecord::BarrierSigner {
            barrier: barrier_id(body.event, body.segment),
            domain: body.domain,
            controller: signer,
        });
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
        self.reports.record(key, (domain, controller.0));
        self.check_barrier_release(ctx, key, SimDuration::ZERO);
    }

    /// Every verified barrier signer, as WAL records (snapshot body).
    pub(super) fn barrier_signer_records(&self) -> Vec<WalRecord> {
        let signer = |((event, segment), (domain, c))| {
            let (barrier, controller) = (barrier_id(event, segment), ControllerId(c));
            WalRecord::BarrierSigner { barrier, domain, controller }
        };
        self.reports.iter().map(signer).collect()
    }

    /// `true` when the cross-domain handshake holds no unfinished work:
    /// every registered barrier released and every own-segment watch
    /// reported (snapshot quiescence check).
    pub(super) fn handshake_idle(&self) -> bool {
        self.barriers.keys().all(|&key| self.released(key)) && self.seg_watch.is_empty()
    }

    /// The verified downstream signers on record for barrier `(event,
    /// segment)`, as `(domain, controller)` (tests).
    pub fn barrier_signers(&self, event: EventId, segment: u32) -> Vec<(DomainId, u32)> {
        self.reports.senders((event, segment)).collect()
    }

    /// Barriers released so far (tests).
    pub fn barriers_released(&self) -> usize {
        self.barriers.keys().filter(|&&key| self.released(key)).count()
    }

    /// Entries in each handshake structure: barrier keys, kept forwards,
    /// own-segment watches, kept reports (tests: what unauthenticated
    /// traffic can make us remember).
    pub fn handshake_footprint(&self) -> [usize; 4] {
        [
            self.reports.len(),
            self.forwards.len(),
            self.seg_watch.len(),
            self.seg_sent.keys(..).count(),
        ]
    }
}
