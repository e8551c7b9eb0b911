//! The switch protocol runtime (paper Fig. 6 and §5.2).
//!
//! Switches forward flows from their tables, raise signed `PacketIn` events
//! on misses, buffer share-signed updates until a quorum of *identical*
//! updates arrives, aggregate-and-verify against the group public key, apply,
//! and acknowledge. The runtime is deliberately minimal — the paper's design
//! goal is "minimal switch instrumentation" — and all heavy operations charge
//! simulated CPU time so Fig. 11d's utilization comparison is reproducible.

use crate::auth::{Authenticator, Peer};
use crate::collector::{Quorum, QuorumCollector};
use crate::config::{tx_time, Aggregation, Mode};
use crate::msg::{AckBody, NackBody, Net, PhaseInfo, ReadyBody, SwitchWalRecord, UpdateBody};
use crate::obs::Obs;
use crate::runtime::{labels, Shared};
use blscrypto::bls::SecretKey;
use controller::membership::ControlPlaneView;
use controller::pending::{Retry, RetryTable};
use netmodel::flowtable::{FlowTable, Lookup};
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::time::{SimDuration, SimTime};
use southbound::codec::Wire;
use southbound::envelope::Signed;
use southbound::types::{
    DomainId, Event, EventId, EventKind, FlowAction, FlowId, FlowMatch, HostId, NetworkUpdate,
    Phase, SwitchId, UpdateId, UpdateKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use substrate::storage::{DiskHandle, Wal};

const RETRY: TimerToken = TimerToken(1);

/// How long a switch lets a below-quorum update bucket age before NACKing
/// the control plane for the missing shares.
const NACK_TIMEOUT: SimDuration = SimDuration::from_millis(150);

/// A signed event the switch keeps for retransmission until its effect is
/// visible in the flow table (reliable delivery layer). `LinkFailure`
/// events are deliberately *not* tracked: they have no local effect to
/// await, and the link-state convergence story is out of scope here (a
/// documented deviation, see DESIGN.md).
#[derive(Clone, Debug)]
struct PendingEvent {
    signed: Signed<Event>,
    /// The flow-table entry whose appearance (`PacketIn`) or disappearance
    /// (`FlowTeardown`) cancels the retransmission.
    matcher: FlowMatch,
    teardown: bool,
}

/// A flow parked at its ingress switch until the route is installed.
#[derive(Clone, Copy, Debug)]
struct WaitingFlow {
    flow: FlowId,
    start: SimTime,
    transit: SimDuration,
    bytes: u64,
}

/// An un-receipted Segway ready message, retransmitted with backoff until
/// the target switch's signed receipt arrives or the budget runs out.
#[derive(Clone, Debug)]
struct ReadyOut {
    signed: Signed<ReadyBody>,
    target: NodeId,
}

/// The switch actor.
///
/// Every update takes one path: *admit* (only the arrival form the run's
/// mode uses) → *authenticate* (that form's own check, through the
/// [`Authenticator`]) → *gate* → *apply* → *acknowledge* → *release*. The
/// three forms differ only in the second stage; each hands on a verified
/// [`UpdateBody`] — gates and notify list empty outside Segway — and the
/// number of signers behind it.
pub struct SwitchActor {
    shared: Arc<Shared>,
    id: SwitchId,
    domain: DomainId,
    auth: Authenticator,
    table: FlowTable,
    waiting: BTreeMap<FlowMatch, Vec<WaitingFlow>>,
    outstanding: BTreeSet<FlowMatch>,
    /// Update-body shares below quorum ([`QuorumCollector`] policy). The
    /// body includes the gate/notify metadata, so a quorum also vouches for
    /// the release order.
    buckets: QuorumCollector<UpdateId, UpdateBody>,
    applied: BTreeSet<UpdateId>,
    /// Signer indices seen per applied update: shares from signers *not*
    /// in here are the tail of the original broadcast (quorum fired before
    /// every controller's share landed) and must not trigger re-acks.
    applied_signers: BTreeMap<UpdateId, BTreeSet<u32>>,
    phase_info: PhaseInfo,
    event_seq: u64,
    /// Signed events awaiting their effect.
    pending_events: RetryTable<EventId, PendingEvent>,
    /// NACK (state re-sync request) clocks of below-quorum share buckets.
    nacks: RetryTable<UpdateId, ()>,
    /// Segway: outgoing readies awaiting a receipt, keyed `(gating update,
    /// target)`.
    ready_out: RetryTable<(UpdateId, SwitchId), ReadyOut>,
    retry_armed: bool,
    /// Verified bodies whose gates are not all open yet, with the signer
    /// count backing them.
    parked: BTreeMap<UpdateId, (UpdateBody, u32)>,
    /// Verified readies received: gating update → switches that announced
    /// applying it (a ready may arrive before its gated body does).
    ready_in: BTreeMap<UpdateId, BTreeSet<SwitchId>>,
    /// Every `(update, target)` ever released — the exactly-once-release
    /// guard. Survives receipt-driven `ready_out` removal, so duplicated
    /// quorum deliveries and replayed state never re-release a neighbor.
    ready_sent: BTreeSet<(UpdateId, SwitchId)>,
    /// Durable journal (attached by the executor; `None` = diskless).
    wal: Option<Wal>,
    /// Readies the WAL says were sent but never receipted, re-armed for
    /// retransmission on the post-restart `on_start`.
    recovered_readies: Vec<(UpdateId, SwitchId)>,
}

impl SwitchActor {
    /// Builds the actor for `id` in `domain`.
    pub fn new(
        shared: Arc<Shared>,
        id: SwitchId,
        domain: DomainId,
        key: Option<SecretKey>,
        phase_info: PhaseInfo,
    ) -> Self {
        let rel = shared.cfg.reliability;
        // One jitter stream per table, so the three clocks never align.
        let policy = |base, budget, rot: u32| {
            let jitter_seed = shared.cfg.seed ^ u64::from(id.0).rotate_left(rot);
            rel.policy(base, budget, jitter_seed)
        };
        SwitchActor {
            auth: Authenticator::new(Arc::clone(&shared), Peer::Switch(id), key, None),
            pending_events: RetryTable::new(policy(
                rel.event_retry_base,
                rel.event_retry_budget,
                29,
            )),
            nacks: RetryTable::new(policy(NACK_TIMEOUT, rel.nack_budget, 47)),
            ready_out: RetryTable::new(policy(rel.retry_base, rel.retry_budget, 13)),
            shared,
            id,
            domain,
            table: FlowTable::new(),
            waiting: BTreeMap::new(),
            outstanding: BTreeSet::new(),
            buckets: QuorumCollector::new(),
            applied: BTreeSet::new(),
            applied_signers: BTreeMap::new(),
            phase_info,
            event_seq: 0,
            retry_armed: false,
            parked: BTreeMap::new(),
            ready_in: BTreeMap::new(),
            ready_sent: BTreeSet::new(),
            wal: None,
            recovered_readies: Vec::new(),
        }
    }

    /// Attaches durable storage. Opens (and torn-tail-repairs) the WAL;
    /// with `recovering` set the records replay first — restoring the flow
    /// table, the applied-update dedup set, and the Segway release ledger
    /// (`ready_sent` / `ready_in`) — so a restarted switch never
    /// re-releases a neighbor it already released, and never forgets a
    /// ready it receipted (the sender stopped retransmitting on that
    /// receipt). Sent-but-unreceipted readies are queued for retransmission
    /// on the next `on_start`. A fresh boot finds an empty WAL and this is
    /// a no-op beyond arming the log.
    pub fn attach_disk(&mut self, disk: DiskHandle, recovering: bool) {
        let (wal, tail) = Wal::open(disk, "switch.wal");
        self.wal = Some(wal);
        if !recovering {
            return;
        }
        let mut records = Vec::new();
        for frame in tail {
            if let Ok(r) = SwitchWalRecord::from_wire(&frame) {
                records.push(r);
            }
        }
        let mut receipted: BTreeSet<(UpdateId, SwitchId)> = BTreeSet::new();
        for r in &records {
            if let SwitchWalRecord::ReadyReceipted { update, to } = r {
                receipted.insert((*update, *to));
            }
        }
        for r in records {
            match r {
                SwitchWalRecord::Applied { update, .. } => {
                    if self.applied.insert(update.id) {
                        self.table.apply(&update);
                    }
                }
                SwitchWalRecord::ReadySent { update, to } => {
                    if self.ready_sent.insert((update, to)) && !receipted.contains(&(update, to))
                    {
                        self.recovered_readies.push((update, to));
                    }
                }
                SwitchWalRecord::ReadyReceipted { .. } => {}
                SwitchWalRecord::ReadyIn { update, from } => {
                    self.ready_in.entry(update).or_default().insert(from);
                }
            }
        }
    }

    /// Appends one record to the WAL (no-op without attached storage).
    fn log_record(&mut self, rec: &SwitchWalRecord) {
        if let Some(w) = self.wal.as_mut() {
            w.append(&rec.to_wire());
        }
    }

    /// Signed events still awaiting their effect, plus un-receipted Segway
    /// readies still being retransmitted (watchdog / tests).
    pub fn outstanding_event_count(&self) -> usize {
        self.pending_events.len() + self.ready_out.len()
    }

    /// Read access to the flow table (tests, examples).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The updates applied so far (tests).
    pub fn applied_count(&self) -> usize {
        self.applied.len()
    }

    /// The control-plane phase, quorum and aggregator this switch follows.
    pub fn phase_info(&self) -> PhaseInfo {
        self.phase_info
    }

    fn fresh_event_id(&mut self) -> EventId {
        self.event_seq += 1;
        EventId(((self.id.0 as u64) << 32) | self.event_seq)
    }

    /// Where events go: the aggregator (controller aggregation) or the whole
    /// domain control plane.
    fn event_targets(&self) -> Vec<NodeId> {
        let dir = &self.shared.dir;
        match self.shared.cfg.mode {
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            } => vec![dir.controller(self.domain, self.phase_info.aggregator)],
            _ => dir.domain_controller_nodes(self.domain),
        }
    }

    fn raise_event(&mut self, ctx: &mut dyn Host<Net, Obs>, kind: EventKind) {
        let event = Event {
            id: self.fresh_event_id(),
            kind,
            origin: self.domain,
            forwarded: false,
        };
        let signed = self
            .auth
            .sign(ctx, labels::EVENT, event, self.phase_info.phase);
        for node in self.event_targets() {
            ctx.send(node, Net::EventMsg(signed.clone()));
        }
        // Track events whose effect we can await locally, for
        // retransmission if the control plane never answers.
        if self.shared.cfg.reliability.enabled {
            let track = match event.kind {
                EventKind::PacketIn { src, dst, .. } => Some((FlowMatch { src, dst }, false)),
                EventKind::FlowTeardown { src, dst, .. } => {
                    Some((FlowMatch { src, dst }, true))
                }
                _ => None,
            };
            if let Some((matcher, teardown)) = track {
                let pending = PendingEvent {
                    signed,
                    matcher,
                    teardown,
                };
                let jitter_id = UpdateId {
                    event: event.id,
                    seq: 0,
                };
                self.pending_events
                    .insert(event.id, jitter_id, pending, ctx.now());
                self.arm_retry(ctx);
            }
        }
    }

    fn complete_waiters(&mut self, ctx: &mut dyn Host<Net, Obs>, m: FlowMatch) {
        let Some(waiters) = self.waiting.remove(&m) else {
            return;
        };
        let action = self.table.rule(m);
        for w in waiters {
            match action {
                Some(FlowAction::Forward(_)) => {
                    let delay = w.transit + tx_time(w.bytes);
                    ctx.send_delayed(
                        ctx.id(),
                        Net::FlowDone {
                            flow: w.flow,
                            start: w.start,
                            src: m.src,
                            dst: m.dst,
                        },
                        delay,
                    );
                }
                Some(FlowAction::Deny) => ctx.observe(Obs::FlowDenied { flow: w.flow }),
                None => {
                    // Rule disappeared before the waiters drained (teardown
                    // race); re-queue via a fresh event.
                    self.waiting.entry(m).or_default().push(w);
                }
            }
        }
        if self.waiting.get(&m).is_none_or(|v| v.is_empty()) {
            self.outstanding.remove(&m);
        }
    }

    // ----- authenticate: the three arrival forms ---------------------------

    /// Front door of the forms that arrive already aggregated (or
    /// unauthenticated): a copy of an applied update means some controller
    /// has not seen our acknowledgement. `true` for a first copy.
    fn first_copy(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) -> bool {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        if self.applied.contains(&update.id) {
            self.reack(ctx, update);
            return false;
        }
        true
    }

    /// Front door of the share form: re-acks a retransmitted share of an
    /// applied update, drops shares of another phase or of a body already
    /// parked on its gates, and starts the NACK clock. `true` when the
    /// share should be collected.
    fn admit_share(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        phase: Phase,
        signer: u32,
    ) -> bool {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        if self.applied.contains(&update.id) {
            let fresh = self
                .applied_signers
                .entry(update.id)
                .or_default()
                .insert(signer);
            if !fresh {
                // Second share from the same signer after apply: that
                // controller is retransmitting, so our ack was lost.
                self.reack(ctx, update);
            }
            return false;
        }
        // A parked body's quorum is already proven; it waits on its gates.
        if phase != self.phase_info.phase || self.parked.get(&update.id).is_some() {
            return false;
        }
        if self.shared.cfg.reliability.enabled && !self.nacks.contains(&update.id) {
            // Start the NACK clock the moment the first share arrives: if
            // the bucket is still below quorum when it fires, ask the
            // control plane to re-send the missing shares.
            self.nacks.insert(update.id, update.id, (), ctx.now());
            self.arm_retry(ctx);
        }
        true
    }

    /// Reports an update refused at the front door or by its form's check.
    fn reject(&self, ctx: &mut dyn Host<Net, Obs>, update: UpdateId) {
        ctx.observe(Obs::UpdateRejected {
            switch: self.id,
            update,
        });
    }

    /// Switch-side aggregation (paper Fig. 6b): what collecting one more
    /// share of `id` came to — aggregate, verify, hand the body on.
    fn on_quorum(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        id: UpdateId,
        outcome: Quorum<UpdateBody>,
    ) {
        ctx.charge_cpu(self.auth.quorum_cost(&outcome));
        match outcome {
            Quorum::Below => {}
            Quorum::Rejected { .. } => self.reject(ctx, id),
            Quorum::Certified(cert) => {
                let n_signers = cert.signers.len() as u32;
                self.applied_signers
                    .insert(id, cert.signers.into_iter().collect());
                self.deliver(ctx, cert.payload, n_signers);
            }
        }
    }

    // ----- gate → apply → acknowledge → release ----------------------------

    /// Ready-gating is the Segway analogue of the cross-domain ordering
    /// handshake, so the same config knob disables it for control runs
    /// (which then exhibit the transient black holes gating prevents).
    fn gating_enabled(&self) -> bool {
        self.shared.cfg.cross_domain_handshake
    }

    /// All of `body`'s gates are open: each prerequisite update was either
    /// applied locally or announced by its designated switch with a
    /// verified ready.
    fn gates_open(&self, body: &UpdateBody) -> bool {
        if !self.gating_enabled() {
            return true;
        }
        body.gates.iter().all(|&(u, s)| {
            (s == self.id && self.applied.contains(&u))
                || self.ready_in.get(&u).is_some_and(|set| set.contains(&s))
        })
    }

    /// Gate: a verified body goes in once its gates are open, and waits in
    /// `parked` until then. `signers` is the quorum evidence backing it.
    fn deliver(&mut self, ctx: &mut dyn Host<Net, Obs>, body: UpdateBody, signers: u32) {
        if self.gates_open(&body) {
            self.apply(ctx, body, signers);
            self.release_parked(ctx);
        } else {
            self.parked.insert(body.update.id, (body, signers));
        }
    }

    /// A verified ready may open gates of parked bodies; applying one may
    /// in turn open local gates of another, so drain to a fixpoint.
    fn release_parked(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        loop {
            let next = self
                .parked
                .iter()
                .find(|(_, (b, _))| self.gates_open(b))
                .map(|(&k, _)| k);
            let Some(k) = next else {
                return;
            };
            let (body, signers) = self.parked.remove(&k).expect("just found");
            self.apply(ctx, body, signers);
        }
    }

    /// Applies the update, acknowledges it, and releases the switches its
    /// `notify` list names. `signers` is reported in the observation stream
    /// for security auditing (see [`Obs::UpdateApplied`]).
    fn apply(&mut self, ctx: &mut dyn Host<Net, Obs>, body: UpdateBody, signers: u32) {
        let update = body.update;
        if !self.applied.insert(update.id) {
            return;
        }
        self.nacks.remove(&update.id);
        self.table.apply(&update);
        self.log_record(&SwitchWalRecord::Applied { update, signers });
        ctx.observe(Obs::UpdateApplied {
            switch: self.id,
            update: update.id,
            kind: update.kind,
            signers,
        });
        // The update's effect cancels any event retransmission awaiting it.
        match update.kind {
            UpdateKind::Install(rule) => {
                self.pending_events
                    .retain(|_, p| p.teardown || p.matcher != rule.matcher);
                self.outstanding.remove(&rule.matcher);
                self.complete_waiters(ctx, rule.matcher);
            }
            UpdateKind::Remove(matcher) => self
                .pending_events
                .retain(|_, p| !p.teardown || p.matcher != matcher),
        }
        self.send_ack(ctx, update);
        if self.gating_enabled() {
            for to in body.notify {
                // Exactly-once release: a neighbor is released at most once
                // per gating update no matter how often the quorum re-fires.
                if to != self.id && self.ready_sent.insert((update.id, to)) {
                    // Write-ahead: the release is durable before it can be
                    // observed, so a crash between journal and send re-sends
                    // (at-least-once on the wire) rather than re-releasing
                    // (exactly-once in the set).
                    self.log_record(&SwitchWalRecord::ReadySent {
                        update: update.id,
                        to,
                    });
                    self.send_ready(ctx, update.id, to, true);
                }
            }
            self.arm_retry(ctx);
        }
    }

    fn send_ack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) {
        let body = AckBody {
            update: update.id,
            switch: self.id,
        };
        let signed = self
            .auth
            .sign(ctx, labels::ACK, body, self.phase_info.phase);
        for node in self.shared.dir.domain_controller_nodes(self.domain) {
            ctx.send(node, Net::AckMsg(signed.clone()));
        }
    }

    /// A duplicate of an already-applied update means some controller has
    /// not seen our acknowledgement — re-send it (ack-loss recovery).
    fn reack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) {
        if !self.shared.cfg.reliability.enabled {
            return;
        }
        ctx.observe(Obs::AckRetransmitted {
            switch: self.id,
            update: update.id,
        });
        self.send_ack(ctx, update);
    }

    /// Signs the ready releasing `to` on `update` and keeps it for
    /// retransmission until receipted (the caller arms the timer once its
    /// batch is in). A `first` send is announced and goes
    /// on the wire now; the restart half of crash recovery passes `false`:
    /// the release already happened in a previous life, so the ready only
    /// re-enters the retry table and the sweep emits `ReadyRetransmitted`
    /// like any other retry.
    fn send_ready(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: UpdateId,
        to: SwitchId,
        first: bool,
    ) {
        let ready = ReadyBody {
            update,
            from: self.id,
            to,
        };
        let signed = self
            .auth
            .sign(ctx, labels::READY, ready, self.phase_info.phase);
        let target = self.shared.dir.switch(to);
        if first {
            ctx.observe(Obs::ReadySent {
                from: self.id,
                to,
                update,
            });
            ctx.send(target, Net::SegwayReady(signed.clone()));
        }
        if self.shared.cfg.reliability.enabled {
            let out = ReadyOut { signed, target };
            self.ready_out.insert((update, to), update, out, ctx.now());
        }
    }

    /// A neighbor announces it applied a gating update. Rejected when the
    /// `to` binding names someone else (a replay at the wrong victim), the
    /// signature fails, or the sender is not the gate's designated switch
    /// — the structural checks also bite under
    /// [`crate::config::CryptoMode::Modeled`], where signatures are vacuous.
    fn on_ready(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: Signed<ReadyBody>) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let body = msg.payload;
        // If a parked body names a different switch for this gate, the
        // sender is impersonating the designated releaser.
        let names_other = |b: &UpdateBody| {
            let mut gates = b.gates.iter();
            gates.any(|&(u, s)| u == body.update && s != body.from)
        };
        let valid = body.to == self.id
            && body.from != self.id
            && self
                .auth
                .verify(ctx, labels::READY, &msg, Peer::Switch(body.from))
            && !self.parked.values().any(|(b, _)| names_other(b));
        if !valid {
            ctx.observe(Obs::ReadyRejected {
                switch: self.id,
                update: body.update,
                from: body.from,
            });
            return;
        }
        // Receipt every valid ready (idempotent for duplicates) so the
        // sender stops retransmitting.
        let receipt = self
            .auth
            .sign(ctx, labels::READY_RECEIPT, body, self.phase_info.phase);
        // The receipt promises the sender it can stop retransmitting, so
        // the accepted ready must be durable before the receipt is sent.
        if self
            .ready_in
            .entry(body.update)
            .or_default()
            .insert(body.from)
        {
            self.log_record(&SwitchWalRecord::ReadyIn {
                update: body.update,
                from: body.from,
            });
        }
        let sender = self.shared.dir.switch(body.from);
        ctx.send(sender, Net::SegwayReadyAck(receipt));
        self.release_parked(ctx);
    }

    /// The target switch receipted a ready we sent: stop retransmitting it.
    fn on_ready_ack(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: Signed<ReadyBody>) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let body = msg.payload;
        let key = (body.update, body.to);
        if body.from != self.id || !self.ready_out.contains(&key) {
            return;
        }
        if self
            .auth
            .verify(ctx, labels::READY_RECEIPT, &msg, Peer::Switch(body.to))
        {
            self.ready_out.remove(&key);
            self.log_record(&SwitchWalRecord::ReadyReceipted {
                update: key.0,
                to: key.1,
            });
        }
    }

    // ----- reliable delivery: one timer over the three retry tables --------

    /// Arms the retry timer for the earliest pending deadline. One timer is
    /// outstanding at a time; it re-arms itself from `on_timer`.
    fn arm_retry(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if self.retry_armed {
            return;
        }
        let next = [
            self.pending_events.next_due(),
            self.nacks.next_due(),
            self.ready_out.next_due(),
        ];
        let Some(due) = next.into_iter().flatten().min() else {
            return;
        };
        ctx.set_timer(due.since(ctx.now()), RETRY);
        self.retry_armed = true;
    }

    fn sweep(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let now = ctx.now();
        for r in self.pending_events.sweep(now) {
            match r {
                Retry::Exhausted(event) => ctx.observe(Obs::EventRetryExhausted {
                    switch: self.id,
                    event,
                }),
                Retry::Resend(event, attempt) => {
                    ctx.observe(Obs::EventRetransmitted {
                        switch: self.id,
                        event,
                        attempt,
                    });
                    let p = self.pending_events.get(&event).expect("resent, so kept");
                    for node in self.event_targets() {
                        ctx.send(node, Net::EventMsg(p.signed.clone()));
                    }
                }
            }
        }
        for r in self.nacks.sweep(now) {
            // An exhausted clock just stops NACKing; the controllers' own
            // retransmission (and its exhaustion report) is the backstop.
            let Retry::Resend(id, _) = r else {
                continue;
            };
            // The bucket may have reached quorum (applied) or been pruned by
            // a phase change in the meantime.
            let have = self.buckets.have(id, self.phase_info.phase);
            if self.applied.contains(&id) || have == 0 {
                self.nacks.remove(&id);
                continue;
            }
            self.send_nack(ctx, id, have as u32);
        }
        for r in self.ready_out.sweep(now) {
            // An exhausted ready is dropped; the controller's own update
            // retry (and its exhaustion report) remains the backstop for
            // the stalled downstream segment.
            let Retry::Resend(key, attempt) = r else {
                continue;
            };
            ctx.observe(Obs::ReadyRetransmitted {
                from: self.id,
                to: key.1,
                update: key.0,
                attempt,
            });
            let out = self.ready_out.get(&key).expect("resent, so kept");
            ctx.send(out.target, Net::SegwayReady(out.signed.clone()));
        }
    }

    fn send_nack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: UpdateId, have: u32) {
        let body = NackBody {
            update,
            switch: self.id,
            have,
        };
        let signed = self
            .auth
            .sign(ctx, labels::NACK, body, self.phase_info.phase);
        ctx.observe(Obs::NackSent {
            switch: self.id,
            update,
            have,
        });
        for node in self.shared.dir.domain_controller_nodes(self.domain) {
            ctx.send(node, Net::UpdateNack(signed.clone()));
        }
    }

    fn on_flow_arrival(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        bytes: u64,
        transit: SimDuration,
        start: SimTime,
    ) {
        let m = FlowMatch { src, dst };
        match self.table.lookup(m) {
            Lookup::Action(FlowAction::Forward(_)) => {
                let delay = transit + tx_time(bytes);
                ctx.send_delayed(
                    ctx.id(),
                    Net::FlowDone {
                        flow,
                        start,
                        src,
                        dst,
                    },
                    delay,
                );
            }
            Lookup::Action(FlowAction::Deny) => {
                ctx.observe(Obs::FlowDenied { flow });
            }
            Lookup::Miss => {
                self.waiting.entry(m).or_default().push(WaitingFlow {
                    flow,
                    start,
                    transit,
                    bytes,
                });
                if self.outstanding.insert(m) {
                    self.raise_event(
                        ctx,
                        EventKind::PacketIn {
                            switch: self.id,
                            flow,
                            src,
                            dst,
                        },
                    );
                }
            }
        }
    }
}

impl Actor<Net, Obs> for SwitchActor {
    fn on_start(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        // Resume retransmitting readies the WAL says were sent but never
        // receipted.
        for (update, to) in std::mem::take(&mut self.recovered_readies) {
            self.send_ready(ctx, update, to, false);
        }
        self.arm_retry(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        if token != RETRY {
            return;
        }
        self.retry_armed = false;
        self.sweep(ctx);
        self.arm_retry(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, _from: NodeId, msg: Net) {
        let quorum = self.phase_info.quorum as usize;
        // An update is admitted only in the arrival form the run's mode
        // uses. Each form's check is sound only where it is the mode's own
        // — a plain update carries no proof at all — so any other form is
        // somebody going around the quorum, whatever it claims to carry.
        let form = match &msg {
            Net::UpdatePlain(b) => Some((b.update.id, None)),
            Net::UpdateMsg(m) => Some((m.payload.update.id, Some(Aggregation::Switch))),
            Net::UpdateAggregated(m) => Some((m.payload.update.id, Some(Aggregation::Controller))),
            _ => None,
        };
        if let Some((update, form)) = form {
            if form != self.shared.cfg.mode.aggregation() {
                ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
                return self.reject(ctx, update);
            }
        }
        match msg {
            Net::FlowArrival {
                flow,
                src,
                dst,
                bytes,
                transit,
                start,
            } => self.on_flow_arrival(ctx, flow, src, dst, bytes, transit, start),
            Net::FlowDone {
                flow,
                start,
                src,
                dst,
            } => {
                ctx.observe(Obs::FlowCompleted { flow, start });
                if !self.shared.cfg.rule_reuse {
                    self.raise_event(ctx, EventKind::FlowTeardown { flow, src, dst });
                }
            }
            // Unauthenticated baseline: one controller's word.
            Net::UpdatePlain(body) => {
                if self.first_copy(ctx, body.update) {
                    self.deliver(ctx, body, 1);
                }
            }
            // Controller aggregation (paper Fig. 7c): one verification of a
            // pre-aggregated signature. A verified aggregate only exists if
            // `quorum` valid partials were combined with the right Lagrange
            // weights.
            Net::UpdateAggregated(m) => {
                if !self.first_copy(ctx, m.payload.update) {
                    return;
                }
                if self.auth.verify_group(ctx, labels::UPDATE, &m) {
                    self.deliver(ctx, m.payload, quorum as u32);
                } else {
                    self.reject(ctx, m.payload.update.id);
                }
            }
            // Switch aggregation (paper Fig. 6b): buffer share-signed bodies
            // until a quorum of identical ones. Under Segway the body also
            // carries the threshold-signed gate/notify metadata.
            Net::UpdateMsg(m) => {
                let u = m.payload.update;
                if self.admit_share(ctx, u, m.phase, m.partial.index) {
                    let q = self.auth.collect(
                        &mut self.buckets,
                        u.id,
                        m,
                        labels::UPDATE,
                        quorum,
                        self.domain,
                    );
                    self.on_quorum(ctx, u.id, q);
                }
            }
            Net::SegwayReady(m) => self.on_ready(ctx, m),
            Net::SegwayReadyAck(m) => self.on_ready_ack(ctx, m),
            Net::LinkDown { a, b } => {
                self.raise_event(ctx, EventKind::LinkFailure { a, b });
            }
            Net::PhaseNotice(m) => {
                let valid = self.auth.verify_group(ctx, labels::PHASE, &m);
                if valid && m.payload.phase > self.phase_info.phase {
                    self.phase_info = m.payload;
                    // Stale aggregation buckets from the old phase die here.
                    self.buckets.retain_phase(m.payload.phase);
                }
            }
            // Messages not addressed to switches are ignored defensively.
            _ => {}
        }
    }
}

/// Helper used by engine/tests to build the view-consistent initial phase
/// info for a domain.
pub fn initial_phase_info(view: &ControlPlaneView) -> PhaseInfo {
    PhaseInfo {
        phase: view.phase(),
        quorum: view.quorum() as u32,
        aggregator: view.aggregator(),
    }
}
