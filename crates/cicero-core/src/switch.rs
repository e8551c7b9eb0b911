//! The switch protocol runtime (paper Fig. 6 and §5.2).
//!
//! Switches forward flows from their tables, raise signed `PacketIn` events
//! on misses, buffer share-signed updates until a quorum of *identical*
//! updates arrives, aggregate-and-verify against the group public key, apply,
//! and acknowledge. The runtime is deliberately minimal — the paper's design
//! goal is "minimal switch instrumentation" — and all heavy operations charge
//! simulated CPU time so Fig. 11d's utilization comparison is reproducible.

use crate::collector::{Check, Quorum, QuorumCollector};
use crate::config::{Aggregation, Mode};
use crate::msg::{AckBody, NackBody, Net, PhaseInfo, ReadyBody, SegwayBody, SwitchWalRecord};
use crate::obs::Obs;
use crate::runtime::{labels, Shared};
use blscrypto::bls::SecretKey;
use controller::membership::ControlPlaneView;
use controller::pending::RetryPolicy;
use netmodel::flowtable::{FlowTable, Lookup};
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::time::{SimDuration, SimTime};
use southbound::envelope::{verify_signed_batch, MsgId, QuorumSigned, ShareSigned, Signed};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, EventKind, FlowAction, FlowId, FlowMatch,
    HostId, NetworkUpdate, Phase, SwitchId, UpdateKind,
};
use southbound::codec::Wire;
use std::collections::BTreeMap;
use substrate::collections::{DetMap, DetSet};
use substrate::storage::{DiskHandle, Wal};
use std::sync::Arc;

const RETRY: TimerToken = TimerToken(1);

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
    attempts: u32,
    next_due: SimTime,
}

/// NACK (state re-sync request) state for a below-quorum update bucket.
#[derive(Clone, Copy, Debug)]
struct NackState {
    attempts: u32,
    next_due: SimTime,
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
    attempts: u32,
    next_due: SimTime,
}

/// The switch actor.
pub struct SwitchActor {
    shared: Arc<Shared>,
    id: SwitchId,
    domain: DomainId,
    key: Option<SecretKey>,
    table: FlowTable,
    waiting: DetMap<FlowMatch, Vec<WaitingFlow>>,
    outstanding: DetSet<FlowMatch>,
    /// Update shares below quorum ([`QuorumCollector`] policy).
    buckets: QuorumCollector<southbound::types::UpdateId, NetworkUpdate>,
    applied: DetSet<southbound::types::UpdateId>,
    /// Signer indices seen per applied update: shares from signers *not*
    /// in here are the tail of the original broadcast (quorum fired before
    /// every controller's share landed) and must not trigger re-acks.
    applied_signers: DetMap<southbound::types::UpdateId, DetSet<u32>>,
    phase_info: PhaseInfo,
    event_seq: u64,
    msg_seq: u64,
    pending_events: BTreeMap<EventId, PendingEvent>,
    nacks: BTreeMap<southbound::types::UpdateId, NackState>,
    event_policy: RetryPolicy,
    nack_policy: RetryPolicy,
    retry_armed: bool,
    // ----- Segway state (Mode::Segway only) -------------------------------
    /// Share buckets over `SegwayBody` (update + gate/notify metadata): a
    /// quorum also vouches for the release order.
    seg_buckets: QuorumCollector<southbound::types::UpdateId, SegwayBody>,
    /// Quorum-verified bodies whose gates are not all open yet, with the
    /// signer count backing them.
    parked: DetMap<southbound::types::UpdateId, (SegwayBody, u32)>,
    /// Verified readies received: gating update → switches that announced
    /// applying it (a ready may arrive before its gated body does).
    ready_in: DetMap<southbound::types::UpdateId, DetSet<SwitchId>>,
    /// Outgoing readies awaiting a receipt, keyed `(gating update, target)`.
    ready_out: DetMap<(southbound::types::UpdateId, SwitchId), ReadyOut>,
    /// Every `(update, target)` ever released — the exactly-once-release
    /// guard. Survives receipt-driven `ready_out` removal, so duplicated
    /// quorum deliveries and replayed state never re-release a neighbor.
    ready_sent: DetSet<(southbound::types::UpdateId, SwitchId)>,
    ready_policy: RetryPolicy,
    /// Durable journal (attached by the executor; `None` = diskless).
    wal: Option<Wal>,
    /// Readies the WAL says were sent but never receipted, re-armed for
    /// retransmission on the post-restart `on_start`.
    recovered_readies: Vec<(southbound::types::UpdateId, SwitchId)>,
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
        let rel = &shared.cfg.reliability;
        let event_policy = RetryPolicy {
            base: rel.event_retry_base,
            max_backoff: rel.retry_max_backoff,
            budget: if rel.enabled { rel.event_retry_budget } else { 0 },
            jitter_seed: shared.cfg.seed ^ u64::from(id.0).rotate_left(29),
        };
        let nack_policy = RetryPolicy {
            base: rel.nack_timeout,
            max_backoff: rel.retry_max_backoff,
            budget: if rel.enabled { rel.nack_budget } else { 0 },
            jitter_seed: shared.cfg.seed ^ u64::from(id.0).rotate_left(47),
        };
        let ready_policy = RetryPolicy {
            base: rel.retry_base,
            max_backoff: rel.retry_max_backoff,
            budget: if rel.enabled { rel.retry_budget } else { 0 },
            jitter_seed: shared.cfg.seed ^ u64::from(id.0).rotate_left(13),
        };
        SwitchActor {
            shared,
            id,
            domain,
            key,
            table: FlowTable::new(),
            waiting: DetMap::new(),
            outstanding: DetSet::new(),
            buckets: QuorumCollector::new(),
            applied: DetSet::new(),
            applied_signers: DetMap::new(),
            phase_info,
            event_seq: 0,
            msg_seq: 0,
            pending_events: BTreeMap::new(),
            nacks: BTreeMap::new(),
            event_policy,
            nack_policy,
            retry_armed: false,
            seg_buckets: QuorumCollector::new(),
            parked: DetMap::new(),
            ready_in: DetMap::new(),
            ready_out: DetMap::new(),
            ready_sent: DetSet::new(),
            ready_policy,
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
        let mut receipted: DetSet<(southbound::types::UpdateId, SwitchId)> = DetSet::new();
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

    /// Segway readies sent so far, as `(gating update, released switch)` —
    /// the exactly-once-release set (tests).
    pub fn readies_sent(&self) -> Vec<(southbound::types::UpdateId, SwitchId)> {
        self.ready_sent.iter().copied().collect()
    }

    /// Read access to the flow table (tests, examples).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The updates applied so far (tests).
    pub fn applied_count(&self) -> usize {
        self.applied.len()
    }

    fn msg_id(&mut self) -> MsgId {
        self.msg_seq += 1;
        MsgId {
            origin: self.id.0,
            seq: self.msg_seq,
        }
    }

    fn fresh_event_id(&mut self) -> EventId {
        self.event_seq += 1;
        EventId(((self.id.0 as u64) << 32) | self.event_seq)
    }

    /// Where events go: the aggregator (controller aggregation) or the whole
    /// domain control plane.
    fn event_targets(&self, ctx: &mut dyn Host<Net, Obs>) -> Vec<NodeId> {
        let _ = ctx;
        let dir = &self.shared.dir;
        match self.shared.cfg.mode {
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            } => vec![dir.controller(self.domain, self.phase_info.aggregator)],
            _ => dir
                .initial_members
                .get(&self.domain)
                .map(|ms| dir.controller_nodes(self.domain, ms.iter().copied()).collect())
                .unwrap_or_default(),
        }
    }

    fn sign_event(&mut self, ctx: &mut dyn Host<Net, Obs>, event: Event) -> Signed<Event> {
        let phase = self.phase_info.phase;
        let msg_id = self.msg_id();
        if self.shared.cfg.mode.is_signed() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
        }
        if self.shared.real_crypto() && self.shared.cfg.mode.is_signed() {
            let key = self.key.as_ref().expect("real mode has switch keys");
            Signed::sign(labels::EVENT, event, phase, msg_id, key)
        } else {
            Signed {
                payload: event,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        }
    }

    fn raise_event(&mut self, ctx: &mut dyn Host<Net, Obs>, kind: EventKind) {
        let event = Event {
            id: self.fresh_event_id(),
            kind,
            origin: self.domain,
            forwarded: false,
        };
        let signed = self.sign_event(ctx, event);
        for node in self.event_targets(ctx) {
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
                let next_due = ctx.now() + self.event_backoff(event.id, 1);
                self.pending_events.insert(
                    event.id,
                    PendingEvent {
                        signed,
                        matcher,
                        teardown,
                        attempts: 0,
                        next_due,
                    },
                );
                self.arm_retry(ctx);
            }
        }
    }

    fn event_backoff(&self, id: EventId, attempt: u32) -> SimDuration {
        self.event_policy.backoff(
            southbound::types::UpdateId { event: id, seq: 0 },
            attempt,
        )
    }

    fn complete_waiters(&mut self, ctx: &mut dyn Host<Net, Obs>, m: FlowMatch) {
        let Some(waiters) = self.waiting.remove(&m) else {
            return;
        };
        let action = self.table.rule(m);
        for w in waiters {
            match action {
                Some(FlowAction::Forward(_)) => {
                    let delay = w.transit + self.shared.cfg.tx_time(w.bytes);
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

    /// `signers` is the quorum evidence backing this apply, reported in the
    /// observation stream for security auditing (see [`Obs::UpdateApplied`]).
    fn apply_update(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        signers: u32,
    ) {
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
            UpdateKind::Install(rule) => self
                .pending_events
                .retain(|_, p| p.teardown || p.matcher != rule.matcher),
            UpdateKind::Remove(matcher) => self
                .pending_events
                .retain(|_, p| !p.teardown || p.matcher != matcher),
        }
        if let UpdateKind::Install(rule) = update.kind {
            self.outstanding.remove(&rule.matcher);
            self.complete_waiters(ctx, rule.matcher);
        }
        self.send_ack(ctx, update);
    }

    fn send_ack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) {
        let body = AckBody {
            update: update.id,
            switch: self.id,
        };
        let phase = self.phase_info.phase;
        let msg_id = self.msg_id();
        let signed = if self.shared.cfg.mode.is_signed() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
            if self.shared.real_crypto() {
                let key = self.key.as_ref().expect("real mode has switch keys");
                Signed::sign(labels::ACK, body, phase, msg_id, key)
            } else {
                Signed {
                    payload: body,
                    phase,
                    msg_id,
                    signature: self.shared.keys.dummy,
                }
            }
        } else {
            Signed {
                payload: body,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        };
        let members: Vec<NodeId> = self
            .shared
            .dir
            .initial_members
            .get(&self.domain)
            .map(|ms| {
                self.shared
                    .dir
                    .controller_nodes(self.domain, ms.iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        for node in members {
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

    // ----- reliable delivery (event retransmission + NACKs) ---------------

    /// Arms the retry timer for the earliest pending deadline. One timer is
    /// outstanding at a time; it re-arms itself from `on_timer`.
    fn arm_retry(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if self.retry_armed || !self.shared.cfg.reliability.enabled {
            return;
        }
        let next = self
            .pending_events
            .values()
            .map(|p| p.next_due)
            .chain(self.nacks.values().map(|n| n.next_due))
            .chain(self.ready_out.values().map(|r| r.next_due))
            .min();
        let Some(due) = next else {
            return;
        };
        ctx.set_timer(due.since(ctx.now()), RETRY);
        self.retry_armed = true;
    }

    fn sweep_pending_events(&mut self, ctx: &mut dyn Host<Net, Obs>, now: SimTime) {
        let budget = self.shared.cfg.reliability.event_retry_budget;
        let due: Vec<EventId> = self
            .pending_events
            .iter()
            .filter(|(_, p)| p.next_due <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let p = self.pending_events.get_mut(&id).expect("present");
            if p.attempts >= budget {
                self.pending_events.remove(&id);
                ctx.observe(Obs::EventRetryExhausted {
                    switch: self.id,
                    event: id,
                });
                continue;
            }
            p.attempts += 1;
            let attempt = p.attempts;
            let signed = p.signed.clone();
            let backoff = self.event_backoff(id, attempt + 1);
            self.pending_events
                .get_mut(&id)
                .expect("present")
                .next_due = now + backoff;
            ctx.observe(Obs::EventRetransmitted {
                switch: self.id,
                event: id,
                attempt,
            });
            for node in self.event_targets(ctx) {
                ctx.send(node, Net::EventMsg(signed.clone()));
            }
        }
    }

    fn sweep_nacks(&mut self, ctx: &mut dyn Host<Net, Obs>, now: SimTime) {
        let budget = self.shared.cfg.reliability.nack_budget;
        let due: Vec<southbound::types::UpdateId> = self
            .nacks
            .iter()
            .filter(|(_, n)| n.next_due <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            // The bucket may have reached quorum (applied) or been pruned by
            // a phase change in the meantime.
            let phase = self.phase_info.phase;
            let have = self
                .buckets
                .have(id, phase)
                .max(self.seg_buckets.have(id, phase));
            if self.applied.contains(&id) || have == 0 {
                self.nacks.remove(&id);
                continue;
            }
            let st = self.nacks.get_mut(&id).expect("present");
            if st.attempts >= budget {
                // Stop NACKing; the controllers' own retransmission (and its
                // exhaustion report) remains the backstop.
                self.nacks.remove(&id);
                continue;
            }
            st.attempts += 1;
            let attempt = st.attempts;
            st.next_due = now + self.nack_policy.backoff(id, attempt + 1);
            self.send_nack(ctx, id, have as u32);
        }
    }

    fn send_nack(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: southbound::types::UpdateId,
        have: u32,
    ) {
        let body = NackBody {
            update,
            switch: self.id,
            have,
        };
        let phase = self.phase_info.phase;
        let msg_id = self.msg_id();
        let signed = if self.shared.cfg.mode.is_signed() && self.shared.real_crypto() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
            let key = self.key.as_ref().expect("real mode has switch keys");
            Signed::sign(labels::NACK, body, phase, msg_id, key)
        } else {
            Signed {
                payload: body,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        };
        ctx.observe(Obs::NackSent {
            switch: self.id,
            update,
            have,
        });
        let members: Vec<NodeId> = self
            .shared
            .dir
            .initial_members
            .get(&self.domain)
            .map(|ms| {
                self.shared
                    .dir
                    .controller_nodes(self.domain, ms.iter().copied())
                    .collect()
            })
            .unwrap_or_default();
        for node in members {
            ctx.send(node, Net::UpdateNack(signed.clone()));
        }
    }

    /// Common front half of both share paths: re-acks a retransmitted
    /// share of an applied update, drops shares of another phase or of a
    /// body already parked on its gates, and starts the NACK clock. `true`
    /// when the share should be collected.
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
        if self.shared.cfg.reliability.enabled {
            // Start the NACK clock the moment the first share arrives: if
            // the bucket is still below quorum when it fires, ask the
            // control plane to re-send the missing shares.
            let due = ctx.now() + self.nack_policy.backoff(update.id, 1);
            self.nacks.entry(update.id).or_insert(NackState {
                attempts: 0,
                next_due: due,
            });
            self.arm_retry(ctx);
        }
        true
    }

    /// The quorum check both share paths run under `label`: this domain's
    /// group key at the current phase's quorum.
    fn quorum_check<'a>(&self, shared: &'a Shared, label: &'a str) -> Check<'a> {
        let keys = &shared.keys.domains[&self.domain];
        Check {
            label,
            quorum: self.phase_info.quorum as usize,
            keys: shared
                .real_crypto()
                .then_some((&keys.public_key, &keys.group)),
        }
    }

    /// Switch-side aggregation (paper Fig. 6b): buffer share-signed updates
    /// until a quorum of identical updates, aggregate, verify, apply.
    fn on_share_signed(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: ShareSigned<NetworkUpdate>) {
        let (id, phase) = (msg.payload.id, msg.phase);
        if !self.admit_share(ctx, msg.payload, phase, msg.partial.index)
            || !self.buckets.offer(id, phase, msg.payload, msg.partial)
        {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let check = self.quorum_check(&shared, labels::UPDATE);
        let outcome = self.buckets.try_quorum(id, phase, check);
        ctx.charge_cpu(shared.cfg.costs.quorum_check(outcome.work()));
        match outcome {
            Quorum::Below => {}
            Quorum::Rejected { .. } => ctx.observe(Obs::UpdateRejected {
                switch: self.id,
                update: id,
            }),
            Quorum::Certified(cert) => {
                let n_signers = cert.signers.len() as u32;
                self.applied_signers
                    .insert(id, cert.signers.into_iter().collect());
                self.apply_update(ctx, cert.payload, n_signers);
            }
        }
    }

    /// Controller-aggregation path (paper Fig. 7c): single verification of a
    /// pre-aggregated signature.
    fn on_quorum_signed(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        msg: QuorumSigned<NetworkUpdate>,
    ) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        if self.applied.contains(&msg.payload.id) {
            self.reack(ctx, msg.payload);
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
        let valid = if self.shared.real_crypto() {
            let pk = self.shared.keys.domains[&self.domain].public_key;
            msg.verify(labels::UPDATE, &pk)
        } else {
            true
        };
        if valid {
            // A verified aggregate only exists if exactly `quorum` valid
            // partials were combined with the right Lagrange weights.
            let quorum = self.phase_info.quorum;
            self.apply_update(ctx, msg.payload, quorum);
        } else {
            ctx.observe(Obs::UpdateRejected {
                switch: self.id,
                update: msg.payload.id,
            });
        }
    }

    // ----- Segway: decentralized release via switch-to-switch readies ------

    /// Ready-gating is the Segway analogue of the cross-domain ordering
    /// handshake, so the same config knob disables it for control runs
    /// (which then exhibit the transient black holes gating prevents).
    fn gating_enabled(&self) -> bool {
        self.shared.cfg.cross_domain_handshake
    }

    /// All of `body`'s gates are open: each prerequisite update was either
    /// applied locally or announced by its designated switch with a
    /// verified ready.
    fn gates_open(&self, body: &SegwayBody) -> bool {
        if !self.gating_enabled() {
            return true;
        }
        body.gates.iter().all(|&(u, s)| {
            (s == self.id && self.applied.contains(&u))
                || self.ready_in.get(&u).is_some_and(|set| set.contains(&s))
        })
    }

    /// Segway ingest: same quorum accumulation as [`Self::on_share_signed`],
    /// over the update *plus* its threshold-signed gate/notify metadata.
    fn on_segway_signed(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: ShareSigned<SegwayBody>) {
        let (id, phase) = (msg.payload.update.id, msg.phase);
        if !self.admit_share(ctx, msg.payload.update, phase, msg.partial.index)
            || !self.seg_buckets.offer(id, phase, msg.payload, msg.partial)
        {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let check = self.quorum_check(&shared, labels::SEGWAY);
        let outcome = self.seg_buckets.try_quorum(id, phase, check);
        ctx.charge_cpu(shared.cfg.costs.quorum_check(outcome.work()));
        match outcome {
            Quorum::Below => {}
            Quorum::Rejected { .. } => ctx.observe(Obs::UpdateRejected {
                switch: self.id,
                update: id,
            }),
            Quorum::Certified(cert) => {
                let n_signers = cert.signers.len() as u32;
                self.applied_signers
                    .insert(id, cert.signers.into_iter().collect());
                if self.gates_open(&cert.payload) {
                    self.seg_apply(ctx, cert.payload, n_signers);
                    self.release_parked(ctx);
                } else {
                    self.parked.insert(id, (cert.payload, n_signers));
                }
            }
        }
    }

    /// Applies a gated body and releases the switches its threshold-signed
    /// `notify` list names.
    fn seg_apply(&mut self, ctx: &mut dyn Host<Net, Obs>, body: SegwayBody, signers: u32) {
        if self.applied.contains(&body.update.id) {
            return;
        }
        self.apply_update(ctx, body.update, signers);
        if !self.gating_enabled() {
            return;
        }
        for i in 0..body.notify.len() {
            let to = body.notify[i];
            if to == self.id {
                continue;
            }
            // Exactly-once release: a neighbor is released at most once per
            // gating update no matter how often the quorum re-fires.
            if !self.ready_sent.insert((body.update.id, to)) {
                continue;
            }
            // Write-ahead: the release is durable before it can be observed,
            // so a crash between journal and send re-sends (at-least-once on
            // the wire) rather than re-releasing (exactly-once in the set).
            self.log_record(&SwitchWalRecord::ReadySent {
                update: body.update.id,
                to,
            });
            let ready = ReadyBody {
                update: body.update.id,
                from: self.id,
                to,
            };
            let phase = self.phase_info.phase;
            let msg_id = self.msg_id();
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
            let signed = if self.shared.real_crypto() {
                let key = self.key.as_ref().expect("real mode has switch keys");
                Signed::sign(labels::READY, ready, phase, msg_id, key)
            } else {
                Signed {
                    payload: ready,
                    phase,
                    msg_id,
                    signature: self.shared.keys.dummy,
                }
            };
            ctx.observe(Obs::ReadySent {
                from: self.id,
                to,
                update: body.update.id,
            });
            let target = self.shared.dir.switch(to);
            ctx.send(target, Net::SegwayReady(signed.clone()));
            if self.shared.cfg.reliability.enabled {
                let next_due = ctx.now() + self.ready_policy.backoff(body.update.id, 1);
                self.ready_out.insert(
                    (body.update.id, to),
                    ReadyOut {
                        signed,
                        target,
                        attempts: 0,
                        next_due,
                    },
                );
                self.arm_retry(ctx);
            }
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
            self.seg_apply(ctx, body, signers);
        }
    }

    /// A neighbor announces it applied a gating update. Verified through
    /// the batch-verification path with the simulation RNG; rejected when
    /// the signature fails, the `to` binding names someone else (a replay
    /// at the wrong victim), or the sender is not the gate's designated
    /// switch — the latter two structural checks also bite under
    /// [`crate::config::CryptoMode::Modeled`], where signatures are vacuous.
    fn on_ready(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: Signed<ReadyBody>) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let body = msg.payload;
        let reject = |ctx: &mut dyn Host<Net, Obs>, switch: SwitchId| {
            ctx.observe(Obs::ReadyRejected {
                switch,
                update: body.update,
                from: body.from,
            });
        };
        if body.to != self.id || body.from == self.id {
            reject(ctx, self.id);
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
        let valid = if self.shared.real_crypto() {
            match self.shared.keys.switch_pk.get(&body.from) {
                Some(&pk) => verify_signed_batch(labels::READY, &[(&msg, pk)], ctx.rng()),
                None => false,
            }
        } else {
            self.shared.dir.switch_node.contains_key(&body.from)
        };
        if !valid {
            reject(ctx, self.id);
            return;
        }
        // If a parked body names a different switch for this gate, the
        // sender is impersonating the designated releaser.
        let impersonated = self.parked.values().any(|(b, _)| {
            b.gates
                .iter()
                .any(|&(u, s)| u == body.update && s != body.from)
        });
        if impersonated {
            reject(ctx, self.id);
            return;
        }
        // Receipt every valid ready (idempotent for duplicates) so the
        // sender stops retransmitting.
        let phase = self.phase_info.phase;
        let msg_id = self.msg_id();
        ctx.charge_cpu(self.shared.cfg.costs.event_sign);
        let receipt = if self.shared.real_crypto() {
            let key = self.key.as_ref().expect("real mode has switch keys");
            Signed::sign(labels::READY_RECEIPT, body, phase, msg_id, key)
        } else {
            Signed {
                payload: body,
                phase,
                msg_id,
                signature: self.shared.keys.dummy,
            }
        };
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
        if body.from != self.id {
            return;
        }
        let key = (body.update, body.to);
        if self.ready_out.get(&key).is_none() {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
        let valid = if self.shared.real_crypto() {
            match self.shared.keys.switch_pk.get(&body.to) {
                Some(pk) => msg.verify(labels::READY_RECEIPT, pk),
                None => false,
            }
        } else {
            true
        };
        if valid {
            self.ready_out.remove(&key);
            self.log_record(&SwitchWalRecord::ReadyReceipted {
                update: key.0,
                to: key.1,
            });
        }
    }

    fn sweep_readies(&mut self, ctx: &mut dyn Host<Net, Obs>, now: SimTime) {
        let budget = self.ready_policy.budget;
        let due: Vec<(southbound::types::UpdateId, SwitchId)> = self
            .ready_out
            .iter()
            .filter(|(_, r)| r.next_due <= now)
            .map(|(&k, _)| k)
            .collect();
        for key in due {
            let r = self.ready_out.get_mut(&key).expect("present");
            if r.attempts >= budget {
                // Stop retransmitting; the controller's own update retry
                // (and its exhaustion report) remains the backstop for the
                // stalled downstream segment.
                self.ready_out.remove(&key);
                continue;
            }
            r.attempts += 1;
            let attempt = r.attempts;
            let signed = r.signed.clone();
            let target = r.target;
            r.next_due = now + self.ready_policy.backoff(key.0, attempt + 1);
            ctx.observe(Obs::ReadyRetransmitted {
                from: self.id,
                to: key.1,
                update: key.0,
                attempt,
            });
            ctx.send(target, Net::SegwayReady(signed));
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
                let delay = transit + self.shared.cfg.tx_time(bytes);
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
        // The restart half of crash recovery: resume retransmitting readies
        // the WAL says were sent but never receipted. No new `ReadySent` is
        // observed — the release already happened in a previous life; the
        // sweep emits `ReadyRetransmitted` like any other retry.
        let pairs = std::mem::take(&mut self.recovered_readies);
        for (update, to) in pairs {
            let ready = ReadyBody {
                update,
                from: self.id,
                to,
            };
            let phase = self.phase_info.phase;
            let msg_id = self.msg_id();
            let signed = if self.shared.real_crypto() {
                let key = self.key.as_ref().expect("real mode has switch keys");
                Signed::sign(labels::READY, ready, phase, msg_id, key)
            } else {
                Signed {
                    payload: ready,
                    phase,
                    msg_id,
                    signature: self.shared.keys.dummy,
                }
            };
            let next_due = ctx.now() + self.ready_policy.backoff(update, 1);
            self.ready_out.insert(
                (update, to),
                ReadyOut {
                    signed,
                    target: self.shared.dir.switch(to),
                    attempts: 0,
                    next_due,
                },
            );
        }
        self.arm_retry(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        if token != RETRY {
            return;
        }
        self.retry_armed = false;
        let now = ctx.now();
        self.sweep_pending_events(ctx, now);
        self.sweep_nacks(ctx, now);
        self.sweep_readies(ctx, now);
        self.arm_retry(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, _from: NodeId, msg: Net) {
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
            Net::UpdateMsg(m) => self.on_share_signed(ctx, m),
            Net::UpdateAggregated(m) => self.on_quorum_signed(ctx, m),
            Net::SegwayUpdate(m) => self.on_segway_signed(ctx, m),
            Net::SegwayReady(m) => self.on_ready(ctx, m),
            Net::SegwayReadyAck(m) => self.on_ready_ack(ctx, m),
            Net::UpdatePlain { update, from: _ } => {
                ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
                if self.applied.contains(&update.id) {
                    self.reack(ctx, update);
                } else {
                    // Unauthenticated baseline: one controller's word.
                    self.apply_update(ctx, update, 1);
                }
            }
            Net::LinkDown { a, b } => {
                self.raise_event(ctx, EventKind::LinkFailure { a, b });
            }
            Net::PhaseNotice(m) => {
                ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
                let valid = if self.shared.real_crypto() {
                    let pk = self.shared.keys.domains[&self.domain].public_key;
                    m.verify(labels::PHASE, &pk)
                } else {
                    true
                };
                if valid && m.payload.phase > self.phase_info.phase {
                    self.phase_info = m.payload;
                    // Stale aggregation buckets from the old phase die here.
                    self.buckets.retain_phase(m.payload.phase);
                    self.seg_buckets.retain_phase(m.payload.phase);
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

/// Initial phase info for baselines without a real membership view
/// (centralized / crash-tolerant modes).
pub fn trivial_phase_info(members: u32) -> PhaseInfo {
    PhaseInfo {
        phase: Phase(0),
        quorum: 1,
        aggregator: ControllerId(1),
    }
    .with_members(members)
}

impl PhaseInfo {
    fn with_members(mut self, members: u32) -> Self {
        if members >= 4 {
            self.quorum = (members - 1) / 3 + 1;
        }
        self
    }
}
