//! The switch protocol runtime (paper Fig. 6 and §5.2).
//!
//! Switches forward flows from their tables, raise tagged `PacketIn` events
//! on misses, check each update against the update set its shares sign,
//! buffer the shares until a quorum of *identical* ones arrives,
//! aggregate-and-verify against the group public key, hold
//! a body marked held until a quorum of controllers releases it, apply,
//! and acknowledge. The runtime is deliberately minimal — the paper's design
//! goal is "minimal switch instrumentation" — and all heavy operations charge
//! simulated CPU time so Fig. 11d's utilization comparison is reproducible.

// A protocol hot path: a panic here states its invariant (`expect("…")`,
// checked by scripts/verify.sh).
#![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]

use crate::auth::{Authenticator, Peer};
use crate::collector::{Quorum, QuorumCollector};
use crate::config::{
    tx_time, Aggregation, Mode, EVENT_RETRY_BASE, NACK_BUDGET, NACK_TIMEOUT, RETRY_BASE,
    RETRY_BUDGET,
};
use crate::msg::{
    AckBody, Member, NackBody, Net, PhaseInfo, ReadyBody, Release, SwitchWalRecord, UpdateBody,
    UpdateSet,
};
use crate::obs::Obs;
use crate::runtime::{labels, Shared};
use blscrypto::bls::SecretKey;
use controller::pending::{Kept, Retry, RetryPolicy, RetryTable, Tally};
use netmodel::flowtable::{FlowTable, Lookup};
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::time::{SimDuration, SimTime};
use southbound::codec::Wire;
use southbound::envelope::{MsgId, Tagged};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, EventKind, FlowAction, FlowId, FlowMatch, HostId,
    NetworkUpdate, Phase, SwitchId, UpdateId, UpdateKind,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use substrate::storage::{DiskHandle, Wal};

const RETRY: TimerToken = TimerToken(1);

/// An event the switch keeps for retransmission until its effect is
/// visible in the flow table (reliable delivery layer): its body and id,
/// re-tagged for the current targets at each re-send. `LinkFailure`
/// events are deliberately *not* tracked: they have no local effect to
/// await, and the link-state convergence story is out of scope here (a
/// documented deviation, see DESIGN.md).
#[derive(Clone, Debug)]
struct PendingEvent {
    event: Event,
    msg_id: MsgId,
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

/// The switch actor.
///
/// Every update takes one path: *admit* (only the arrival form the run's
/// mode uses) → *authenticate* (that form's own check, through the
/// [`Authenticator`]) → *gate* → *apply* → *acknowledge* → *release*. The
/// three forms differ only in the second stage; each hands on a verified
/// [`UpdateBody`] — gates and notify list empty outside Segway, `held` set
/// only in Cicero — and the number of signers behind it. The gate is where
/// a body waits: on its Segway gates' readies, or on the releases of a held
/// body.
pub struct SwitchActor {
    shared: Arc<Shared>,
    id: SwitchId,
    domain: DomainId,
    auth: Authenticator,
    table: FlowTable,
    waiting: BTreeMap<FlowMatch, Vec<WaitingFlow>>,
    outstanding: BTreeSet<FlowMatch>,
    /// Set shares below quorum ([`QuorumCollector`] policy), bucketed per
    /// update and per identical set. The set's root binds the update's body,
    /// gate/notify metadata included, so a quorum also vouches for the
    /// release order.
    buckets: QuorumCollector<UpdateId, UpdateSet>,
    applied: BTreeSet<UpdateId>,
    /// Signer indices seen per applied update: shares from signers *not*
    /// in here are the tail of the original broadcast (quorum fired before
    /// every controller's share landed) and must not trigger re-acks.
    applied_signers: BTreeMap<UpdateId, BTreeSet<u32>>,
    phase_info: PhaseInfo,
    event_seq: u64,
    /// Events awaiting their effect.
    pending_events: RetryTable<EventId, PendingEvent>,
    /// NACK (state re-sync request) clocks of below-quorum share buckets.
    nacks: RetryTable<UpdateId, ()>,
    /// Segway: clocks of the still-closed gates `(gating update, its
    /// switch)` of parked bodies — whoever is still waiting asks.
    asks: RetryTable<(UpdateId, SwitchId), ()>,
    retry_armed: bool,
    /// Verified bodies whose gates are not all open yet, or held bodies not
    /// released yet, with the signer count backing them.
    parked: BTreeMap<UpdateId, (UpdateBody, u32)>,
    /// Verified releases: held update → the current members that released
    /// it in this phase; registered at its body's delivery, forgotten at apply.
    releases: Tally<UpdateId, ControllerId>,
    /// Verified readies: gating update → switches that announced applying
    /// it; registered at the delivery of a body it gates.
    readies: Tally<UpdateId, SwitchId>,
    /// Every `(update, target)` ever released — the exactly-once-release
    /// guard: duplicated quorum deliveries and replayed state never
    /// re-release a neighbor — with the tagged ready, re-sent as-is when the
    /// target asks ([`Net::SegwayReadyQuery`]). The journal keeps the
    /// release, not the tag: after a restart a slot is empty until first
    /// asked for.
    ready_sent: Kept<(UpdateId, SwitchId), Tagged<ReadyBody>>,
    /// Durable journal (attached by the executor; `None` = diskless).
    wal: Option<Wal>,
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
        // One jitter stream per table, so the three clocks never align.
        let policy = |base, budget, rot: u32| {
            let jitter_seed = shared.cfg.seed ^ u64::from(id.0).rotate_left(rot);
            RetryPolicy::new(base, budget, jitter_seed)
        };
        SwitchActor {
            auth: Authenticator::new(Arc::clone(&shared), Peer::Switch(id), key, None),
            pending_events: RetryTable::new(policy(EVENT_RETRY_BASE, RETRY_BUDGET, 29)),
            nacks: RetryTable::new(policy(NACK_TIMEOUT, NACK_BUDGET, 47)),
            asks: RetryTable::new(policy(RETRY_BASE, RETRY_BUDGET, 13)),
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
            releases: Tally::default(),
            readies: Tally::default(),
            ready_sent: Kept::default(),
            wal: None,
        }
    }

    /// Attaches durable storage. Opens (and torn-tail-repairs) the WAL;
    /// with `recovering` set the records replay first — restoring the flow
    /// table, the applied-update dedup set, and the Segway release ledger
    /// (`ready_sent` / `readies`) — so a restarted switch never
    /// re-releases a neighbor it already released, and never forgets a
    /// ready it accepted (its sender may be gone for good by now). Frames
    /// of a retired record kind are skipped. A fresh boot finds an empty
    /// WAL and this is a no-op beyond arming the log.
    pub fn attach_disk(&mut self, disk: DiskHandle, recovering: bool) {
        let (wal, tail) = Wal::open(disk, "switch.wal");
        self.wal = Some(wal);
        if !recovering {
            return;
        }
        for r in tail.iter().filter_map(|f| SwitchWalRecord::from_wire(f).ok()) {
            match r {
                SwitchWalRecord::Applied { update, .. } => {
                    if self.applied.insert(update.id) {
                        self.table.apply(&update);
                    }
                }
                SwitchWalRecord::ReadySent { update, to } => {
                    self.ready_sent.reserve((update, to));
                }
                SwitchWalRecord::ReadyIn { update, from } => {
                    // Accepted once already: not early again.
                    self.readies.register(update);
                    self.readies.record(update, from);
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

    /// Events still awaiting their effect (watchdog / tests).
    pub fn outstanding_event_count(&self) -> usize {
        self.pending_events.len()
    }

    /// The authentication seam: its signature and tag counters cover this
    /// life (tests).
    pub fn auth(&self) -> &Authenticator {
        &self.auth
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
        self.phase_info.clone()
    }

    fn fresh_event_id(&mut self) -> EventId {
        self.event_seq += 1;
        EventId(((self.id.0 as u64) << 32) | self.event_seq)
    }

    /// Where events go: the aggregator (controller aggregation) or the
    /// domain's current members.
    fn event_targets(&self) -> Vec<ControllerId> {
        match self.shared.cfg.mode {
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            } => vec![self.phase_info.aggregator],
            _ => self.phase_info.members.clone(),
        }
    }

    fn raise_event(&mut self, ctx: &mut dyn Host<Net, Obs>, kind: EventKind) {
        let event = Event {
            id: self.fresh_event_id(),
            kind,
            origin: self.domain,
            forwarded: false,
        };
        let msg_id = self.auth.next_msg_id();
        let targets = self.event_targets();
        self.send_tagged(ctx, labels::EVENT, event, msg_id, &targets, Net::EventMsg);
        // Track events whose effect we can await locally, for
        // retransmission if the control plane never answers.
        let track = match event.kind {
            EventKind::PacketIn { src, dst, .. } => Some((FlowMatch { src, dst }, false)),
            EventKind::FlowTeardown { src, dst, .. } => Some((FlowMatch { src, dst }, true)),
            _ => None,
        };
        if let Some((matcher, teardown)) = track {
            let pending = PendingEvent {
                event,
                msg_id,
                matcher,
                teardown,
            };
            let jitter_id = UpdateId {
                event: event.id,
                seq: 0,
            };
            self.pending_events.insert(event.id, jitter_id, pending, ctx.now());
            self.arm_retry(ctx);
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
    /// has not seen our acknowledgement, one of a parked body is proven
    /// already. `true` for a first copy.
    fn first_copy(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) -> bool {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        if self.applied.contains(&update.id) {
            self.reack(ctx, update);
            return false;
        }
        !self.parked.contains_key(&update.id)
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
        if phase != self.phase_info.phase || self.parked.contains_key(&update.id) {
            return false;
        }
        if !self.nacks.contains(&update.id) {
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
    /// share of `set`, with `member`, came to — aggregate, verify, hand the
    /// body on. Only the share just bucketed can complete a quorum, so the
    /// set certified is the one `member` was admitted under.
    fn on_quorum(&mut self, ctx: &mut dyn Host<Net, Obs>, set: UpdateSet, member: Member, q: Quorum<UpdateSet>) {
        ctx.charge_cpu(self.auth.quorum_cost(&q));
        let id = member.body.update.id;
        match q {
            Quorum::Below => {}
            Quorum::Certified(cert) if cert.payload == set => {
                let n_signers = cert.signers.len() as u32;
                self.applied_signers
                    .insert(id, cert.signers.into_iter().collect());
                self.deliver(ctx, member.body, n_signers);
            }
            Quorum::Rejected { .. } | Quorum::Certified(_) => self.reject(ctx, id),
        }
    }

    // ----- gate → apply → acknowledge → release ----------------------------

    /// Ready-gating is the Segway analogue of the cross-domain ordering
    /// handshake, so the same config knob disables it for control runs
    /// (which then exhibit the transient black holes gating prevents).
    fn gating_enabled(&self) -> bool {
        self.shared.cfg.cross_domain_handshake
    }

    /// Gate `(u, s)` is open: update `u` was applied locally, or announced
    /// by its designated switch `s` with a verified ready.
    fn gate_open(&self, (u, s): (UpdateId, SwitchId)) -> bool {
        (s == self.id && self.applied.contains(&u)) || self.readies.has(u, s)
    }

    /// A held update is released once `quorum` distinct current members
    /// released it.
    fn released(&self, u: UpdateId) -> bool {
        self.releases.senders(u).count() >= self.phase_info.quorum as usize
    }

    fn gates_open(&self, body: &UpdateBody) -> bool {
        (!body.held || self.released(body.update.id))
            && (!self.gating_enabled() || body.gates.iter().all(|&g| self.gate_open(g)))
    }

    /// Gate: a verified body goes in once its gates are open, and waits in
    /// `parked` until then, with a clock on every neighbor's gate that is
    /// still closed — and, for a held body, on its releases, whose clock
    /// replaces its shares' NACK clock. `signers` is the quorum evidence
    /// backing it.
    fn deliver(&mut self, ctx: &mut dyn Host<Net, Obs>, body: UpdateBody, signers: u32) {
        let id = body.update.id;
        if body.held {
            self.releases.register(id);
            self.nacks.remove(&id);
        }
        for &(u, _) in &body.gates {
            self.readies.register(u);
        }
        if self.gates_open(&body) {
            self.apply(ctx, body, signers);
            self.release_parked(ctx);
            return;
        }
        let own = (body.held && !self.released(id)).then_some((id, self.id));
        for g in body.gates.iter().copied().filter(|g| g.1 != self.id).chain(own) {
            if !self.gate_open(g) && !self.asks.contains(&g) {
                self.asks.insert(g, g.0, (), ctx.now());
            }
        }
        self.arm_retry(ctx);
        self.parked.insert(id, (body, signers));
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
        self.asks.remove(&(update.id, self.id));
        self.releases.forget(update.id);
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
                if to == self.id || self.ready_sent.contains(&(update.id, to)) {
                    continue;
                }
                let (id, from, phase) = (update.id, self.id, self.phase_info.phase);
                let ready = ReadyBody { update: id, from, to };
                let Some(tagged) = tag_ready(&mut self.auth, ctx, ready, phase) else {
                    continue;
                };
                // Write-ahead: the release is durable before it can be
                // observed, so a crash between journal and send leaves a
                // ready the neighbor asks for rather than a second release.
                self.log_record(&SwitchWalRecord::ReadySent { update: id, to });
                ctx.observe(Obs::ReadySent { from, to, update: id });
                ctx.send(self.shared.dir.switch(to), Net::SegwayReady(tagged.clone()));
                self.ready_sent.keep((id, to), tagged);
            }
        }
    }

    /// Sends `body` to controllers `to` of the domain: one message id, one
    /// tag per recipient under the key shared with it.
    fn send_tagged<T: Wire + Copy>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        body: T,
        msg_id: MsgId,
        to: &[ControllerId],
        wrap: fn(Tagged<T>) -> Net,
    ) {
        let (domain, phase) = (self.domain, self.phase_info.phase);
        for &c in to {
            let reader = Peer::Controller(domain, c);
            if let Some(tagged) = self.auth.tag(ctx, label, body, phase, msg_id, reader) {
                ctx.send(self.shared.dir.controller(domain, c), wrap(tagged));
            }
        }
    }

    fn send_ack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) {
        let body = AckBody { update: update.id, switch: self.id };
        let (msg_id, to) = (self.auth.next_msg_id(), self.phase_info.members.clone());
        self.send_tagged(ctx, labels::ACK, body, msg_id, &to, Net::AckMsg);
    }

    /// A duplicate of an already-applied update means some controller has
    /// not seen our acknowledgement — re-send it (ack-loss recovery).
    fn reack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: NetworkUpdate) {
        ctx.observe(Obs::AckRetransmitted {
            switch: self.id,
            update: update.id,
        });
        self.send_ack(ctx, update);
    }

    /// The switch at `from` holds a parked body and still lacks our ready
    /// for `update`. Answered only for a release to that switch in the
    /// ledger, with the kept ready, to the asker alone — nothing verified,
    /// and tagged only when a restart dropped the kept copy. A release not
    /// made yet has nothing to send; the asker gets the ready unsolicited
    /// when `update` goes in.
    fn on_ready_query(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, update: UpdateId) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let Some(Peer::Switch(to)) = self.shared.dir.peer(from) else {
            return;
        };
        let (me, phase, auth) = (self.id, self.phase_info.phase, &mut self.auth);
        let ready = ReadyBody { update, from: me, to };
        let tag = || tag_ready(auth, ctx, ready, phase);
        let Some((tagged, attempt)) = self.ready_sent.resend(&(update, to), |_| true, tag) else {
            return;
        };
        ctx.send(from, Net::SegwayReady(tagged.clone()));
        ctx.observe(Obs::ReadyRetransmitted { from: me, to, update, attempt });
    }

    /// A neighbor announces it applied a gating update. A ready already
    /// accepted is dropped unchecked, and so is one no delivered body is
    /// gated on from a neighbor with [`controller::pending::MAX_EARLY`] such
    /// readies on record. Rejected when the `to` binding names
    /// someone else (a replay at the wrong victim), the tag fails, or the
    /// sender is not the gate's designated switch — the structural checks
    /// also bite under [`crate::config::CryptoMode::Modeled`], where tags
    /// are vacuous.
    fn on_ready(&mut self, ctx: &mut dyn Host<Net, Obs>, msg: Tagged<ReadyBody>) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let body = msg.payload;
        if !self.readies.admits(body.update, body.from) {
            return;
        }
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
                .verify_tag(ctx, labels::READY, &msg, Peer::Switch(body.from))
                .is_some()
            && !self.parked.values().any(|(b, _)| names_other(b));
        if !valid {
            ctx.observe(Obs::ReadyRejected {
                switch: self.id,
                update: body.update,
                from: body.from,
            });
            return;
        }
        // Journaled: the releaser may be gone for good by the time a
        // restart would have to ask again.
        self.readies.record(body.update, body.from);
        self.log_record(&SwitchWalRecord::ReadyIn { update: body.update, from: body.from });
        self.asks.remove(&(body.update, body.from));
        self.release_parked(ctx);
    }

    /// A controller releases a held update. Dropped unchecked when it is
    /// addressed to another switch, tagged in another phase, sent by no
    /// current member or over another node's channel, for an applied update,
    /// by a member already counted, or — with no body parked for it — by a
    /// member with [`controller::pending::MAX_EARLY`] such releases on
    /// record. Otherwise its tag is checked under the key the member shares
    /// with this switch; a verified release is counted and may open the gate.
    fn on_release(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Tagged<Release>) {
        ctx.charge_cpu(self.shared.cfg.costs.switch_msg);
        let (u, c) = (msg.payload.update, ControllerId(msg.msg_id.origin));
        let sender = Peer::Controller(self.domain, c);
        if msg.payload.switch != self.id
            || msg.phase != self.phase_info.phase
            || !self.phase_info.members.contains(&c)
            || self.shared.dir.peer(from) != Some(sender)
            || self.applied.contains(&u)
            || !self.releases.admits(u, c)
            || self.auth.verify_tag(ctx, labels::RELEASE, &msg, sender).is_none()
        {
            return;
        }
        self.releases.record(u, c);
        if self.parked.contains_key(&u) {
            self.release_parked(ctx);
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
            self.asks.next_due(),
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
                    let (body, msg_id, targets) = (p.event, p.msg_id, self.event_targets());
                    self.send_tagged(ctx, labels::EVENT, body, msg_id, &targets, Net::EventMsg);
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
        for r in self.asks.sweep(now) {
            // The only node that knows a ready or a release is missing is the
            // one parked on its gate, so it asks: the gate's switch for a
            // ready, the controllers — with a NACK — for the releases of a
            // held body. A spent budget stops the asking; the controllers'
            // update retry remains the backstop.
            let Retry::Resend((update, from), attempt) = r else {
                continue;
            };
            if from == self.id {
                let have = self.releases.senders(update).count() as u32;
                self.send_nack(ctx, update, have);
                continue;
            }
            ctx.send(self.shared.dir.switch(from), Net::SegwayReadyQuery { update });
            ctx.observe(Obs::ReadyQueried { switch: self.id, update, from, attempt });
        }
    }

    fn send_nack(&mut self, ctx: &mut dyn Host<Net, Obs>, update: UpdateId, have: u32) {
        let body = NackBody { update, switch: self.id, have };
        ctx.observe(Obs::NackSent { switch: self.id, update, have });
        let (msg_id, to) = (self.auth.next_msg_id(), self.phase_info.members.clone());
        self.send_tagged(ctx, labels::NACK, body, msg_id, &to, Net::UpdateNack);
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
    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        if token != RETRY {
            return;
        }
        self.retry_armed = false;
        self.sweep(ctx);
        self.arm_retry(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        let quorum = self.phase_info.quorum as usize;
        // An update is admitted only in the arrival form the run's mode
        // uses. Each form's check is sound only where it is the mode's own
        // — a plain update carries no proof at all — so any other form is
        // somebody going around the quorum, whatever it claims to carry.
        // A share occupies only its sender's slot, and a member must belong
        // to its set — checked before anything is bucketed or verified.
        let form = match &msg {
            Net::UpdatePlain(b) => Some((b.update.id, None, true)),
            Net::UpdateMsg(s, m) => {
                let fits = self.auth.own_slot(from, self.domain, s) && self.auth.admits_member(&s.payload, m);
                Some((m.body.update.id, Some(Aggregation::Switch), fits))
            }
            Net::UpdateAggregated(q, m) => {
                let fits = self.auth.admits_member(&q.payload, m);
                Some((m.body.update.id, Some(Aggregation::Controller), fits))
            }
            _ => None,
        };
        if let Some((update, form, fits)) = form {
            if form != self.shared.cfg.mode.aggregation() || !fits {
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
            Net::UpdateAggregated(q, member) => {
                if !self.first_copy(ctx, member.body.update) {
                    return;
                }
                if self.auth.verify_group(ctx, labels::UPDATE, &q) {
                    self.deliver(ctx, member.body, quorum as u32);
                } else {
                    self.reject(ctx, member.body.update.id);
                }
            }
            // Switch aggregation (paper Fig. 6b): buffer set shares until a
            // quorum of identical ones, each with this switch's member.
            // Under Segway the body also carries the threshold-signed
            // gate/notify metadata.
            Net::UpdateMsg(share, member) => {
                let u = member.body.update;
                if self.admit_share(ctx, u, share.phase, share.partial.index) {
                    let set = share.payload;
                    let q = self.auth.collect(&mut self.buckets, u.id, share, labels::UPDATE, quorum, self.domain);
                    self.on_quorum(ctx, set, *member, q);
                }
            }
            Net::UpdateRelease(m) => self.on_release(ctx, from, m),
            Net::SegwayReady(m) => self.on_ready(ctx, m),
            Net::SegwayReadyQuery { update } => self.on_ready_query(ctx, from, update),
            Net::LinkDown { a, b } => {
                self.raise_event(ctx, EventKind::LinkFailure { a, b });
            }
            Net::PhaseNotice(m) => {
                let valid = self.auth.verify_group(ctx, labels::PHASE, &m);
                if valid && m.payload.phase > self.phase_info.phase {
                    self.phase_info = m.payload;
                    // Stale aggregation buckets and releases from the old
                    // phase die here; a held body waits for the new members.
                    self.buckets.retain_phase(self.phase_info.phase);
                    self.releases.clear_words();
                }
            }
            // Controller traffic is ignored. No catch-all: the match stays
            // exhaustive, so a new `Net` variant fails to compile here until
            // the switch decides what it does with it.
            Net::EventMsg(_)
            | Net::Consensus { .. }
            | Net::UpdateToAggregator(..)
            | Net::AckMsg(_)
            | Net::UpdateNack(_)
            | Net::Heartbeat { .. }
            | Net::Reshare { .. }
            | Net::PhasePartial(_)
            | Net::SegmentApplied(_)
            | Net::MembershipCmd(_)
            | Net::StateSync { .. }
            | Net::SyncRequest { .. }
            | Net::SyncReply { .. } => {}
        }
    }
}

/// Tags `ready` for its addressee alone, under a fresh id: `None` where the
/// pair has no key, and then nothing is sent.
fn tag_ready(
    auth: &mut Authenticator,
    ctx: &mut dyn Host<Net, Obs>,
    ready: ReadyBody,
    phase: Phase,
) -> Option<Tagged<ReadyBody>> {
    let msg_id = auth.next_msg_id();
    auth.tag(ctx, labels::READY, ready, phase, msg_id, Peer::Switch(ready.to))
}
