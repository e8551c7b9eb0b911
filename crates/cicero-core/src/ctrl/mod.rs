//! The controller protocol runtime (paper Figs. 7–8 and §5.1).
//!
//! Each controller actor embeds: a PBFT replica (event agreement), the
//! pluggable network application and update scheduler, the dependency-driven
//! pending-update tracker, the membership view with phase-change/resharing
//! logic, the optional aggregator role, and the heartbeat failure detector.
//!
//! The runtime is split into focused modules, all operating on the one
//! [`ControllerActor`] state machine through the host-agnostic
//! [`Host`](simnet::node::Host) API:
//!
//! * [`consensus`](self) — driving the PBFT replica and routing its outputs;
//! * `events` — event processing, cross-domain forwarding and the one
//!   recovery loop for it (re-forwards by whoever still waits), update
//!   dispatch;
//! * `barriers` — the cross-domain ordering handshake (tagged segment
//!   reports, counted per sender, kept and re-sent to a re-forwarder);
//! * `aggregate` — the optional aggregator role (controller aggregation);
//! * `delivery` — the retransmission / NACK reliable-delivery layer;
//! * `membership` — phase changes with public-key-preserving resharing.

mod aggregate;
mod barriers;
mod consensus;
mod delivery;
mod durable;
mod events;
mod membership;

use crate::auth::{Authenticator, Peer};
use crate::collector::QuorumCollector;
use crate::config::Mode;
use crate::msg::{Net, OrderedOp, PhaseInfo, UpdateBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::{labels, Shared};
use barriers::{BarrierState, Report, SegWatch};
use bft::message::ReplicaId;
use events::Forward;
use bft::replica::Replica;
use blscrypto::bls::{KeyShare, SecretKey};
use blscrypto::dkg::GroupPublic;
use controller::app::ShortestPathApp;
use controller::failure::HeartbeatDetector;
use controller::membership::ControlPlaneView;
use controller::pending::{Kept, PendingUpdates, RetryTable};
use controller::scheduler::{ReversePathScheduler, UpdateScheduler};
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::sim::ENVIRONMENT;
use simnet::time::SimDuration;
use southbound::envelope::{MsgId, QuorumSigned, ShareSigned};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, Phase, SwitchId, UpdateId,
};
use std::collections::{BTreeMap, BTreeSet};
use substrate::storage::{DiskHandle, Wal};
use std::sync::Arc;

const TICK: TimerToken = TimerToken(1);
const HEARTBEAT: TimerToken = TimerToken(2);
const RETRY: TimerToken = TimerToken(3);
const TICK_PERIOD: SimDuration = SimDuration::from_millis(5);

/// The controller actor.
pub struct ControllerActor {
    shared: Arc<Shared>,
    domain: DomainId,
    id: ControllerId,
    /// Signing identity, threshold key material and verification policy.
    auth: Authenticator,
    view: ControlPlaneView,
    active: bool,
    replica: Option<Replica<OrderedOp>>,
    app: ShortestPathApp,
    scheduler: Box<dyn UpdateScheduler>,
    pending: PendingUpdates,
    seen_events: BTreeSet<EventId>,
    forwarded_events: BTreeSet<EventId>,
    unprocessed: BTreeMap<[u8; 32], OrderedOp>,
    queued_events: Vec<Event>,
    /// Aggregator role: update shares below quorum.
    agg_shares: QuorumCollector<UpdateId, UpdateBody>,
    /// Aggregator role: each relayed quorum signature, with the signers
    /// whose share has been seen — a second share from one of them asks for
    /// a re-relay. Cleared at a phase change.
    relayed: Kept<(UpdateId, Phase), (QuorumSigned<UpdateBody>, BTreeSet<u32>)>,
    /// Aggregator role: members' shares of a phase notice below quorum, and
    /// each phase's certified notice.
    phase_shares: QuorumCollector<(), PhaseInfo>,
    phase_notices: Kept<Phase, QuorumSigned<PhaseInfo>>,
    remote_members: BTreeMap<DomainId, Vec<ControllerId>>,
    detector: HeartbeatDetector,
    barriers: BTreeMap<(EventId, u32), BarrierState>,
    /// Per downstream `(domain, controller)`: its verified reports on record
    /// for barriers our own schedule has not registered (capped).
    early_reports: BTreeMap<(DomainId, u32), usize>,
    /// One forward per event whose schedule here waits on another domain,
    /// kept until no update of the event is outstanding: on expiry it is
    /// re-sent to every member of the domains waited on.
    forwards: RetryTable<EventId, Forward>,
    /// The message id of each of `forwards`, drawn at its first re-send and
    /// kept for every later one (each re-tags the body for its readers);
    /// pruned with them at each sweep.
    forwards_sent: Kept<EventId, MsgId>,
    /// Own segments foreign updates depend on, not yet fully switch-acked.
    seg_watch: BTreeMap<(EventId, u32), SegWatch>,
    /// Drained own segments' reports, kept to answer upstream re-forwards:
    /// a current member of an upstream domain that re-forwards the event
    /// gets its copy again.
    seg_sent: Kept<(EventId, u32), Report>,
    /// Dependencies shipped to the switches rather than held here (Segway):
    /// per-update gate/notify metadata projected once at `process_event`
    /// time, consumed (and re-consumed on retransmission and NACK resync)
    /// by `send_update_delayed`.
    shipped: BTreeMap<UpdateId, (Vec<(UpdateId, SwitchId)>, Vec<SwitchId>)>,
    /// Every update's share-signed body as last sent — like the ack archive
    /// it answers NACKs from, pruned only by a phase change. Retransmissions
    /// and NACK answers re-send it as-is; one not kept is signed again.
    updates_sent: Kept<UpdateId, ShareSigned<UpdateBody>>,
    retry_armed: bool,
    // ---- durability (ctrl/durable.rs) --------------------------------
    /// Durable storage, when provisioned.
    disk: Option<DiskHandle>,
    /// Open write-ahead log over `disk`.
    wal: Option<Wal>,
    /// Snapshot + WAL records awaiting replay at `on_start`.
    recovered: Vec<WalRecord>,
    /// Restarted-after-crash: withhold from consensus, state-sync first.
    recovering: bool,
    /// WAL records appended since the last compacting snapshot.
    records_since_snapshot: usize,
    /// Archive of every consensus delivery `(seq, op)` — the snapshot body
    /// and the state-sync answer set.
    delivered_ops: Vec<(u64, OrderedOp)>,
    /// Tick counter for `SyncRequest` re-broadcasts while recovering.
    sync_ticks: u32,
}

impl ControllerActor {
    /// Builds a controller.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shared: Arc<Shared>,
        domain: DomainId,
        id: ControllerId,
        identity: Option<SecretKey>,
        share: Option<KeyShare>,
        view: ControlPlaneView,
        active: bool,
    ) -> Self {
        let replica = active.then(|| Self::build_replica(&view, id));
        let rel = shared.cfg.reliability;
        // Per-controller jitter streams: replicas must not retransmit in
        // lockstep or every retry wave collides at the receiver.
        let jitter = |shift: u32, rot: u32| {
            shared.cfg.seed ^ (u64::from(domain.0) << shift) ^ u64::from(id.0).rotate_left(rot)
        };
        let update_policy = |seed| rel.policy(rel.retry_base, rel.retry_budget, seed);
        let remote_members = shared
            .dir
            .initial_members
            .iter()
            .map(|(d, ms)| (*d, ms.clone()))
            .collect();
        let detector = HeartbeatDetector::new(
            shared
                .cfg
                .heartbeat
                .map(|p| p.saturating_mul(4))
                .unwrap_or(SimDuration::from_millis(500)),
        );
        ControllerActor {
            auth: Authenticator::new(
                Arc::clone(&shared),
                Peer::Controller(domain, id),
                identity,
                share,
            ),
            pending: PendingUpdates::new().with_policy(update_policy(jitter(32, 13))),
            forwards: RetryTable::new(update_policy(jitter(16, 29))),
            shared,
            domain,
            id,
            view,
            active,
            replica,
            app: ShortestPathApp::new(),
            scheduler: Box::new(ReversePathScheduler),
            seen_events: BTreeSet::new(),
            forwarded_events: BTreeSet::new(),
            unprocessed: BTreeMap::new(),
            queued_events: Vec::new(),
            agg_shares: QuorumCollector::new(),
            relayed: Kept::default(),
            phase_shares: QuorumCollector::new(),
            phase_notices: Kept::default(),
            remote_members,
            detector,
            barriers: BTreeMap::new(),
            early_reports: BTreeMap::new(),
            seg_watch: BTreeMap::new(),
            forwards_sent: Kept::default(),
            seg_sent: Kept::default(),
            shipped: BTreeMap::new(),
            updates_sent: Kept::default(),
            retry_armed: false,
            disk: None,
            wal: None,
            recovered: Vec::new(),
            recovering: false,
            records_since_snapshot: 0,
            delivered_ops: Vec::new(),
            sync_ticks: 0,
        }
    }

    /// Replaces the update scheduler (pluggability seam, paper §3.1).
    pub fn set_scheduler(&mut self, s: Box<dyn UpdateScheduler>) {
        self.scheduler = s;
    }

    /// Mutable access to the controller application (e.g. firewall policy).
    pub fn app_mut(&mut self) -> &mut ShortestPathApp {
        &mut self.app
    }

    /// The current membership view (tests).
    pub fn view(&self) -> &ControlPlaneView {
        &self.view
    }

    /// The current group public data (tests: pk invariance).
    pub fn group(&self) -> &GroupPublic {
        self.auth.group()
    }

    /// `true` while this controller participates in the control plane.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// The pending-update tracker (watchdog / tests: drain checks).
    pub fn pending(&self) -> &PendingUpdates {
        &self.pending
    }

    /// The authentication seam, for its counters — signatures made and
    /// checked (a single verify and an aggregate verify each count one), tags
    /// checked (tests: what a duplicate, a late share or a re-forward costs).
    pub fn auth(&self) -> &Authenticator {
        &self.auth
    }

    fn build_replica(view: &ControlPlaneView, id: ControllerId) -> Replica<OrderedOp> {
        let members: Vec<ControllerId> = view.members().collect();
        let pos = members
            .iter()
            .position(|&m| m == id)
            .expect("active controller is a member") as u32;
        Replica::new(
            ReplicaId(pos),
            bft::replica::BftConfig::new(members.len() as u32),
        )
    }

    fn members(&self) -> Vec<ControllerId> {
        self.view.members().collect()
    }

    fn is_lowest(&self) -> bool {
        self.view.aggregator() == self.id
    }

    fn uses_consensus(&self) -> bool {
        !matches!(self.shared.cfg.mode, Mode::Centralized)
    }

    fn node_of(&self, c: ControllerId) -> NodeId {
        self.shared.dir.controller(self.domain, c)
    }

    /// Applies a verified acknowledgement: records it (and its
    /// WAL entry, first ack only), releases newly unblocked updates, and
    /// settles what the ack finished ([`Self::settle`]).
    fn apply_verified_ack(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: UpdateId,
        extra: SimDuration,
    ) {
        let fresh = !self.pending.is_acked(update);
        let ready = self.pending.ack(update, ctx.now());
        if fresh {
            self.log_record(&WalRecord::Acked(update));
        }
        for u in ready {
            self.send_update_delayed(ctx, u, extra);
        }
        self.settle(ctx, update);
        self.arm_retry(ctx);
    }
}

impl Actor<Net, Obs> for ControllerActor {
    fn on_start(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        // Crash recovery first: replay the snapshot + WAL through the real
        // handlers (muted), then resume live operation on recovered state.
        let recovered = std::mem::take(&mut self.recovered);
        self.replay(ctx, recovered, false);
        if self.uses_consensus() {
            ctx.set_timer(TICK_PERIOD, TICK);
        }
        if let Some(hb) = self.shared.cfg.heartbeat {
            if self.active {
                ctx.set_timer(hb, HEARTBEAT);
            }
        }
        let now = ctx.now();
        for m in self.members() {
            if m != self.id {
                self.detector.track(m, now);
            }
        }
        if self.recovering {
            self.send_sync_request(ctx);
        }
        // Replay left re-admitted updates in flight: re-arm their retries.
        self.arm_retry(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        if token == TICK {
            if self.active && !self.auth.rekeying() && !self.recovering {
                if let Some(replica) = self.replica.as_mut() {
                    let outs = replica.on_tick();
                    self.route_outputs(ctx, outs);
                }
            }
            self.tick_recovery(ctx);
            self.maybe_snapshot(ctx);
            ctx.set_timer(TICK_PERIOD, TICK);
        } else if token == HEARTBEAT {
            if let Some(hb) = self.shared.cfg.heartbeat {
                if self.active {
                    let phase = self.view.phase();
                    for m in self.members() {
                        if m != self.id {
                            ctx.send(self.node_of(m), Net::Heartbeat { phase });
                        }
                    }
                    if !self.auth.rekeying() {
                        // Paper §4.3: removal is "proposed by a member that
                        // detects that the member should be removed".
                        let suspects = self.detector.suspects(ctx.now());
                        for s in suspects {
                            if s != self.id && self.view.contains(s) && self.view.len() > 4 {
                                self.submit_op(ctx, OrderedOp::RemoveController(s));
                            }
                        }
                    }
                }
                ctx.set_timer(hb, HEARTBEAT);
            }
        } else if token == RETRY {
            self.on_retry_timer(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        // The transport names the sender; no unsigned field restates it.
        // Consensus, heartbeats and state sync are between controllers of
        // one domain and dropped from anybody else.
        let peer = match self.shared.dir.peer(from) {
            Some(Peer::Controller(d, c)) if d == self.domain => Some(c),
            _ => None,
        };
        match msg {
            Net::EventMsg(m) => self.on_event_msg(ctx, from, m, false),
            Net::ForwardedEvent(m) => self.on_event_msg(ctx, from, m, true),
            Net::Consensus { phase, msg } => {
                // While recovering, consensus traffic is dropped: the
                // remaining 2f replicas make progress without this one, and
                // it rejoins fast-forwarded after the snapshot transfer.
                if !self.active
                    || phase != self.view.phase()
                    || self.auth.rekeying()
                    || self.recovering
                {
                    return;
                }
                ctx.charge_cpu(self.shared.cfg.costs.consensus_msg);
                let members = self.members();
                let Some(pos) = members.iter().position(|&m| Some(m) == peer) else {
                    return;
                };
                let Some(replica) = self.replica.as_mut() else {
                    return;
                };
                let outs = replica.handle(ReplicaId(pos as u32), *msg);
                self.route_outputs(ctx, outs);
            }
            Net::AckMsg(m) => {
                if !self.active {
                    return;
                }
                ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
                let update = m.payload.update;
                // A re-ack of a settled update cannot change anything:
                // drop it before paying for its tag.
                if self.pending.is_settled(update) {
                    return;
                }
                // A switch acknowledges its own updates only.
                let origin = SwitchId(m.msg_id.origin);
                let target = self.pending.target(update);
                if m.payload.switch != origin || target.is_some_and(|s| s != origin) {
                    return;
                }
                // Verification latency rides on the released updates
                // (parallelizable on the controller's cores).
                let from = Peer::Switch(origin);
                let Some(latency) = self.auth.verify_tag(ctx, labels::ACK, &m, from) else {
                    return;
                };
                match target {
                    Some(_) => self.apply_verified_ack(ctx, update, latency),
                    // It overtook its update's delivery here: whose update
                    // that is decides at admission what the ack is worth.
                    None => self.pending.ack_early(update, origin),
                }
            }
            Net::UpdateNack(m) => self.on_update_nack(ctx, m),
            Net::SegmentApplied(m) => self.on_segment_applied(ctx, from, m),
            Net::UpdateToAggregator(m) => self.on_update_to_aggregator(ctx, from, m),
            Net::PhasePartial(m) => self.on_phase_partial(ctx, from, m),
            Net::Heartbeat { .. } => {
                if let Some(from) = peer {
                    self.detector.heartbeat(from, ctx.now());
                }
            }
            Net::Reshare { phase, dealing } => {
                let rekeyed = self.auth.offer_dealing(from, phase, dealing);
                if rekeyed {
                    self.finish_phase_change(ctx);
                }
            }
            // Only the domain's bootstrap controller sends a joiner its view.
            Net::StateSync { view } if peer == Some(self.view.bootstrap()) => {
                self.on_state_sync(ctx, view);
            }
            Net::SyncRequest { have } => {
                if let Some(from) = peer {
                    self.on_sync_request(ctx, from, have);
                }
            }
            Net::SyncReply { records } => {
                if let Some(from) = peer {
                    self.on_sync_reply(ctx, from, records);
                }
            }
            Net::MembershipCmd(op) => {
                let allowed = match op {
                    OrderedOp::AddController(_) => self.id == self.view.bootstrap(),
                    OrderedOp::RemoveController(_) => true,
                    OrderedOp::Event(_) => false,
                };
                // The operator's command comes from outside the fabric.
                if allowed && from == ENVIRONMENT && !self.recovering {
                    self.submit_op(ctx, op);
                }
            }
            // Switch-directed traffic is ignored defensively.
            _ => {}
        }
    }
}
