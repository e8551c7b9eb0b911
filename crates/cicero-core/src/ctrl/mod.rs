//! The controller protocol runtime (paper Figs. 7–8 and §5.1).
//!
//! Each controller actor embeds: a PBFT replica (event agreement), the
//! pluggable network application and update scheduler, the dependency-driven
//! pending-update tracker, the membership view with phase-change/resharing
//! logic, the optional aggregator role, and the heartbeat failure detector.
//!
//! The runtime is split into focused modules, all operating on the one
//! [`ControllerActor`] state machine through the host-agnostic
//! [`Host`] API:
//!
//! * [`consensus`](self) — driving the PBFT replica and routing its outputs;
//! * `events` — event processing, cross-domain forwarding and the one
//!   recovery loop for it (re-forwards by whoever still waits), update
//!   dispatch;
//! * `barriers` — the cross-domain ordering handshake (tagged segment
//!   reports, counted per sender, kept and re-sent to a re-forwarder);
//! * `aggregate` — the optional aggregator role (controller aggregation);
//! * `delivery` — the retransmission / NACK reliable-delivery layer;
//! * `durable` — the write-ahead log, crash recovery and snapshot state
//!   sync;
//! * `membership` — phase changes with public-key-preserving resharing.
//!
//! Three timers drive the actor. `RETRY` runs while an update or forward
//! awaits its answer, `HEARTBEAT` every period when heartbeats are on, and
//! the 5 ms consensus `TICK` only while it has work: the replica waits on
//! the group, a state sync is in flight, or a snapshot is due
//! (`ControllerActor::arm_tick`, which every handler ends with).

// A protocol hot path: a panic here states its invariant (`expect("…")`,
// checked by scripts/verify.sh).
#![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]

mod aggregate;
mod barriers;
mod consensus;
mod delivery;
mod durable;
mod events;
mod membership;

use crate::auth::{Authenticator, Peer};
use crate::collector::QuorumCollector;
use crate::config::{Mode, RETRY_BASE, RETRY_BUDGET};
use crate::msg::{Net, OrderedOp, PhaseInfo, Release, UpdateSet, WalRecord};
use crate::obs::Obs;
use crate::runtime::{labels, Shared};
use barriers::{Barrier, Report, SegWatch};
pub use barriers::barrier_id;
use bft::message::ReplicaId;
use events::{Forward, OwnSet};
use bft::replica::Replica;
use blscrypto::bls::{KeyShare, SecretKey};
use blscrypto::dkg::GroupPublic;
use controller::app::ShortestPathApp;
use controller::failure::HeartbeatDetector;
use controller::membership::ControlPlaneView;
use controller::pending::{Kept, PendingUpdates, RetryPolicy, RetryTable, Tally};
use controller::scheduler::{ReversePathScheduler, UpdateScheduler};
use simnet::node::{Actor, Host, NodeId, TimerToken};
use simnet::sim::ENVIRONMENT;
use simnet::time::SimDuration;
use southbound::envelope::{MsgId, QuorumSigned, Tagged};
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

/// A set the aggregator certified: its quorum signature, and per member
/// relayed under it, the signers whose share came with that member.
type Relay = (QuorumSigned<UpdateSet>, BTreeMap<UpdateId, BTreeSet<u32>>);

/// The controller actor.
pub struct ControllerActor {
    shared: Arc<Shared>,
    domain: DomainId,
    id: ControllerId,
    /// Identity key (for pair keys), threshold key share, verification policy.
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
    /// Aggregator role: set shares below quorum, bucketed per set.
    agg_shares: QuorumCollector<UpdateSet, UpdateSet>,
    /// Aggregator role: one record per set certified in this phase, whose
    /// signature every member admitted afterwards goes out under. Cleared
    /// at a phase change.
    relayed: Kept<UpdateSet, Relay>,
    /// Aggregator role: members' shares of a phase notice below quorum, and
    /// each phase's certified notice.
    phase_shares: QuorumCollector<(), PhaseInfo>,
    phase_notices: Kept<Phase, QuorumSigned<PhaseInfo>>,
    remote_members: BTreeMap<DomainId, Vec<ControllerId>>,
    detector: HeartbeatDetector,
    /// Barriers our own schedule raised, each registered in `reports`.
    barriers: BTreeMap<(EventId, u32), Barrier>,
    /// Verified segment reports, `(event, segment)` → `(domain, controller)`,
    /// every one in the WAL; a report may arrive before its barrier.
    reports: Tally<(EventId, u32), (DomainId, u32)>,
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
    /// Every update set this controller signs, under its first member: a
    /// domain-event's whole schedule, fixed at `process_event` time with
    /// each body's Segway gate/notify metadata or Cicero `held` mark — or,
    /// on the paper's path, one update, opened when it is first sent. A
    /// phase change drops only the shares ([`OwnSet`]); a set is forgotten
    /// once every member is settled here.
    sets: BTreeMap<UpdateId, OwnSet>,
    /// The set each update is a member of.
    set_of: BTreeMap<UpdateId, UpdateId>,
    /// Every held update's tagged release as sent, pruned by a phase change:
    /// re-sent with the kept share, tagged again in a new phase.
    releases_sent: Kept<UpdateId, Tagged<Release>>,
    retry_armed: bool,
    /// `true` while a `TICK` is outstanding: `arm_tick` arms at most one,
    /// and only while it has work.
    tick_armed: bool,
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
    #[allow(clippy::too_many_arguments, reason = "one constructor argument per deployment fact")]
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
        // Per-controller jitter streams: replicas must not retransmit in
        // lockstep or every retry wave collides at the receiver.
        let jitter = |shift: u32, rot: u32| {
            shared.cfg.seed ^ (u64::from(domain.0) << shift) ^ u64::from(id.0).rotate_left(rot)
        };
        let policy = |seed| RetryPolicy::new(RETRY_BASE, RETRY_BUDGET, seed);
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
            pending: PendingUpdates::new(policy(jitter(32, 13))),
            forwards: RetryTable::new(policy(jitter(16, 29))),
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
            reports: Tally::default(),
            seg_watch: BTreeMap::new(),
            forwards_sent: Kept::default(),
            seg_sent: Kept::default(),
            sets: BTreeMap::new(),
            set_of: BTreeMap::new(),
            releases_sent: Kept::default(),
            retry_armed: false,
            tick_armed: false,
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

    /// The aggregator's update-set collector (tests: a share below quorum
    /// stays bucketed here and is never relayed).
    pub fn aggregating(&self) -> &QuorumCollector<UpdateSet, UpdateSet> {
        &self.agg_shares
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
            self.observe_ack(ctx, update);
        }
        for u in ready {
            self.release(ctx, u, extra);
        }
        self.settle(ctx, update);
        self.arm_retry(ctx);
    }

    /// Reports the first accepted ack of `update` where releases depend on
    /// acks (the telemetry oracle pairs each release with them).
    fn observe_ack(&self, ctx: &mut dyn Host<Net, Obs>, update: UpdateId) {
        if self.shared.cfg.holds_at_switch() {
            let (domain, controller) = (self.domain, self.id.0);
            ctx.observe(Obs::AckAccepted { domain, controller, update });
        }
    }
}

impl Actor<Net, Obs> for ControllerActor {
    fn on_start(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        // Crash recovery first: replay the snapshot + WAL through the real
        // handlers (muted), then resume live operation on recovered state.
        let recovered = std::mem::take(&mut self.recovered);
        self.replay(ctx, recovered, false);
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
        self.arm_tick(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        if token == TICK {
            self.tick_armed = false;
            if self.active && !self.auth.rekeying() && !self.recovering {
                if let Some(replica) = self.replica.as_mut() {
                    let outs = replica.on_tick();
                    self.route_outputs(ctx, outs);
                }
            }
            self.tick_recovery(ctx);
            self.maybe_snapshot(ctx);
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
        self.arm_tick(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        self.dispatch(ctx, from, msg);
        self.arm_tick(ctx);
    }
}

impl ControllerActor {
    /// Arms the consensus tick while it has work and none is outstanding:
    /// the replica is [`waiting`](Replica::waiting) on the group, a state
    /// sync is in flight, or a snapshot is due. Every handler ends here, so
    /// the one that creates such work starts the clock, 5 ms out; a tick
    /// that finds none lets the chain lapse. The only place `TICK` is set.
    fn arm_tick(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        let waiting = self.replica.as_ref().is_some_and(Replica::waiting);
        let work = waiting || self.recovering || self.snapshot_due();
        if !self.tick_armed && self.uses_consensus() && work {
            self.tick_armed = true;
            ctx.set_timer(TICK_PERIOD, TICK);
        }
    }

    /// The body of `on_message`: hands one message to its handler.
    fn dispatch(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        // The transport names the sender; no unsigned field restates it.
        // Consensus, heartbeats and state sync are between controllers of
        // one domain and dropped from anybody else.
        let peer = match self.shared.dir.peer(from) {
            Some(Peer::Controller(d, c)) if d == self.domain => Some(c),
            _ => None,
        };
        match msg {
            Net::EventMsg(m) => self.on_event_msg(ctx, from, m),
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
                // A switch acknowledges its own updates only, early ones within its allowance.
                let origin = SwitchId(m.msg_id.origin);
                let target = self.pending.target(update);
                let early = || self.pending.admits_early(update, origin);
                if m.payload.switch != origin || !target.map_or_else(early, |s| s == origin) {
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
            Net::UpdateToAggregator(share, member) => {
                self.on_update_to_aggregator(ctx, from, share, member)
            }
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
            Net::StateSync { view, group } if peer == Some(self.view.bootstrap()) => {
                self.on_state_sync(ctx, view, group);
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
            // Switch-directed traffic, and a view from anyone but the
            // bootstrap controller, is ignored. No catch-all: the match
            // stays exhaustive, so a new `Net` variant fails to compile here
            // until the controller decides what it does with it.
            Net::FlowArrival { .. }
            | Net::FlowDone { .. }
            | Net::UpdateMsg(..)
            | Net::UpdatePlain(_)
            | Net::UpdateAggregated(..)
            | Net::UpdateRelease(_)
            | Net::SegwayReady(_)
            | Net::SegwayReadyQuery { .. }
            | Net::PhaseNotice(_)
            | Net::LinkDown { .. }
            | Net::StateSync { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::Engine;
    use controller::policy::DomainMap;
    use netmodel::topology::Topology;
    use simnet::node::{Context, Effect};
    use simnet::time::SimTime;
    use substrate::rng::{SeedableRng, StdRng};

    /// Runs one handler call against a fresh [`Context`] and returns how
    /// many `TICK`s it armed.
    fn armed(
        ctrl: &mut ControllerActor,
        node: NodeId,
        call: impl FnOnce(&mut ControllerActor, &mut Context<'_, Net, Obs>),
    ) -> usize {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Context::new(SimTime::ZERO, node, &mut rng);
        call(ctrl, &mut ctx);
        let effects = ctx.into_effects();
        effects.iter().filter(|e| matches!(e, Effect::Timer { token: TICK, .. })).count()
    }

    /// A standby controller that starts, is sent its view and joins keeps
    /// at most one `TICK` outstanding, however many handlers create work
    /// for it. (It once armed one in `on_start` and a second on the state
    /// sync: two chains, 400 ticks a second and half the view-change
    /// timeout.)
    #[test]
    fn a_joiner_keeps_at_most_one_tick_outstanding() {
        let topo = Topology::single_pod(2, 2, 2);
        let dm = DomainMap::single(&topo);
        let mut engine = Engine::build(EngineConfig::for_mode(Mode::CICERO), topo, dm, 1);
        let (domain, joiner) = (DomainId(0), ControllerId(5));
        let node = engine.controller_node(domain, joiner);
        let bootstrap = engine.controller_node(domain, ControllerId(1));
        engine.with_controller(domain, joiner, |ctrl| {
            assert!(!ctrl.is_active());
            let mut view = ctrl.view().clone();
            view.add(view.bootstrap(), joiner).expect("the bootstrap admits the joiner");
            let mut outstanding = armed(ctrl, node, |c, ctx| c.on_start(ctx));
            outstanding += armed(ctrl, node, |c, ctx| {
                let group = c.group().clone();
                c.on_message(ctx, bootstrap, Net::StateSync { view: view.clone(), group })
            });
            assert!(outstanding <= 1, "{outstanding} tick chains after joining");
            assert!(ctrl.is_active(), "modeled crypto re-keys at once");
            assert_eq!(outstanding, 0, "joined, and nothing to order yet");
            // Two requests to order: one tick.
            for c in [2, 3] {
                let cmd = Net::MembershipCmd(OrderedOp::RemoveController(ControllerId(c)));
                outstanding += armed(ctrl, node, |a, ctx| a.on_message(ctx, ENVIRONMENT, cmd));
                assert_eq!(outstanding, 1, "one tick while the replica waits");
            }
            // The tick fires and, still waiting, re-arms once.
            outstanding -= 1;
            outstanding += armed(ctrl, node, |c, ctx| c.on_timer(ctx, TICK));
            assert_eq!(outstanding, 1);
        });
    }
}
