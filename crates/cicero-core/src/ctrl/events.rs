//! Event processing: delivering totally-ordered events into the network
//! application, projecting and releasing this domain's updates, forwarding
//! events to other affected domains — and re-forwarding them while this
//! controller waits on one, the one recovery loop for cross-domain events —
//! and dispatching signed updates.

use super::barriers::barrier_id;
use super::ControllerActor;
use crate::auth::Peer;
use crate::config::{Aggregation, Mode};
use crate::msg::{Member, Net, Release, UpdateBody, UpdateSet, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::app::NetworkApp;
use controller::pending::Retry;
use controller::scheduler::{project, Projected, ScheduledUpdate};
use simnet::node::{Host, NodeId};
use simnet::time::{SimDuration, SimTime};
use southbound::envelope::{MsgId, ShareSigned, Tagged};
use southbound::types::{
    ControllerId, DomainId, Event, EventId, EventKind, NetworkUpdate, SwitchId, UpdateId,
};
use std::collections::BTreeSet;

/// An event whose projected schedule here waits on other domains, and this
/// controller's forward of it to them: kept until the wait is over, and
/// re-sent on the retry clock to every member of the domains waited on
/// ([`ControllerActor::sweep_forwards`]).
pub(super) struct Forward {
    /// The event as this controller forwards it: `origin` is its own
    /// domain, which with the id's origin names the sender whose tag the
    /// receivers check.
    event: Event,
    /// The domains the schedule waits on.
    downstream: BTreeSet<DomainId>,
    /// What ends the wait once acknowledged here: the barriers (Cicero), or
    /// the own updates a switch holds at a foreign gate (Segway).
    awaits: BTreeSet<UpdateId>,
}

/// An update set this controller signs: the set, each member as it
/// travels, and — in the current phase — its share, the time the share is
/// ready to leave, and the members sent with it. A phase change drops the
/// share and the record of what went with it; the next send signs the same
/// whole set in the new phase, never the members still outstanding alone,
/// so honest controllers' roots never split a switch's bucket.
pub(super) struct OwnSet {
    set: UpdateSet,
    members: Vec<Member>,
    share: Option<(ShareSigned<UpdateSet>, SimTime)>,
    sent: BTreeSet<UpdateId>,
}

impl ControllerActor {
    pub(super) fn process_event(&mut self, ctx: &mut dyn Host<Net, Obs>, event: Event) {
        if !self.seen_events.insert(event.id) {
            return;
        }
        ctx.observe(Obs::EventDelivered {
            domain: self.domain,
            controller: self.id.0,
            event: event.id,
        });
        if self.is_lowest() {
            ctx.observe(Obs::EventProcessed {
                domain: self.domain,
                event: event.id,
            });
        }
        // Cross-domain bookkeeping events.
        if let EventKind::MembershipChanged {
            domain,
            controller,
            added,
        } = event.kind
        {
            let members = self.remote_members.entry(domain).or_default();
            if added {
                if !members.contains(&controller) {
                    members.push(controller);
                    members.sort();
                }
            } else {
                members.retain(|&c| c != controller);
            }
            return;
        }
        // Forward to other affected domains (paper §4.1). Normally already
        // done at event receipt (so the domains' consensus rounds overlap);
        // this is the fallback for events that reached consensus without
        // passing through this controller's inbox — e.g. after the
        // forwarding aggregator crashed before forwarding.
        if !event.forwarded && self.is_lowest() {
            self.forward_event(ctx, &event);
        }
        // Compute, schedule and release this domain's updates. The schedule
        // is computed over the *full* update list so dependencies that cross
        // domain boundaries survive the projection onto this domain.
        let all = self.app.handle_event(&event, &self.shared.topo);
        let domain_of = |s: SwitchId| self.shared.dir.domain_of_switch.get(&s).copied();
        let own: Vec<NetworkUpdate> = all
            .iter()
            .filter(|u| domain_of(u.switch) == Some(self.domain))
            .copied()
            .collect();
        if own.is_empty() {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.event_process);
        // The handshake-off control schedules the own updates alone: it
        // knows no foreign edge to order by, and (unlike a projection with
        // its foreign edges dropped) chains two own segments of one path.
        let handshake = self.shared.cfg.cross_domain_handshake;
        let listed = if handshake { &all } else { &own };
        let projected = project(&self.scheduler.schedule(listed), domain_of, self.domain);
        // Whoever waits on another domain — a barrier here, a foreign gate at
        // a Segway switch — keeps a forward to it until the wait is over.
        let segway = self.shared.cfg.mode == Mode::Segway;
        let (mut downstream, mut awaits) = (BTreeSet::new(), BTreeSet::new());
        for p in &projected {
            for f in &p.foreign {
                downstream.insert(f.domain);
                let held = if segway { p.update.id } else { barrier_id(event.id, f.segment) };
                awaits.insert(held);
            }
        }
        if !downstream.is_empty() {
            let forward = Forward {
                event: Event {
                    origin: self.domain,
                    forwarded: true,
                    ..event
                },
                downstream,
                awaits,
            };
            // The id only seeds the clock's jitter.
            let jitter = UpdateId {
                event: event.id,
                seq: 0,
            };
            self.forwards.insert(event.id, jitter, forward, ctx.now());
            self.forwards_sent.reserve(event.id);
        }
        // The mode only chooses who enforces the projected dependencies.
        let schedule = if segway {
            self.ship_to_switches(event.id, projected)
        } else {
            self.hold_at_controller(ctx, &event, projected)
        };
        let updates: Vec<NetworkUpdate> = schedule.iter().map(|s| s.update).collect();
        let admitted = self.pending.admit(schedule, ctx.now());
        let pipeline = self.shared.cfg.costs.event_pipeline;
        // An update its switch acknowledged before this controller got here
        // is done: what its ack does, minus anything to send for it.
        for &update in &admitted.retired {
            self.log_record(&WalRecord::Acked(update));
            self.observe_ack(ctx, update);
            self.settle(ctx, update);
        }
        // What is ready goes now; a held update is signed and sent now too,
        // and waits at its switch for its releases.
        for u in admitted.ready {
            self.send_update_delayed(ctx, u, pipeline);
        }
        for u in updates {
            if self.pending.is_waiting(u.id) && self.is_held(u.id) {
                self.send_update_delayed(ctx, u, pipeline);
            }
        }
        self.arm_retry(ctx);
    }

    /// Segway: one controller round. Every dependency, own and foreign
    /// alike, is shipped in the update's body — `gates` (what it waits for,
    /// with the switch that will announce each) and `notify` (the switches
    /// waiting on it) — and enforced on the data plane by signed
    /// switch-to-switch readies. The returned schedule carries *no*
    /// dependencies, so everything is released at once: no held releases,
    /// no cross-domain handshake.
    fn ship_to_switches(&mut self, event: EventId, projected: Vec<Projected>) -> Vec<ScheduledUpdate> {
        let mut out = Vec::new();
        let mut bodies = Vec::new();
        for p in projected {
            let mut gates = p.local;
            gates.extend(p.foreign.iter().map(|f| (f.update, f.switch)));
            gates.sort();
            let (update, notify) = (p.update, p.notify);
            bodies.push(UpdateBody { update, gates, notify, held: false });
            out.push(ScheduledUpdate {
                update: p.update,
                deps: BTreeSet::new(),
            });
        }
        self.open_set(event, bodies);
        out
    }

    /// Opens the set of `bodies`, `event`'s updates here, taken in
    /// ascending id order (its leaf order); nothing is signed yet.
    pub(super) fn open_set(&mut self, event: EventId, mut bodies: Vec<UpdateBody>) {
        bodies.sort_by_key(|b| b.update.id);
        let (set, members) = UpdateSet::of(self.auth.tree_hash(), event, self.domain, bodies);
        let key = members[0].body.update.id;
        for m in &members {
            self.set_of.insert(m.body.update.id, key);
        }
        let sent = BTreeSet::new();
        self.sets.insert(key, OwnSet { set, members, share: None, sent });
    }

    /// Drops every set's share (a phase change: what was signed no longer
    /// counts); the sets stay until settled ([`Self::retire_set`]).
    pub(super) fn drop_shares(&mut self) {
        for s in self.sets.values_mut() {
            s.share = None;
            s.sent.clear();
        }
    }

    /// Forwards `event` to the first member of every other affected domain,
    /// at most once per event (the lowest live controller forwards, to
    /// avoid n copies). Whoever then waits on one of those domains re-sends
    /// its own forward until the wait is over ([`Self::sweep_forwards`]).
    pub(super) fn forward_event(&mut self, ctx: &mut dyn Host<Net, Obs>, event: &Event) {
        if !self.forwarded_events.insert(event.id) {
            return;
        }
        let affected = self
            .shared
            .policy
            .affected_domains(event, &self.shared.topo);
        for d in affected {
            if d == self.domain {
                continue;
            }
            let Some(target) = self
                .remote_members
                .get(&d)
                .and_then(|ms| ms.first().copied())
            else {
                continue;
            };
            let fwd = Event {
                forwarded: true,
                ..*event
            };
            let msg_id = self.auth.next_msg_id();
            self.send_forward(ctx, fwd, msg_id, d, target);
        }
    }

    /// Sends `event` to controller `c` of domain `d`, tagged for it alone.
    pub(super) fn send_forward(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        event: Event,
        msg_id: MsgId,
        d: DomainId,
        c: ControllerId,
    ) {
        let (to, phase) = (Peer::Controller(d, c), self.view.phase());
        if let Some(tagged) = self.auth.tag(ctx, labels::FORWARD, event, phase, msg_id, to) {
            self.send_remote(ctx, d, c, Net::EventMsg(tagged));
        }
    }

    /// Re-sends every overdue forward (from the retry timer) to every member
    /// of the domains it waits on. The one message answers both things a
    /// waiting controller can lack: a domain that never heard of the event
    /// delivers it, one that did answers with the segment reports it kept
    /// ([`Self::answer_reforward`]). Its id is drawn at the first re-send
    /// and kept, and each re-send tags one copy per current member; a spent
    /// budget stops the re-sending and the schedule waits quietly.
    pub(super) fn sweep_forwards(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        for r in self.forwards.sweep(ctx.now()) {
            let Retry::Resend(event, attempt) = r else {
                continue;
            };
            let fwd = self.forwards.get(&event).expect("re-sent, so kept");
            let (body, downstream, auth) = (fwd.event, fwd.downstream.clone(), &mut self.auth);
            let id = || Some(auth.next_msg_id());
            let (&msg_id, _) = self.forwards_sent.resend(&event, |_| true, id).expect("reserved");
            for d in downstream {
                for c in self.remote_members.get(&d).cloned().unwrap_or_default() {
                    self.send_forward(ctx, body, msg_id, d, c);
                }
            }
            ctx.observe(Obs::ForwardRetransmitted {
                domain: self.domain,
                controller: self.id.0,
                event,
                attempt,
            });
        }
        let forwards = &self.forwards;
        self.forwards_sent.retain(|event| forwards.contains(event));
    }

    /// What the acknowledgement of own update `update` finishes here: the
    /// own segments it drained are reported upstream, and the event's
    /// forward may have nothing left to wait for.
    pub(super) fn settle(&mut self, ctx: &mut dyn Host<Net, Obs>, update: UpdateId) {
        self.report_drained_segments(ctx, update);
        self.retire_forward(update.event);
        self.retire_set(update);
    }

    /// Forgets `update`'s set once every member of it is acknowledged or
    /// failed here: nothing of it is sent again but a NACK answer, which
    /// then goes out as a set of one of the update's plain body. Honest
    /// controllers that retired the set answer alike, so of the 2f + 1
    /// honest ones, f + 1 agree on one set or the other.
    pub(super) fn retire_set(&mut self, update: UpdateId) {
        let Some(&key) = self.set_of.get(&update) else {
            return;
        };
        let pending = &self.pending;
        let done = |m: &Member| pending.is_acked(m.body.update.id) || pending.is_failed(m.body.update.id);
        if self.sets[&key].members.iter().all(done) {
            for m in &self.sets.remove(&key).expect("just read").members {
                self.set_of.remove(&m.body.update.id);
            }
        }
    }

    /// Retires `event`'s forward once everything it waited for is
    /// acknowledged here — no message is sent for a wait that is over.
    pub(super) fn retire_forward(&mut self, event: EventId) {
        let pending = &self.pending;
        let over = |f: &Forward| f.awaits.iter().all(|&u| pending.is_acked(u));
        if self.forwards.get(&event).is_some_and(over) {
            self.forwards.remove(&event);
        }
    }

    /// Update sets kept here: signed, with a member not yet settled (tests).
    pub fn sets_kept(&self) -> usize {
        self.sets.len()
    }

    /// `update`'s set and its member of it.
    fn member(&self, update: UpdateId) -> Option<(&OwnSet, &Member)> {
        let set = self.sets.get(self.set_of.get(&update)?)?;
        let member = set.members.iter().find(|m| m.body.update.id == update)?;
        Some((set, member))
    }

    /// `true` for an update its switch holds until released (Cicero, with
    /// dependencies).
    pub(super) fn is_held(&self, update: UpdateId) -> bool {
        self.member(update).is_some_and(|(_, m)| m.body.held)
    }

    /// Releases `update`, whose dependencies are all acknowledged here: the
    /// held update's switch gets this controller's release (its share left
    /// at admission); any other update, or a held one whose share a phase
    /// change dropped, is sent now.
    pub(super) fn release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        extra: SimDuration,
    ) {
        let member = self.member(update.id);
        if member.is_some_and(|(s, m)| m.body.held && s.sent.contains(&update.id)) {
            self.send_release(ctx, update, extra);
        } else {
            self.send_update_delayed(ctx, update, extra);
        }
    }

    /// Sends held `update`'s release to its switch, `extra` late: the kept
    /// one, or one tagged now and kept — at the first release, and in a new
    /// phase.
    fn send_release(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        extra: SimDuration,
    ) {
        let kept = self.releases_sent.resend(&update.id, |_| true, || None);
        let msg = match kept {
            Some((msg, _)) => msg.clone(),
            None => {
                let body = Release { update: update.id, switch: update.switch };
                let (to, phase) = (Peer::Switch(update.switch), self.view.phase());
                let msg_id = self.auth.next_msg_id();
                let Some(msg) = self.auth.tag(ctx, labels::RELEASE, body, phase, msg_id, to) else {
                    return;
                };
                ctx.observe(Obs::ReleaseSent {
                    domain: self.domain,
                    controller: self.id.0,
                    update: update.id,
                    switch: update.switch,
                });
                self.releases_sent.keep(update.id, msg.clone());
                msg
            }
        };
        ctx.send_delayed(self.shared.dir.switch(update.switch), Net::UpdateRelease(msg), extra);
    }

    /// Sends `update` to its switch in the envelope the mode uses: signed
    /// modes send this controller's share of the update's set with the
    /// update's member of it. An update without a set (the paper's path)
    /// is a set of one, opened here. The set is share-signed once per phase
    /// — a third of the signing time is serialized CPU, all of it is
    /// latency on every member sent before the share is ready, on top of
    /// `extra` — and kept: a retransmission or a NACK answer re-sends it
    /// and pays neither. A held update released here goes with its release.
    pub(super) fn send_update_delayed(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        extra: SimDuration,
    ) {
        let switch_node = self.shared.dir.switch(update.switch);
        let plain = UpdateBody { update, gates: Vec::new(), notify: Vec::new(), held: false };
        let Some(aggregation) = self.shared.cfg.mode.aggregation() else {
            ctx.send_delayed(switch_node, Net::UpdatePlain(plain), extra);
            return;
        };
        if !self.set_of.contains_key(&update.id) {
            self.open_set(update.id.event, vec![plain]);
        }
        let (now, phase, sign) = (ctx.now(), self.view.phase(), self.shared.cfg.costs.update_sign);
        let key = self.set_of[&update.id];
        let own = self.sets.get_mut(&key).expect("every member's set is kept");
        let (share, ready) = match &own.share {
            Some(kept) => kept.clone(),
            None => {
                let share = self.auth.sign_share(ctx, labels::UPDATE, own.set, phase);
                own.share.insert((share, now + sign)).clone()
            }
        };
        own.sent.insert(update.id);
        let member = own.members.iter().find(|m| m.body.update.id == update.id);
        let member = Box::new(member.expect("a set holds its members").clone());
        let delay = extra + ready.since(now);
        match aggregation {
            Aggregation::Switch => ctx.send_delayed(switch_node, Net::UpdateMsg(share, member), delay),
            Aggregation::Controller => {
                let agg = self.node_of(self.view.aggregator());
                ctx.send_delayed(agg, Net::UpdateToAggregator(share, member), delay);
            }
        }
        if self.is_held(update.id) && !self.pending.is_waiting(update.id) {
            self.send_release(ctx, update, extra);
        }
    }

    /// A switch's event or another domain's forward, told apart by the
    /// event's `forwarded` mark. A replay of a processed event is dropped
    /// unchecked (a re-forward is answered); otherwise it counts only over
    /// the channel of the sender the mark and id name — the switch, or the
    /// forwarding controller of the event's `origin` domain — and only if
    /// that sender's tag for this controller holds. A switch's event marked
    /// forwarded therefore fails the channel check (taken as the switch's,
    /// it would reach no other domain).
    pub(super) fn on_event_msg(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        msg: Tagged<Event>,
    ) {
        let forwarded = msg.payload.forwarded;
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        // A replay of a processed event cannot change anything: drop it
        // before paying for its tag. A re-forward of one asks for what its
        // sender still waits on here.
        if self.seen_events.contains(&msg.payload.id) {
            if forwarded {
                self.answer_reforward(ctx, from, msg.payload.id);
            }
            return;
        }
        let (label, sender) = if forwarded {
            let sender = Peer::Controller(msg.payload.origin, ControllerId(msg.msg_id.origin));
            (labels::FORWARD, sender)
        } else {
            (labels::EVENT, Peer::Switch(SwitchId(msg.msg_id.origin)))
        };
        // On the paper's 12-core controllers the tag check is latency, not
        // serialized CPU — `mac`, nothing beside the event pipeline.
        if self.shared.dir.peer(from) != Some(sender)
            || self.auth.verify_tag(ctx, label, &msg, sender).is_none()
        {
            return;
        }
        // Forward to other affected domains at *receipt* rather than after
        // local consensus: the domains' agreement rounds then run in
        // parallel, which keeps the cross-domain ordering handshake's
        // serial segment chain off the consensus critical path.
        if !forwarded && self.is_lowest() {
            self.forward_event(ctx, &msg.payload);
        }
        if self.auth.rekeying() || self.recovering {
            // Mid-reshare or mid-recovery: hold the event until the control
            // plane is back in a state where it can order it.
            self.queued_events.push(msg.payload);
            return;
        }
        // Controller-aggregation mode: the aggregator is the switches' sole
        // contact and relays events into the control plane (paper §4.2).
        self.submit_op(ctx, crate::msg::OrderedOp::Event(msg.payload));
    }
}
