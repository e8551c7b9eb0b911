//! Event processing: delivering totally-ordered events into the network
//! application, projecting and releasing this domain's updates, forwarding
//! events to other affected domains — and re-forwarding them while this
//! controller waits on one, the one recovery loop for cross-domain events —
//! and dispatching signed updates.

use super::barriers::barrier_id;
use super::ControllerActor;
use crate::auth::Peer;
use crate::config::{Aggregation, Mode};
use crate::msg::{Net, UpdateBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::app::NetworkApp;
use controller::pending::Retry;
use controller::scheduler::{project, Projected, ScheduledUpdate};
use simnet::node::{Host, NodeId};
use simnet::time::SimDuration;
use southbound::envelope::{MsgId, Tagged};
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

impl ControllerActor {
    pub(super) fn process_event(&mut self, ctx: &mut dyn Host<Net, Obs>, event: Event) {
        if !self.seen_events.insert(event.id) {
            return;
        }
        if self.shared.cfg.trace_deliveries {
            ctx.observe(Obs::EventDelivered {
                domain: self.domain,
                controller: self.id.0,
                event: event.id,
            });
        }
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
            self.ship_to_switches(projected)
        } else {
            self.hold_at_controller(ctx, &event, projected)
        };
        let admitted = self.pending.admit(schedule, ctx.now());
        let pipeline = self.shared.cfg.costs.event_pipeline;
        // An update its switch acknowledged before this controller got here
        // is done: what its ack does, minus anything to send for it.
        for &update in &admitted.retired {
            self.log_record(&WalRecord::Acked(update));
            self.settle(ctx, update);
        }
        for u in admitted.ready {
            self.send_update_delayed(ctx, u, pipeline);
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
    fn ship_to_switches(&mut self, projected: Vec<Projected>) -> Vec<ScheduledUpdate> {
        let mut out = Vec::new();
        for p in projected {
            let mut gates = p.local;
            gates.extend(p.foreign.iter().map(|f| (f.update, f.switch)));
            gates.sort();
            self.shipped.insert(p.update.id, (gates, p.notify));
            out.push(ScheduledUpdate {
                update: p.update,
                deps: BTreeSet::new(),
            });
        }
        out
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
            self.send_remote(ctx, d, c, Net::ForwardedEvent(tagged));
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

    /// The body `update` travels in: itself plus whatever dependencies were
    /// shipped with it.
    fn body_of(&self, update: NetworkUpdate) -> UpdateBody {
        let (gates, notify) = self.shipped.get(&update.id).cloned().unwrap_or_default();
        UpdateBody { update, gates, notify }
    }

    /// Sends `update` to its switch in the envelope the mode uses. The body
    /// is share-signed once per phase — a third of the signing time is
    /// serialized CPU, all of it is latency on the send, on top of `extra` —
    /// and kept: a retransmission or a NACK answer re-sends it and pays
    /// neither.
    pub(super) fn send_update_delayed(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        extra: SimDuration,
    ) {
        let switch_node = self.shared.dir.switch(update.switch);
        let Some(aggregation) = self.shared.cfg.mode.aggregation() else {
            ctx.send_delayed(switch_node, Net::UpdatePlain(self.body_of(update)), extra);
            return;
        };
        let whole = || unreachable!("an update is kept signed");
        let kept = self.updates_sent.resend(&update.id, |_| true, whole);
        let (msg, delay) = match kept {
            Some((msg, _)) => (msg.clone(), extra),
            None => {
                let body = self.body_of(update);
                let msg = self.auth.sign_share(ctx, labels::UPDATE, body, self.view.phase());
                self.updates_sent.keep(update.id, msg.clone());
                (msg, extra + self.shared.cfg.costs.update_sign)
            }
        };
        match aggregation {
            Aggregation::Switch => ctx.send_delayed(switch_node, Net::UpdateMsg(msg), delay),
            Aggregation::Controller => {
                let agg = self.node_of(self.view.aggregator());
                ctx.send_delayed(agg, Net::UpdateToAggregator(msg), delay);
            }
        }
    }

    /// A switch's event or another domain's forward. A replay of a
    /// processed event is dropped unchecked (a re-forward is answered);
    /// otherwise it counts only over the channel of the sender its id names
    /// — the switch, or the forwarding controller of the event's `origin`
    /// domain — and only if that sender's tag for this controller holds.
    pub(super) fn on_event_msg(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        msg: Tagged<Event>,
        forwarded: bool,
    ) {
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
        if !msg.payload.forwarded && self.is_lowest() {
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
