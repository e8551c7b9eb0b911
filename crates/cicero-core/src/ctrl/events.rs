//! Event processing: delivering totally-ordered events into the network
//! application, projecting and releasing this domain's updates, forwarding
//! events to other affected domains, and dispatching signed updates.

use super::ControllerActor;
use crate::auth::Peer;
use crate::config::{Aggregation, Mode};
use crate::msg::{Net, UpdateBody, WalRecord};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::app::NetworkApp;
use controller::scheduler::{project, Projected, ScheduledUpdate};
use simnet::node::Host;
use simnet::time::SimDuration;
use southbound::envelope::Signed;
use southbound::types::{ControllerId, Event, EventKind, NetworkUpdate, SwitchId};
use std::collections::BTreeSet;

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
        // The mode only chooses who enforces the projected dependencies.
        let schedule = if self.shared.cfg.mode == Mode::Segway {
            if own.len() != all.len() {
                // Retained so a stuck own update can re-drive the forward
                // (`reforward_segway`) — Segway has no handshake sweep to
                // recover a dropped `ForwardedEvent`.
                self.segway_events.insert(event.id, (event, 0));
            }
            self.ship_to_switches(projected)
        } else {
            self.hold_at_controller(ctx, &event, projected)
        };
        let admitted = self.pending.admit(schedule, ctx.now());
        // The event's signature check is latency, not serialized CPU, on the
        // paper's 12-core controllers: it rides on the pipeline delay.
        let pipeline = self.shared.cfg.costs.event_pipeline + self.auth.verify_latency();
        // An update its switch acknowledged before this controller got here
        // is done: what its ack does, minus anything to send for it.
        for &update in &admitted.retired {
            self.log_record(&WalRecord::Acked(update));
            self.report_drained_segments(ctx, update);
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
    /// avoid n copies).
    pub(super) fn forward_event(&mut self, ctx: &mut dyn Host<Net, Obs>, event: &Event) {
        if !self.forwarded_events.insert(event.id) {
            return;
        }
        self.send_forward(ctx, event);
    }

    /// Sends the signed forward of `event` to the first member of every
    /// other affected domain. No dedup — [`Self::forward_event`] guards the
    /// first copy, [`Self::reforward_segway`] deliberately repeats it.
    fn send_forward(&mut self, ctx: &mut dyn Host<Net, Obs>, event: &Event) {
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
            let signed = self.auth.sign(ctx, labels::FORWARD, fwd, self.view.phase());
            ctx.send(
                self.shared.dir.controller(d, target),
                Net::ForwardedEvent(signed),
            );
        }
    }

    /// Segway's replacement for the handshake sweep's re-forwards: while
    /// this (lowest) controller is still retrying an own update of a
    /// cross-domain event, the remote domain may have lost the one
    /// `ForwardedEvent` copy and with it the whole gate chain — so the
    /// event is re-forwarded alongside each retry wave. Receivers absorb
    /// duplicates through their event dedup; the update retry budget
    /// bounds the re-forward count.
    pub(super) fn reforward_segway(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        event_id: southbound::types::EventId,
    ) {
        if !self.is_lowest() {
            return;
        }
        let Some((event, attempts)) = self.segway_events.get_mut(&event_id) else {
            return;
        };
        *attempts += 1;
        let (event, attempt) = (*event, *attempts);
        ctx.observe(Obs::ForwardRetransmitted {
            domain: self.domain,
            controller: self.id.0,
            event: event_id,
            attempt,
        });
        self.send_forward(ctx, &event);
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
        let phase = self.view.phase();
        let kept = self.kept_updates.get(&update.id).filter(|m| m.phase == phase);
        let (msg, delay) = match kept {
            Some(msg) => (msg.clone(), extra),
            None => {
                let sign = self.shared.cfg.costs.update_sign;
                let cpu = SimDuration::from_nanos(sign.as_nanos() / 3);
                let body = self.body_of(update);
                let msg = self.auth.sign_share(ctx, labels::UPDATE, body, phase, cpu);
                self.kept_updates.insert(update.id, msg.clone());
                (msg, extra + sign)
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

    pub(super) fn on_event_msg(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        msg: Signed<Event>,
        forwarded: bool,
    ) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        // A replay of a processed event cannot change anything: drop it
        // before paying for its signature.
        if self.seen_events.contains(&msg.payload.id) {
            return;
        }
        let (label, from) = if forwarded {
            let sender = Peer::Controller(msg.payload.origin, ControllerId(msg.msg_id.origin));
            (labels::FORWARD, sender)
        } else {
            (labels::EVENT, Peer::Switch(SwitchId(msg.msg_id.origin)))
        };
        if !self.auth.verify(ctx, label, &msg, from) {
            return;
        }
        // Forward to other affected domains at *receipt* rather than after
        // local consensus: the domains' agreement rounds then run in
        // parallel, which keeps the cross-domain ordering handshake's
        // serial segment chain off the consensus critical path.
        if !msg.payload.forwarded && self.is_lowest() {
            self.forward_event(ctx, &msg.payload);
        }
        if self.in_phase_change || self.recovering {
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
