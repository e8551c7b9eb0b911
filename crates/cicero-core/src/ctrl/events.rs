//! Event processing: delivering totally-ordered events into the network
//! application, projecting and releasing this domain's updates, forwarding
//! events to other affected domains, and dispatching signed updates.

use super::ControllerActor;
use crate::auth::Peer;
use crate::config::{Aggregation, Mode};
use crate::msg::{Net, SegwayBody};
use crate::obs::Obs;
use crate::runtime::labels;
use controller::app::NetworkApp;
use controller::scheduler::ScheduledUpdate;
use simnet::node::Host;
use simnet::time::SimDuration;
use southbound::codec::Wire;
use southbound::envelope::{ShareSigned, Signed};
use southbound::types::{ControllerId, Event, EventKind, NetworkUpdate, SwitchId, UpdateId};
use std::collections::{BTreeMap, BTreeSet};

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
        // domain boundaries survive the projection onto this domain; foreign
        // dependencies become barrier ids released by the cross-domain
        // handshake (DESIGN.md §3).
        let all = self.app.handle_event(&event, &self.shared.topo);
        let own: Vec<NetworkUpdate> = all
            .iter()
            .filter(|u| {
                self.shared.dir.domain_of_switch.get(&u.switch) == Some(&self.domain)
            })
            .copied()
            .collect();
        if own.is_empty() {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.event_process);
        let schedule = if self.shared.cfg.mode == Mode::Segway {
            // Segway: one controller round. Dependencies (own and foreign
            // alike) are compiled into gate/notify metadata and enforced on
            // the data plane by signed switch-to-switch readies, so every
            // update is released immediately — no held releases, no
            // cross-domain handshake.
            self.segway_schedule(&event, &all)
        } else if !self.shared.cfg.cross_domain_handshake || own.len() == all.len() {
            self.scheduler.schedule(&own)
        } else {
            self.cross_domain_schedule(ctx, &event, &all)
        };
        let ready = self.pending.admit(schedule, ctx.now());
        // The event's signature check is latency, not serialized CPU, on the
        // paper's 12-core controllers: it rides on the pipeline delay.
        let pipeline = self.shared.cfg.costs.event_pipeline + self.auth.verify_latency();
        for u in ready {
            self.send_update_delayed(ctx, u, pipeline);
        }
        self.arm_retry(ctx);
    }

    /// Segway scheduling: runs the scheduler over the *full* update list,
    /// then projects onto this domain, recording for each own update its
    /// gates (the updates it waits for, with the switch that will announce
    /// each) and its notify set (the switches whose updates it gates). The
    /// returned schedule carries *no* dependencies: ordering moved to the
    /// data plane, so the controller pushes everything in one round.
    fn segway_schedule(
        &mut self,
        event: &Event,
        all: &[NetworkUpdate],
    ) -> Vec<ScheduledUpdate> {
        let full = self.scheduler.schedule(all);
        let switch_of: BTreeMap<UpdateId, SwitchId> =
            all.iter().map(|u| (u.id, u.switch)).collect();
        let cross_domain = all.iter().any(|u| {
            self.shared.dir.domain_of_switch.get(&u.switch) != Some(&self.domain)
        });
        if cross_domain {
            // Retained so a stuck own update can re-drive the forward
            // (`reforward_segway`) — Segway has no handshake sweep to
            // recover a dropped `ForwardedEvent`.
            self.segway_events.insert(event.id, (*event, 0));
        }
        let mut out = Vec::new();
        for su in &full {
            if self.shared.dir.domain_of_switch.get(&su.update.switch)
                != Some(&self.domain)
            {
                continue;
            }
            let gates: Vec<(UpdateId, SwitchId)> = su
                .deps
                .iter()
                .filter_map(|d| switch_of.get(d).map(|&s| (*d, s)))
                .collect();
            let mut notify: Vec<SwitchId> = full
                .iter()
                .filter(|v| v.deps.contains(&su.update.id))
                .map(|v| v.update.switch)
                .collect();
            notify.sort();
            notify.dedup();
            self.segway_meta.insert(su.update.id, (gates, notify));
            out.push(ScheduledUpdate {
                update: su.update,
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

    /// Share-signs one outgoing update form. A third of the signing time is
    /// serialized CPU; all of it is latency on the send, returned added to
    /// `extra`.
    fn sign_update<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        payload: T,
        extra: SimDuration,
    ) -> (ShareSigned<T>, SimDuration) {
        let sign = self.shared.cfg.costs.update_sign;
        let cpu = SimDuration::from_nanos(sign.as_nanos() / 3);
        let phase = self.view.phase();
        let msg = self.auth.sign_share(ctx, label, payload, phase, cpu);
        (msg, extra + sign)
    }

    pub(super) fn send_update_delayed(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        update: NetworkUpdate,
        extra: SimDuration,
    ) {
        let switch_node = self.shared.dir.switch(update.switch);
        match self.shared.cfg.mode {
            Mode::Centralized | Mode::CrashTolerant => {
                ctx.send_delayed(
                    switch_node,
                    Net::UpdatePlain {
                        update,
                        from: self.id,
                    },
                    extra,
                );
            }
            Mode::Cicero { aggregation } => {
                let (msg, extra) = self.sign_update(ctx, labels::UPDATE, update, extra);
                match aggregation {
                    Aggregation::Switch => {
                        ctx.send_delayed(switch_node, Net::UpdateMsg(msg), extra)
                    }
                    Aggregation::Controller => {
                        let agg = self.view.aggregator();
                        ctx.send_delayed(
                            self.node_of(agg),
                            Net::UpdateToAggregator(msg),
                            extra,
                        );
                    }
                }
            }
            Mode::Segway => {
                let (gates, notify) = self
                    .segway_meta
                    .get(&update.id)
                    .cloned()
                    .unwrap_or_default();
                let body = SegwayBody {
                    update,
                    gates,
                    notify,
                };
                let (msg, extra) = self.sign_update(ctx, labels::SEGWAY, body, extra);
                ctx.send_delayed(switch_node, Net::SegwayUpdate(msg), extra);
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
