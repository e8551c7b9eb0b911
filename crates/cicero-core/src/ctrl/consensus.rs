//! Driving the per-domain PBFT replica: submitting operations, routing the
//! replica's outputs onto the wire, and acting on delivered (totally
//! ordered) operations.

use super::ControllerActor;
use crate::msg::{Net, OrderedOp};
use crate::obs::Obs;
use bft::message::BftPayload;
use bft::replica::Output;
use simnet::node::Host;

impl ControllerActor {
    pub(super) fn route_outputs(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        outs: Vec<Output<OrderedOp>>,
    ) {
        // Write-ahead discipline: the votes the replica just cast are
        // persisted before the messages carrying them go on the wire.
        self.persist_journal();
        let members = self.members();
        let phase = self.view.phase();
        for out in outs {
            match out {
                Output::Send(rid, msg) => {
                    let Some(&target) = members.get(rid.0 as usize) else {
                        continue;
                    };
                    if target == self.id {
                        continue;
                    }
                    ctx.send_delayed(
                        self.node_of(target),
                        Net::Consensus {
                            phase,
                            msg: Box::new(msg),
                        },
                        self.shared.cfg.costs.consensus_wire,
                    );
                }
                Output::Broadcast(msg) => {
                    for &m in &members {
                        if m == self.id {
                            continue;
                        }
                        ctx.send_delayed(
                            self.node_of(m),
                            Net::Consensus {
                                phase,
                                msg: Box::new(msg.clone()),
                            },
                            self.shared.cfg.costs.consensus_wire,
                        );
                    }
                }
                Output::Deliver(seq, op) => {
                    self.record_delivery(seq, &op);
                    self.on_deliver(ctx, op);
                }
            }
        }
    }

    pub(super) fn submit_op(&mut self, ctx: &mut dyn Host<Net, Obs>, op: OrderedOp) {
        if let OrderedOp::Event(e) = &op {
            if self.seen_events.contains(&e.id) {
                return;
            }
        }
        if !self.uses_consensus() {
            // No consensus sequence exists; number deliveries locally so
            // the WAL replays in the same order.
            let seq = self.delivered_ops.len() as u64 + 1;
            self.record_delivery(seq, &op);
            self.on_deliver(ctx, op);
            return;
        }
        self.unprocessed.insert(op.digest(), op.clone());
        let Some(replica) = self.replica.as_mut() else {
            return;
        };
        let outs = replica.submit(op);
        self.route_outputs(ctx, outs);
    }

    pub(super) fn on_deliver(&mut self, ctx: &mut dyn Host<Net, Obs>, op: OrderedOp) {
        self.unprocessed.remove(&op.digest());
        match op {
            OrderedOp::Event(event) => self.process_event(ctx, event),
            OrderedOp::AddController(c) => self.start_phase_change(ctx, true, c),
            OrderedOp::RemoveController(c) => self.start_phase_change(ctx, false, c),
        }
    }
}
