//! The controller side of the reliable-delivery layer: one self-re-arming
//! retry timer drives update retransmission (with per-controller jittered
//! backoff) and cross-domain re-forwards, and NACK-answering state re-sync.

use super::{ControllerActor, RETRY};
use crate::auth::Peer;
use crate::msg::{NackBody, Net};
use crate::obs::Obs;
use crate::runtime::labels;
use simnet::node::Host;
use simnet::time::SimDuration;
use southbound::envelope::Tagged;
use southbound::types::SwitchId;

impl ControllerActor {
    /// Arms the retry timer for the earliest in-flight deadline. One timer
    /// is outstanding at a time; it re-arms itself from `on_timer`.
    pub(super) fn arm_retry(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if self.retry_armed {
            return;
        }
        // In-flight updates, and forwards of events still waited for.
        let due = [self.pending.next_due(), self.forwards.next_due()];
        let Some(due) = due.into_iter().flatten().min() else {
            return;
        };
        ctx.set_timer(due.since(ctx.now()), RETRY);
        self.retry_armed = true;
    }

    pub(super) fn on_retry_timer(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        self.retry_armed = false;
        if !self.active {
            return;
        }
        let batch = self.pending.due_retries(ctx.now());
        for (u, attempt) in batch.resend {
            ctx.observe(Obs::UpdateRetransmitted {
                domain: self.domain,
                controller: self.id.0,
                update: u.id,
                attempt,
            });
            self.send_update_delayed(ctx, u, SimDuration::ZERO);
        }
        for id in batch.failed {
            ctx.observe(Obs::UpdateRetryExhausted {
                domain: self.domain,
                controller: self.id.0,
                update: id,
            });
            self.retire_set(id);
        }
        self.sweep_forwards(ctx);
        self.arm_retry(ctx);
    }

    /// Handles a switch NACK: re-send the signed update if we still hold it
    /// (in flight, acknowledged-by-quorum but missed by this switch, or held
    /// and waiting here), with its release once it has one. A switch asks
    /// the same way for the shares of a body below quorum and for the
    /// releases of a held body.
    pub(super) fn on_update_nack(&mut self, ctx: &mut dyn Host<Net, Obs>, m: Tagged<NackBody>) {
        if !self.active {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.ctrl_msg);
        let from = SwitchId(m.msg_id.origin);
        let body: NackBody = m.payload;
        let tagged = self.auth.verify_tag(ctx, labels::NACK, &m, Peer::Switch(from)).is_some();
        if !tagged || body.switch != from {
            return;
        }
        if let Some(u) = self.pending.resync(body.update, ctx.now()) {
            ctx.observe(Obs::ResyncReplied {
                domain: self.domain,
                controller: self.id.0,
                update: u.id,
            });
            self.send_update_delayed(ctx, u, SimDuration::ZERO);
            self.arm_retry(ctx);
        }
    }
}
