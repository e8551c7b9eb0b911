//! The optional aggregator role (paper §4.2, controller aggregation):
//! collects share-signed updates from the domain's replicas, aggregates a
//! quorum into one threshold signature, and relays it to the switch.

use super::ControllerActor;
use crate::collector::Quorum;
use crate::msg::{Net, UpdateBody};
use crate::obs::Obs;
use crate::runtime::labels;
use simnet::node::{Host, NodeId};
use southbound::envelope::{QuorumSigned, ShareSigned};
use std::collections::BTreeSet;

impl ControllerActor {
    pub(super) fn on_update_to_aggregator(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        msg: ShareSigned<UpdateBody>,
    ) {
        if !self.is_lowest() || !self.active || !self.auth.own_slot(from, self.domain, &msg) {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.aggregator_msg);
        if msg.phase != self.view.phase() {
            return;
        }
        let update = msg.payload.update;
        let key = (update.id, msg.phase);
        let switch = self.shared.dir.switch(update.switch);
        let delay = self.shared.cfg.costs.aggregator_delay;
        // Already relayed: a second share from a signer already seen means
        // its controller saw no ack, so the switch probably lost the relay —
        // send it again. A first share is the tail of the original broadcast.
        let (index, mut relayed) = (msg.partial.index, false);
        let again = |(out, signers): &mut (QuorumSigned<UpdateBody>, BTreeSet<u32>)| {
            relayed = out.payload == msg.payload;
            relayed && !signers.insert(index)
        };
        let whole = || unreachable!("a relay is kept whole");
        if let Some(((out, _), _)) = self.relayed.resend(&key, again, whole) {
            ctx.send_delayed(switch, Net::UpdateAggregated(out.clone()), delay);
        }
        if relayed {
            return;
        }
        // Aggregate, then verify the aggregate about to be relayed — what
        // the switch will do with it. A poisoned quorum falls back to
        // per-share verification to evict the culprits, then waits for
        // honest replacements: one Byzantine share never reaches the
        // switch, where it would make the relayed aggregate fail forever.
        let phase = msg.phase;
        let quorum = self.view.quorum();
        let outcome = self.auth.collect(
            &mut self.agg_shares,
            update.id,
            msg,
            labels::UPDATE,
            quorum,
            self.domain,
        );
        let (shares, verified) = outcome.work();
        if shares == 0 {
            return;
        }
        // The aggregator prices its quorum validation at the amortized
        // per-share rate its Cicero-Agg anchor was calibrated with (its
        // cores share the work; a switch's single OVS thread pays
        // `CostModel::quorum_check` instead), plus any fallback checks.
        let costs = &self.shared.cfg.costs;
        ctx.charge_cpu(costs.batch_verify_per_item.saturating_mul(shares));
        ctx.charge_cpu(costs.bls_verify.saturating_mul(verified - 1));
        let Quorum::Certified(cert) = outcome else {
            return;
        };
        let out = QuorumSigned {
            payload: cert.payload,
            phase,
            msg_id: self.auth.next_msg_id(),
            signature: cert.signature,
        };
        let signers = cert.signers.into_iter().collect();
        self.relayed.keep(key, (out.clone(), signers));
        ctx.send_delayed(switch, Net::UpdateAggregated(out), delay);
    }
}
