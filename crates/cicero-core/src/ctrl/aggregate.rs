//! The optional aggregator role (paper §4.2, controller aggregation):
//! collects the domain's replicas' shares of each update set, aggregates a
//! quorum into one threshold signature per set, and relays each member to
//! its switch under it.

use super::{ControllerActor, Relay};
use crate::collector::Quorum;
use crate::msg::{Member, Net, UpdateSet};
use crate::obs::Obs;
use crate::runtime::labels;
use simnet::node::{Host, NodeId};
use southbound::envelope::{QuorumSigned, ShareSigned};
use std::collections::BTreeMap;

impl ControllerActor {
    pub(super) fn on_update_to_aggregator(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        from: NodeId,
        share: ShareSigned<UpdateSet>,
        member: Box<Member>,
    ) {
        if !self.is_lowest() || !self.active || !self.auth.own_slot(from, self.domain, &share) {
            return;
        }
        ctx.charge_cpu(self.shared.cfg.costs.aggregator_msg);
        if share.phase != self.view.phase() || !self.auth.admits_member(&share.payload, &member) {
            return;
        }
        let (set, index, update) = (share.payload, share.partial.index, member.body.update.id);
        if !self.relayed.contains(&set) {
            // Aggregate, then verify the aggregate about to be relayed —
            // what the switch will do with it. A poisoned quorum falls back
            // to per-share verification to evict the culprits, then waits
            // for honest replacements: one Byzantine share never reaches
            // the switch, where it would make the relayed aggregate fail
            // forever. A set is aggregated once.
            let (phase, quorum) = (share.phase, self.view.quorum());
            let outcome = self.auth.collect(&mut self.agg_shares, set, share, labels::UPDATE, quorum, self.domain);
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
            let msg_id = self.auth.next_msg_id();
            let out = QuorumSigned { payload: set, phase, msg_id, signature: cert.signature };
            self.relayed.keep(set, (out, BTreeMap::new()));
        }
        // A member of a certified set goes out under its signature once
        // admitted. A second share from a signer already seen with that
        // member means its controller saw no ack, so the switch probably
        // lost the relay — send it again; another signer's share is the
        // tail of the original broadcast.
        let send = |(_, relayed): &mut Relay| {
            let signers = relayed.entry(update).or_default();
            let first = signers.is_empty();
            !signers.insert(index) || first
        };
        let whole = || unreachable!("a relay is kept whole");
        if let Some(((out, _), _)) = self.relayed.resend(&set, send, whole) {
            let switch = self.shared.dir.switch(member.body.update.switch);
            let delay = self.shared.cfg.costs.aggregator_delay;
            ctx.send_delayed(switch, Net::UpdateAggregated(out.clone(), member), delay);
        }
    }
}
