//! The optional aggregator role (paper §4.2, controller aggregation):
//! collects the domain's replicas' shares of each update set, aggregates a
//! quorum into one threshold signature per set, and relays each member to
//! its switch under it.

use super::{ControllerActor, Relay};
use crate::collector::Quorum;
use crate::msg::{Leaf, Member, Net, UpdateSet};
use crate::obs::Obs;
use crate::runtime::labels;
use simnet::node::{Host, NodeId};
use southbound::envelope::{QuorumSigned, ShareSigned};

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
        let update = member.body.update;
        let key = (update.id, share.phase);
        let switch = self.shared.dir.switch(update.switch);
        let delay = self.shared.cfg.costs.aggregator_delay;
        // Already relayed: a second share from a signer already seen means
        // its controller saw no ack, so the switch probably lost the relay —
        // send it again. A first share is the tail of the original broadcast.
        let (index, mut relayed) = (share.partial.index, false);
        let again = |(out, kept, signers): &mut Relay| {
            relayed = out.payload == share.payload && *kept == *member;
            relayed && !signers.insert(index)
        };
        let whole = || unreachable!("a relay is kept whole");
        if let Some(((out, kept, _), _)) = self.relayed.resend(&key, again, whole) {
            ctx.send_delayed(switch, Net::UpdateAggregated(out.clone(), Box::new(kept.clone())), delay);
        }
        if relayed {
            return;
        }
        let (phase, quorum) = (share.phase, self.view.quorum());
        let leaf = Leaf::share(share, *member);
        // A set certified already needs no second aggregate: this member
        // goes out under its signature once a quorum sent it identically —
        // a quorum of this set's leaf, never another set's.
        if let Some(out) = self.agg_sets.get(&leaf.payload.set).cloned() {
            if self.agg_shares.offer(update.id, phase, leaf.payload, leaf.partial) {
                let covers = |l: &Leaf| l.set == out.payload;
                let cert = self.agg_shares.certify_with(update.id, phase, quorum, out.signature, covers);
                if let Some(cert) = cert {
                    self.relay(ctx, out, cert.payload.member, cert.signers);
                }
            }
            return;
        }
        // Aggregate, then verify the aggregate about to be relayed — what
        // the switch will do with it. A poisoned quorum falls back to
        // per-share verification to evict the culprits, then waits for
        // honest replacements: one Byzantine share never reaches the
        // switch, where it would make the relayed aggregate fail forever.
        let outcome =
            self.auth.collect(&mut self.agg_shares, update.id, leaf, labels::UPDATE, quorum, self.domain);
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
        let Leaf { set, member } = cert.payload;
        let msg_id = self.auth.next_msg_id();
        let out = QuorumSigned { payload: set, phase, msg_id, signature: cert.signature };
        self.agg_sets.insert(set, out.clone());
        self.relay(ctx, out, member, cert.signers);
    }

    /// Relays `member` to its switch under its set's quorum signature, and
    /// keeps the relay with the signers seen.
    fn relay(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        out: QuorumSigned<UpdateSet>,
        member: Member,
        signers: Vec<u32>,
    ) {
        let update = member.body.update;
        let switch = self.shared.dir.switch(update.switch);
        let key = (update.id, out.phase);
        let signers = signers.into_iter().collect();
        self.relayed.keep(key, (out.clone(), member.clone(), signers));
        let delay = self.shared.cfg.costs.aggregator_delay;
        ctx.send_delayed(switch, Net::UpdateAggregated(out, Box::new(member)), delay);
    }
}
