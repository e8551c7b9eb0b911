//! The authentication seam: the one place that decides whether a message
//! carries a real signature, a placeholder, or none.
//!
//! Each actor builds one [`Authenticator`] from the run's `(Mode,
//! CryptoMode)` and its own keys, then signs and verifies through it
//! without looking at either mode again:
//!
//! | mode × crypto | threshold-signed envelopes | tagged envelopes | a message verifies if | cost charged, check counted |
//! |---|---|---|---|---|
//! | unauthenticated baselines | placeholder | zero tag | its sender is in the directory | no |
//! | signed mode, `Modeled` | placeholder | zero tag | its sender is in the directory | yes |
//! | signed mode, `Real` | BLS shares | HMAC-SHA256 | the group key (the pair's key) verifies it | yes |
//!
//! A message is tagged, not signed, iff no third party is ever shown it, nor
//! any certificate built from it: switch events, controller forwards, acks,
//! NACKs, segment reports and Segway readies. What is signed is what the
//! paper threshold-signs — updates and phase notices, with a key share —
//! and nothing is signed with an identity key: that key only derives the
//! pair keys. Every pair of identity-key holders shares one key per
//! direction ([`pair_key`]), derived on first use and cached here.
//!
//! Who pays how follows the paper's hardware: a switch is one OVS thread,
//! so each check is serialized CPU, charged here; a controller has 12
//! cores, so a check is *latency* on whatever it releases
//! ([`Authenticator::verify_tag`], [`Authenticator::quorum_cost`]).
//!
//! A membership change (paper §4.3) runs through here too, the same steps
//! at every level: [`Authenticator::start_rekey`] deals this member's share
//! to the new membership — below `Real` it installs placeholder keys at
//! once — and [`Authenticator::offer_dealing`] counts what the other
//! dealers send, until the new share and commitment are installed under
//! the unchanged group key. The phase notice is then share-signed and
//! [`Authenticator::collect`]ed like every other quorum.

use crate::collector::{Check, Quorum, QuorumCollector};
use crate::config::CryptoMode;
use crate::msg::Net;
use crate::obs::Obs;
use crate::runtime::{fake_group, Shared};
use blscrypto::bls::{KeyShare, PartialSignature, PublicKey, SecretKey};
use blscrypto::dkg::{DkgConfig, GroupPublic};
use blscrypto::reshare::{
    deal_reshare_to, finalize_reshare, verify_reshare_dealing, ReshareDealing,
};
use blscrypto::sha256::hmac_sha256;
use controller::membership::ControlPlaneView;
use simnet::node::{Host, NodeId};
use simnet::time::SimDuration;
use southbound::codec::Wire;
use southbound::envelope::{MsgId, QuorumSigned, ShareSigned, Tagged};
use southbound::types::{ControllerId, DomainId, Phase, SwitchId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A holder of an identity key: one end of a pair key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Peer {
    /// A switch (tags events, acks, NACKs and Segway readies).
    Switch(SwitchId),
    /// A controller (tags forwarded events and segment reports).
    Controller(DomainId, ControllerId),
}

southbound::wire_enum!(Peer { 0 => Switch(s), 1 => Controller(d, c) });

/// HKDF-SHA256 salt of every pair key: separates it from any other use of
/// the identity keys.
const PAIR_SALT: &[u8] = b"CICERO_PAIR_V1";

/// The MAC key for the tags `from` makes for `to`: HKDF-SHA256 over the
/// static Diffie–Hellman value `x · PK` of one end's identity secret and the
/// other end's identity key. Either end can compute it (`x_a · PK_b = x_b ·
/// PK_a`), nobody else can, and `info = from ‖ to` gives each direction its
/// own key, so a tag is never valid reflected back to its maker.
pub fn pair_key(secret: &SecretKey, peer: &PublicKey, from: Peer, to: Peer) -> [u8; 32] {
    expand(&extract(secret, peer), from, to)
}

/// HKDF-extract: the pseudo-random key of one pair, shared by both directions.
fn extract(secret: &SecretKey, peer: &PublicKey) -> [u8; 32] {
    let shared = peer.0.mul_fr(secret.as_fr()).to_affine().to_bytes();
    hmac_sha256(PAIR_SALT, &shared)
}

/// HKDF-expand to one 32-byte block with `info = from ‖ to`.
fn expand(prk: &[u8; 32], from: Peer, to: Peer) -> [u8; 32] {
    let mut info = from.to_wire();
    info.extend(to.to_wire());
    info.push(1);
    hmac_sha256(prk, &info)
}

/// How much of the signature scheme runs (the table in the module doc).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Level {
    Unsigned,
    Modeled,
    Real,
}

/// A re-key in flight: the phase it enters, the commitment the dealings are
/// checked against and the shape of the new sharing.
struct PendingReshare {
    phase: Phase,
    old_group: GroupPublic,
    new_cfg: DkgConfig,
}

/// One actor's keys and verification policy. Also owns its
/// `(origin, seq)` message-id counter and its signature and MAC counters.
pub struct Authenticator {
    shared: Arc<Shared>,
    level: Level,
    me: Peer,
    domain: DomainId,
    origin: u32,
    seq: u64,
    identity: Option<SecretKey>,
    share: Option<KeyShare>,
    /// Pair keys derived so far (under `Real` only): per peer, the key of
    /// the tags to it and the key of the tags from it.
    macs: BTreeMap<Peer, ([u8; 32], [u8; 32])>,
    /// This domain's commitment after a reshare; `None` = bootstrap.
    reshared: Option<GroupPublic>,
    /// The phase whose threshold keys are installed.
    keyed: Phase,
    /// The re-key in flight.
    pending: Option<PendingReshare>,
    /// Dealings received per phase: the first of each dealer, over its own
    /// channel, not yet checked.
    dealings: BTreeMap<Phase, Vec<ReshareDealing>>,
    signs: u64,
    checks: u64,
    tags: u64,
    mac_checks: u64,
}

impl Authenticator {
    /// The seam of actor `me`, holding its identity key and (controllers)
    /// its threshold share.
    pub fn new(
        shared: Arc<Shared>,
        me: Peer,
        identity: Option<SecretKey>,
        share: Option<KeyShare>,
    ) -> Self {
        let level = match (shared.cfg.mode.is_signed(), shared.cfg.crypto) {
            (false, _) => Level::Unsigned,
            (true, CryptoMode::Modeled) => Level::Modeled,
            (true, CryptoMode::Real) => Level::Real,
        };
        let (domain, origin) = match me {
            Peer::Switch(s) => (shared.dir.domain_of_switch[&s], s.0),
            Peer::Controller(d, c) => (d, c.0),
        };
        Authenticator {
            shared,
            level,
            me,
            domain,
            origin,
            seq: 0,
            identity,
            share,
            macs: BTreeMap::new(),
            reshared: None,
            keyed: Phase(0),
            pending: None,
            dealings: BTreeMap::new(),
            signs: 0,
            checks: 0,
            tags: 0,
            mac_checks: 0,
        }
    }

    fn signed(&self) -> bool {
        self.level != Level::Unsigned
    }

    /// A fresh `(origin, seq)` id for an outgoing envelope.
    pub fn next_msg_id(&mut self) -> MsgId {
        self.seq += 1;
        MsgId {
            origin: self.origin,
            seq: self.seq,
        }
    }

    /// Threshold-share signatures made so far.
    pub fn signs(&self) -> u64 {
        self.signs
    }

    /// Signature checks performed so far — a certificate's verify and each
    /// aggregate-and-verify of a collected quorum count one.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Tags made so far, one per reader.
    pub fn tags(&self) -> u64 {
        self.tags
    }

    /// Tag checks performed so far.
    pub fn mac_checks(&self) -> u64 {
        self.mac_checks
    }

    /// The group commitment of this actor's domain in the current phase.
    pub fn group(&self) -> &GroupPublic {
        let bootstrap = &self.shared.keys.domains[&self.domain].group;
        self.reshared.as_ref().unwrap_or(bootstrap)
    }

    /// Installs the keys of `phase`: the new commitment and this member's
    /// share (none where the math is skipped).
    pub(crate) fn rekey(&mut self, phase: Phase, share: Option<KeyShare>, group: GroupPublic) {
        self.share = share;
        self.reshared = Some(group);
        self.keyed = phase;
    }

    /// Starts re-keying this controller for `view`, the membership of the
    /// phase being entered: a `dealer` deals its share to every member of
    /// `view`. `true` once the new keys are installed — at once below
    /// `Real`, where placeholder keys of the new shape are all there is.
    pub fn start_rekey(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        view: &ControlPlaneView,
        dealer: bool,
    ) -> bool {
        let phase = view.phase();
        let new_cfg = DkgConfig::new(view.len() as u32, view.threshold_t()).expect("valid view");
        if self.level != Level::Real {
            self.rekey(phase, None, fake_group(new_cfg.n, new_cfg.t));
            return true;
        }
        if dealer {
            let share = self.share.as_ref().expect("dealers hold shares");
            let members: Vec<u32> = view.members().map(|c| c.0).collect();
            let dealing = deal_reshare_to(share, new_cfg.t, &members, ctx.rng());
            for c in view.members() {
                let node = self.shared.dir.controller(self.domain, c);
                ctx.send(node, Net::Reshare { phase, dealing: dealing.clone() });
            }
        }
        let old_group = self.group().clone();
        self.pending = Some(PendingReshare { phase, old_group, new_cfg });
        self.try_finish_rekey()
    }

    /// `true` between [`Self::start_rekey`] and the new keys: the controller
    /// is between phases.
    pub fn rekeying(&self) -> bool {
        self.pending.is_some()
    }

    /// Offers a dealing for the re-key of `phase` that arrived from `from`.
    /// It counts only over its dealer's own channel, and only the first of
    /// each dealer does. `true` when it completes the re-key in flight.
    pub fn offer_dealing(&mut self, from: NodeId, phase: Phase, dealing: ReshareDealing) -> bool {
        let dealer = Peer::Controller(self.domain, ControllerId(dealing.dealer));
        if phase <= self.keyed || self.shared.dir.peer(from) != Some(dealer) {
            return false;
        }
        let filed = self.dealings.entry(phase).or_default();
        if filed.iter().all(|d| d.dealer != dealing.dealer) {
            filed.push(dealing);
        }
        self.try_finish_rekey()
    }

    /// Installs the new keys from the first `old t + 1` valid dealings, once
    /// that many have arrived; an invalid one is passed over, not fatal.
    fn try_finish_rekey(&mut self) -> bool {
        let Some(p) = &self.pending else {
            return false;
        };
        let need = p.old_group.config.t as usize + 1;
        let filed = self.dealings.get(&p.phase).into_iter().flatten();
        let valid: Vec<ReshareDealing> = filed
            .filter(|d| verify_reshare_dealing(d, &p.old_group, p.new_cfg, self.origin))
            .take(need)
            .cloned()
            .collect();
        if valid.len() < need {
            return false;
        }
        let Ok((share, group)) = finalize_reshare(&valid, &p.old_group, p.new_cfg, self.origin)
        else {
            return false;
        };
        let phase = p.phase;
        self.pending = None;
        self.dealings.remove(&phase);
        self.rekey(phase, Some(share), group);
        true
    }

    /// Signs `payload` with this controller's threshold share, charging a
    /// third of the signing time as CPU (the caller prices all of it as
    /// latency).
    pub fn sign_share<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        payload: T,
        phase: Phase,
    ) -> ShareSigned<T> {
        let msg_id = self.next_msg_id();
        if self.signed() {
            self.signs += 1;
            let sign = self.shared.cfg.costs.update_sign;
            ctx.charge_cpu(SimDuration::from_nanos(sign.as_nanos() / 3));
        }
        if self.level == Level::Real {
            let share = self.share.as_ref().expect("real crypto: key share");
            return ShareSigned::sign(label, payload, phase, msg_id, share);
        }
        let partial = PartialSignature {
            index: msg_id.origin,
            sig: self.shared.keys.dummy.0,
        };
        ShareSigned {
            payload,
            phase,
            msg_id,
            partial,
        }
    }

    /// Tags `payload` for `to`, its only reader, under the key this actor
    /// shares with it. The id is the caller's: one body sent to several
    /// readers is one message, tagged once per reader. `None` under `Real`
    /// when the pair has no key (an end without an identity key).
    pub fn tag<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        payload: T,
        phase: Phase,
        msg_id: MsgId,
        to: Peer,
    ) -> Option<Tagged<T>> {
        if self.signed() {
            self.tags += 1;
            ctx.charge_cpu(self.shared.cfg.costs.mac);
        }
        if self.level == Level::Real {
            let (key, _) = self.pair(to)?;
            return Some(Tagged::tag(label, payload, phase, msg_id, key));
        }
        let dummy = [0; 32];
        Some(Tagged { payload, phase, msg_id, tag: dummy })
    }

    /// The keys this actor shares with `peer`, `(to it, from it)`, derived
    /// on first use: one G2 scalar multiplication per peer, once.
    fn pair(&mut self, peer: Peer) -> Option<&([u8; 32], [u8; 32])> {
        if !self.macs.contains_key(&peer) {
            let prk = extract(self.identity.as_ref()?, self.key_of(peer)?);
            let keys = (expand(&prk, self.me, peer), expand(&prk, peer, self.me));
            self.macs.insert(peer, keys);
        }
        self.macs.get(&peer)
    }

    fn key_of(&self, peer: Peer) -> Option<&PublicKey> {
        let keys = &self.shared.keys;
        match peer {
            Peer::Switch(s) => keys.switch_pk.get(&s),
            Peer::Controller(d, c) => keys.controller_pk.get(&(d, c)),
        }
    }

    /// Below `Real` a message is acceptable iff its sender is known at all.
    fn in_directory(&self, peer: Peer) -> bool {
        let dir = &self.shared.dir;
        match peer {
            Peer::Switch(s) => dir.switch_node.contains_key(&s),
            Peer::Controller(d, c) => dir.controller_node.contains_key(&(d, c)),
        }
    }

    /// Checks the tag `from` put on `msg` for this actor: `Some` if it
    /// holds, of the latency the check adds to what the message releases —
    /// zero on a switch, whose thread was charged for it as CPU. Under
    /// `Real` a pair without a key has no valid tag.
    pub fn verify_tag<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        msg: &Tagged<T>,
        from: Peer,
    ) -> Option<SimDuration> {
        let ok = if self.level == Level::Real {
            self.pair(from).is_some_and(|(_, key)| msg.verify(label, key))
        } else {
            self.in_directory(from)
        };
        if !self.signed() {
            return ok.then_some(SimDuration::ZERO);
        }
        self.mac_checks += 1;
        let mac = self.shared.cfg.costs.mac;
        if matches!(self.me, Peer::Switch(_)) {
            ctx.charge_cpu(mac);
            return ok.then_some(SimDuration::ZERO);
        }
        ok.then_some(mac)
    }

    /// Does the aggregate on `msg` verify under this domain's group key? The
    /// check is CPU where a single thread pays for it (a switch).
    pub fn verify_group<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        msg: &QuorumSigned<T>,
    ) -> bool {
        if self.signed() {
            self.checks += 1;
            if matches!(self.me, Peer::Switch(_)) {
                ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
            }
        }
        let pk = &self.shared.keys.domains[&self.domain].public_key;
        self.level != Level::Real || msg.verify_prepared(label, pk)
    }

    /// `true` when `msg` is the share of the controller at `from`: a
    /// controller of `domain`, over its own channel, under its own index. A
    /// share occupies only its sender's slot — otherwise one Byzantine
    /// controller racing garbage in under its peers' indices gets their
    /// honest shares refused as duplicates and then, when the aggregate
    /// fails, the honest *signers* blacklisted. Check before [`Self::collect`].
    pub fn own_slot<T>(&self, from: NodeId, domain: DomainId, msg: &ShareSigned<T>) -> bool {
        let index = msg.partial.index;
        msg.msg_id.origin == index
            && self.shared.dir.peer(from) == Some(Peer::Controller(domain, ControllerId(index)))
    }

    /// Buckets one threshold share of `domain` and runs the collector's
    /// aggregate → verify → evict policy at `quorum` distinct signers.
    /// Below `Real` a quorum certifies on the count alone. A controller
    /// holds its own domain's shares of a phase it has no keys for yet
    /// unjudged, and judges them together with the first share after its
    /// re-key: an eviction then may leave a quorum, which is judged again
    /// (each attempt counts in [`Self::checks`]; the outcome's
    /// [`Quorum::work`] is the last one's).
    pub fn collect<K: Ord + Copy, T: Wire + Eq + Clone>(
        &mut self,
        bucket: &mut QuorumCollector<K, T>,
        key: K,
        msg: ShareSigned<T>,
        label: &str,
        quorum: usize,
        domain: DomainId,
    ) -> Quorum<T> {
        let phase = msg.phase;
        let own = matches!(self.me, Peer::Controller(..)) && domain == self.domain;
        if !bucket.offer(key, phase, msg.payload, msg.partial) || own && phase > self.keyed {
            return Quorum::Below;
        }
        let keys = &self.shared.keys.domains[&domain];
        // Share keys of the own domain follow its reshares; a remote
        // domain's are only known from its bootstrap commitment.
        let group = if domain == self.domain {
            self.group()
        } else {
            &keys.group
        };
        let check = Check {
            label,
            quorum,
            keys: (self.level == Level::Real).then_some((&keys.public_key, group)),
        };
        let mut judged = 0;
        let outcome = loop {
            let held = bucket.have(key, phase);
            let outcome = bucket.try_quorum(key, phase, check);
            judged += u64::from(!matches!(outcome, Quorum::Below));
            match outcome {
                Quorum::Rejected { .. } if (quorum..held).contains(&bucket.have(key, phase)) => {}
                outcome => break outcome,
            }
        };
        if self.signed() {
            self.checks += judged;
        }
        outcome
    }

    /// Price of the work behind a quorum outcome: CPU on a switch, latency
    /// on a controller.
    pub fn quorum_cost<T>(&self, outcome: &Quorum<T>) -> SimDuration {
        if self.signed() {
            self.shared.cfg.costs.quorum_check(outcome.work())
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::rng::{SeedableRng, StdRng};

    #[test]
    fn both_ends_derive_one_key_per_direction_and_nobody_else_does() {
        let mut rng = StdRng::seed_from_u64(0x9a1e);
        let [a, b, c] = [(); 3].map(|_| SecretKey::generate(&mut rng));
        let (pa, pb) = (a.public_key(), b.public_key());
        let sw = Peer::Switch(SwitchId(3));
        let ctrl = Peer::Controller(DomainId(1), ControllerId(2));
        let forward = pair_key(&a, &pb, sw, ctrl);
        assert_eq!(pair_key(&b, &pa, sw, ctrl), forward, "either end derives it");
        assert_ne!(pair_key(&a, &pb, ctrl, sw), forward, "each direction has its own");
        assert_ne!(pair_key(&c, &pb, sw, ctrl), forward, "a third party derives another");
    }
}
