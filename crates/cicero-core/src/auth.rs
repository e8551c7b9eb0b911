//! The authentication seam: the one place that decides whether a message
//! carries a real signature, a placeholder, or none.
//!
//! Each actor builds one [`Authenticator`] from the run's `(Mode,
//! CryptoMode)` and its own keys, then signs and verifies through it
//! without looking at either mode again:
//!
//! | mode × crypto | envelopes | a message verifies if | cost charged, check counted |
//! |---|---|---|---|
//! | unauthenticated baselines | placeholder | its sender is in the directory | no |
//! | signed mode, `Modeled` | placeholder | its sender is in the directory | yes |
//! | signed mode, `Real` | BLS | its sender's key verifies it | yes |
//!
//! Who pays how follows the paper's hardware: a switch is one OVS thread,
//! so each check is serialized CPU; a controller has 12 cores, so a check
//! is *latency* on whatever it releases ([`Authenticator::verify_latency`],
//! [`Authenticator::quorum_cost`]).
//!
//! `ctrl/membership.rs` is the one module that still asks for the crypto
//! mode itself: under real crypto a membership change is a different
//! protocol (share redistribution), not the same steps minus the math. It
//! borrows the threshold key material held here.

use crate::collector::{Check, Quorum, QuorumCollector};
use crate::config::CryptoMode;
use crate::msg::Net;
use crate::obs::Obs;
use crate::runtime::Shared;
use blscrypto::bls::{KeyShare, PartialSignature, PreparedKey, SecretKey};
use blscrypto::dkg::GroupPublic;
use simnet::node::Host;
use simnet::time::SimDuration;
use southbound::codec::Wire;
use southbound::envelope::{MsgId, QuorumSigned, ShareSigned, Signed};
use southbound::types::{ControllerId, DomainId, Phase, SwitchId};
use std::sync::Arc;

/// A party that signs with an identity key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Peer {
    /// A switch (events, acks, NACKs, Segway readies).
    Switch(SwitchId),
    /// A controller (forwarded events).
    Controller(DomainId, ControllerId),
}

/// How much of the signature scheme runs (the table in the module doc).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Level {
    Unsigned,
    Modeled,
    Real,
}

/// One actor's signing identity and verification policy. Also owns its
/// `(origin, seq)` message-id counter and its signature-check counter.
pub struct Authenticator {
    shared: Arc<Shared>,
    level: Level,
    me: Peer,
    domain: DomainId,
    origin: u32,
    seq: u64,
    identity: Option<SecretKey>,
    share: Option<KeyShare>,
    /// This domain's commitment after a reshare; `None` = bootstrap.
    reshared: Option<GroupPublic>,
    checks: u64,
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
            reshared: None,
            checks: 0,
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

    /// Envelopes issued so far; on a switch each one is a signature made.
    pub fn issued(&self) -> u64 {
        self.seq
    }

    /// Signature checks performed so far — a single verify and an
    /// aggregate verify each count one.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// This actor's threshold key share.
    pub fn share(&self) -> Option<&KeyShare> {
        self.share.as_ref()
    }

    /// The group commitment of this actor's domain in the current phase.
    pub fn group(&self) -> &GroupPublic {
        let bootstrap = &self.shared.keys.domains[&self.domain].group;
        self.reshared.as_ref().unwrap_or(bootstrap)
    }

    /// Installs the outcome of a membership change: the new commitment and,
    /// where shares are real, this member's new share.
    pub fn rekey(&mut self, share: Option<KeyShare>, group: GroupPublic) {
        if share.is_some() {
            self.share = share;
        }
        self.reshared = Some(group);
    }

    /// Signs `payload` with this actor's identity key.
    pub fn sign<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        payload: T,
        phase: Phase,
    ) -> Signed<T> {
        let msg_id = self.next_msg_id();
        if self.signed() {
            ctx.charge_cpu(self.shared.cfg.costs.event_sign);
        }
        if self.level == Level::Real {
            let key = self.identity.as_ref().expect("real crypto: identity key");
            return Signed::sign(label, payload, phase, msg_id, key);
        }
        Signed {
            payload,
            phase,
            msg_id,
            signature: self.shared.keys.dummy,
        }
    }

    /// Signs `payload` with this controller's threshold share, charging
    /// `cpu` for it (updates and segment reports are priced differently).
    pub fn sign_share<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        payload: T,
        phase: Phase,
        cpu: SimDuration,
    ) -> ShareSigned<T> {
        let msg_id = self.next_msg_id();
        if self.signed() {
            ctx.charge_cpu(cpu);
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

    fn key_of(&self, peer: Peer) -> Option<&PreparedKey> {
        let keys = &self.shared.keys;
        match peer {
            Peer::Switch(s) => keys.switch_pk.get(&s),
            Peer::Controller(d, c) => keys.controller_pk.get(&(d, c)),
        }
    }

    /// Is `msg` acceptable as signed by `from`? Under `Real` its key must
    /// verify the envelope; below, `from` must be in the directory. An
    /// unknown sender is rejected either way.
    fn accepts<T: Wire>(&self, label: &str, msg: &Signed<T>, from: Peer) -> bool {
        let dir = &self.shared.dir;
        match (self.level, from) {
            (Level::Real, _) => self
                .key_of(from)
                .is_some_and(|key| msg.verify_prepared(label, key)),
            (_, Peer::Switch(s)) => dir.switch_node.contains_key(&s),
            (_, Peer::Controller(d, c)) => dir.controller_node.contains_key(&(d, c)),
        }
    }

    /// Books one check, and its CPU where a single thread pays for it.
    fn book_check(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        if self.signed() {
            self.checks += 1;
            if matches!(self.me, Peer::Switch(_)) {
                ctx.charge_cpu(self.shared.cfg.costs.bls_verify);
            }
        }
    }

    /// Does `msg` verify as signed by `from`?
    pub fn verify<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        msg: &Signed<T>,
        from: Peer,
    ) -> bool {
        self.book_check(ctx);
        self.accepts(label, msg, from)
    }

    /// Does the aggregate on `msg` verify under this domain's group key?
    pub fn verify_group<T: Wire>(
        &mut self,
        ctx: &mut dyn Host<Net, Obs>,
        label: &str,
        msg: &QuorumSigned<T>,
    ) -> bool {
        self.book_check(ctx);
        let pk = &self.shared.keys.domains[&self.domain].public_key;
        self.level != Level::Real || msg.verify_prepared(label, pk)
    }

    /// Buckets one threshold share of `domain` and runs the collector's
    /// aggregate → verify → evict policy at `quorum` distinct signers.
    /// Below `Real` a quorum certifies on the count alone.
    pub fn collect<K: Ord + Copy, T: Wire + Eq + Clone>(
        &mut self,
        bucket: &mut QuorumCollector<K, T>,
        key: K,
        msg: ShareSigned<T>,
        label: &str,
        quorum: usize,
        domain: DomainId,
    ) -> Quorum<T> {
        if !bucket.offer(key, msg.phase, msg.payload, msg.partial) {
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
        let outcome = bucket.try_quorum(key, msg.phase, check);
        if self.signed() && !matches!(outcome, Quorum::Below) {
            self.checks += 1;
        }
        outcome
    }

    /// Latency of one signature verification on a controller.
    pub fn verify_latency(&self) -> SimDuration {
        if self.signed() {
            self.shared.cfg.costs.bls_verify
        } else {
            SimDuration::ZERO
        }
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
