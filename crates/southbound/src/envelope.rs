//! Signed message envelopes — the paper's OpenFlow extension.
//!
//! Every protocol payload is signed over its *canonical wire encoding* plus a
//! domain-separation label and the membership phase, and carries a unique
//! `(origin, sequence)` message id so switches and controllers can discard
//! duplicates (paper §5.1, "southbound interface").

use crate::codec::Wire;
use crate::types::Phase;
use blscrypto::bls::{
    self, KeyShare, PartialSignature, PreparedKey, PublicKey, SecretKey, Signature,
};
use blscrypto::sha256::sha256_parts;

/// Unique message identifier: `(origin node, per-origin sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId {
    /// The originating node (controller or switch) in its namespace.
    pub origin: u32,
    /// Strictly increasing per origin.
    pub seq: u64,
}

/// Computes the signing digest of a payload under a label and phase.
///
/// Signing the digest (rather than raw bytes) matches the paper's design
/// where the hash-to-curve input is fixed-size.
pub fn signing_digest<T: Wire>(label: &str, phase: Phase, payload: &T) -> [u8; 32] {
    sha256_parts(label, &[&phase.0.to_be_bytes(), &payload.to_wire()])
}

/// A payload signed with a plain BLS key (events from switches, acks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signed<T> {
    /// The payload.
    pub payload: T,
    /// Phase the signature covers.
    pub phase: Phase,
    /// Unique message id.
    pub msg_id: MsgId,
    /// BLS signature over [`signing_digest`].
    pub signature: Signature,
}

impl<T: Wire> Signed<T> {
    /// Signs `payload` with `key`.
    pub fn sign(label: &str, payload: T, phase: Phase, msg_id: MsgId, key: &SecretKey) -> Self {
        let digest = signing_digest(label, phase, &payload);
        Signed {
            payload,
            phase,
            msg_id,
            signature: key.sign(&digest),
        }
    }

    /// Verifies the signature against `pk`, a key met once. Both envelope
    /// kinds follow one convention: `verify` takes a bare [`PublicKey`] and
    /// throws its line table away, `verify_prepared` takes the long-lived
    /// [`PreparedKey`] every node of the running system holds.
    pub fn verify(&self, label: &str, pk: &PublicKey) -> bool {
        self.verify_prepared(label, &PreparedKey::from(*pk))
    }

    /// Verifies the signature against a key the caller keeps prepared.
    pub fn verify_prepared(&self, label: &str, key: &PreparedKey) -> bool {
        let digest = signing_digest(label, self.phase, &self.payload);
        key.verify(&digest, &self.signature)
    }
}

/// A payload signed with a *threshold share* (updates from controllers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShareSigned<T> {
    /// The payload.
    pub payload: T,
    /// Phase the signature covers.
    pub phase: Phase,
    /// Unique message id.
    pub msg_id: MsgId,
    /// The signer's partial signature.
    pub partial: PartialSignature,
}

impl<T: Wire> ShareSigned<T> {
    /// Signs `payload` with a key share.
    pub fn sign(label: &str, payload: T, phase: Phase, msg_id: MsgId, share: &KeyShare) -> Self {
        let digest = signing_digest(label, phase, &payload);
        ShareSigned {
            payload,
            phase,
            msg_id,
            partial: bls::sign_share(share, &digest),
        }
    }

    /// Verifies the partial signature against the signer's share public key.
    pub fn verify_partial(&self, label: &str, share_pk: &PublicKey) -> bool {
        let digest = signing_digest(label, self.phase, &self.payload);
        bls::verify_partial(share_pk, &digest, &self.partial)
    }
}

/// A payload carrying an *aggregated* threshold signature (controller
/// aggregation mode, paper §4.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumSigned<T> {
    /// The payload.
    pub payload: T,
    /// Phase the signature covers.
    pub phase: Phase,
    /// Unique message id.
    pub msg_id: MsgId,
    /// The aggregated group signature.
    pub signature: Signature,
}

impl<T: Wire> QuorumSigned<T> {
    /// Aggregates partials produced over the identical payload/phase.
    ///
    /// # Errors
    ///
    /// Propagates aggregation errors (insufficient or duplicate partials).
    pub fn aggregate(
        payload: T,
        phase: Phase,
        msg_id: MsgId,
        partials: &[PartialSignature],
        threshold_t: usize,
    ) -> Result<Self, blscrypto::Error> {
        let signature = bls::aggregate_threshold(partials, threshold_t)?;
        Ok(QuorumSigned {
            payload,
            phase,
            msg_id,
            signature,
        })
    }

    /// Verifies against the group public key, met once.
    pub fn verify(&self, label: &str, group_pk: &PublicKey) -> bool {
        self.verify_prepared(label, &PreparedKey::from(*group_pk))
    }

    /// Verifies against a group public key the caller keeps prepared.
    pub fn verify_prepared(&self, label: &str, group_pk: &PreparedKey) -> bool {
        let digest = signing_digest(label, self.phase, &self.payload);
        group_pk.verify(&digest, &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EventId, FlowId};
    use blscrypto::dkg;
    use substrate::rng::{SeedableRng, StdRng};

    const LABEL: &str = "TEST_ENVELOPE";

    #[test]
    fn signed_round_trip_and_tamper() {
        let mut rng = StdRng::seed_from_u64(1);
        let key = SecretKey::generate(&mut rng);
        let pk = key.public_key();
        let msg = Signed::sign(
            LABEL,
            FlowId(42),
            Phase(3),
            MsgId { origin: 1, seq: 9 },
            &key,
        );
        // A key met once and a long-lived one (its table built by the
        // first check, reused by the rest) decide alike.
        let key = PreparedKey::from(pk);
        let both = |m: &Signed<FlowId>, label: &str| {
            let verdict = m.verify_prepared(label, &key);
            assert_eq!(m.verify(label, &pk), verdict);
            verdict
        };
        assert!(both(&msg, LABEL));
        // Wrong label, wrong phase, wrong payload all fail.
        assert!(!both(&msg, "OTHER"));
        let mut tampered = msg.clone();
        tampered.payload = FlowId(43);
        assert!(!both(&tampered, LABEL));
        let mut rephased = msg;
        rephased.phase = Phase(4);
        assert!(!both(&rephased, LABEL));
    }

    #[test]
    fn quorum_signed_from_shares() {
        let mut rng = StdRng::seed_from_u64(2);
        let out = dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let payload = EventId(7);
        let phase = Phase(1);
        let digest = signing_digest(LABEL, phase, &payload);

        let partials: Vec<_> = out.participants[..2]
            .iter()
            .map(|p| blscrypto::bls::sign_share(&p.share, &digest))
            .collect();
        let q = QuorumSigned::aggregate(
            payload,
            phase,
            MsgId { origin: 1, seq: 1 },
            &partials,
            1,
        )
        .unwrap();
        let group_pk = PreparedKey::from(out.group_public_key);
        for label in [LABEL, "OTHER"] {
            let verdict = q.verify_prepared(label, &group_pk);
            assert_eq!(q.verify(label, &out.group_public_key), verdict);
            assert_eq!(verdict, label == LABEL);
        }
    }

    #[test]
    fn share_signed_partials_verify_individually() {
        let mut rng = StdRng::seed_from_u64(3);
        let out = dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let share = &out.participants[2].share;
        let msg = ShareSigned::sign(
            LABEL,
            FlowId(4),
            Phase(0),
            MsgId { origin: 3, seq: 1 },
            share,
        );
        let mpk = out.group.member_public_key(3);
        assert!(msg.verify_partial(LABEL, &mpk));
        let wrong = out.group.member_public_key(1);
        assert!(!msg.verify_partial(LABEL, &wrong));
    }

    #[test]
    fn digest_separates_phases_and_labels() {
        let a = signing_digest("A", Phase(0), &FlowId(1));
        let b = signing_digest("A", Phase(1), &FlowId(1));
        let c = signing_digest("B", Phase(0), &FlowId(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
