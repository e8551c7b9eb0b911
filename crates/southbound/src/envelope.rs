//! Authenticated message envelopes — the paper's OpenFlow extension.
//!
//! Every protocol payload is signed — or, when its addressee is its only
//! reader, MAC-tagged ([`Tagged`]) — over its *canonical wire encoding* plus
//! a domain-separation label and the membership phase, and carries a unique
//! `(origin, sequence)` message id so switches and controllers can discard
//! duplicates (paper §5.1, "southbound interface").

use crate::codec::Wire;
use crate::types::Phase;
use blscrypto::bls::{
    self, KeyShare, PartialSignature, PreparedKey, PublicKey, SecretKey, Signature,
};
use blscrypto::sha256::{hmac_sha256, sha256_parts};

/// Unique message identifier: `(origin node, per-origin sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId {
    /// The originating node (controller or switch) in its namespace.
    pub origin: u32,
    /// Strictly increasing per origin.
    pub seq: u64,
}

crate::wire_struct!(MsgId { origin, seq });

/// Computes the signing digest of a payload under a label and phase.
///
/// Signing the digest (rather than raw bytes) matches the paper's design
/// where the hash-to-curve input is fixed-size.
pub fn signing_digest<T: Wire>(label: &str, phase: Phase, payload: &T) -> [u8; 32] {
    sha256_parts(label, &[&phase.0.to_be_bytes(), &payload.to_wire()])
}

/// A payload signed with a plain BLS key: anyone holding the public key can
/// check it. No protocol message carries one — events, forwards, acks,
/// reports and readies are [`Tagged`], updates and phase notices threshold-
/// signed. The per-layer benchmark still measures it.
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

/// A payload authenticated for its one addressee: an HMAC-SHA256 tag under
/// the key that sender and addressee share (events, forwards, acks, NACKs,
/// segment reports, Segway readies). A message is tagged, not signed, iff
/// its only reader is its addressee — nobody else can check the tag, and the
/// addressee could have made it itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tagged<T> {
    /// The payload.
    pub payload: T,
    /// Phase the tag covers.
    pub phase: Phase,
    /// Unique message id.
    pub msg_id: MsgId,
    /// HMAC-SHA256 over [`signing_digest`] under the pair's key.
    pub tag: [u8; 32],
}

crate::wire_struct!(Tagged<T> { payload, phase, msg_id, tag });

impl<T: Wire> Tagged<T> {
    /// Tags `payload` under the pairwise `key`.
    pub fn tag(label: &str, payload: T, phase: Phase, msg_id: MsgId, key: &[u8; 32]) -> Self {
        let tag = hmac_sha256(key, &signing_digest(label, phase, &payload));
        Tagged { payload, phase, msg_id, tag }
    }

    /// Checks the tag under `key`, comparing all 32 bytes without an early
    /// exit (no timing oracle for a byte-by-byte forgery).
    pub fn verify(&self, label: &str, key: &[u8; 32]) -> bool {
        let expected = hmac_sha256(key, &signing_digest(label, self.phase, &self.payload));
        let diff = expected.iter().zip(&self.tag).fold(0, |d, (a, b)| d | (a ^ b));
        diff == 0
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
    fn tagged_round_trip_tamper_and_wrong_key() {
        let (key, other) = ([7u8; 32], [8u8; 32]);
        let id = MsgId { origin: 1, seq: 9 };
        let msg = Tagged::tag(LABEL, FlowId(42), Phase(3), id, &key);
        assert!(msg.verify(LABEL, &key));
        assert!(!msg.verify(LABEL, &other));
        assert!(!msg.verify("OTHER", &key));
        let mut tampered = msg.clone();
        tampered.payload = FlowId(43);
        assert!(!tampered.verify(LABEL, &key));
        let mut rephased = msg.clone();
        rephased.phase = Phase(4);
        assert!(!rephased.verify(LABEL, &key));
        // Every tag byte is compared, the last like the first.
        for i in [0, 31] {
            let mut flipped = msg.clone();
            flipped.tag[i] ^= 1;
            assert!(!flipped.verify(LABEL, &key), "byte {i}");
        }
    }

    /// The tagged envelope's byte layout, pinned like the records it carries.
    #[test]
    fn golden_tagged_fixture() {
        let msg = Tagged {
            payload: FlowId(0x0102030405060708),
            phase: Phase(0x1112131415161718),
            msg_id: MsgId {
                origin: 0x21222324,
                seq: 0x3132333435363738,
            },
            tag: std::array::from_fn(|i| 0xe0 + i as u8),
        };
        let hex: String = msg.to_wire().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "0102030405060708111213141516171821222324313233343536373\
             8e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
        );
        assert_eq!(Tagged::<FlowId>::from_wire(&msg.to_wire()), Ok(msg));
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
        let q = QuorumSigned {
            payload,
            phase,
            msg_id: MsgId { origin: 1, seq: 1 },
            signature: blscrypto::bls::aggregate(&partials).unwrap(),
        };
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
