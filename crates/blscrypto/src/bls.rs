//! Plain and threshold BLS signatures.
//!
//! Cicero controllers each hold a *share* of a single control-plane private
//! key; every network update is signed with a share, and a switch (or the
//! aggregator controller) combines any `t + 1` valid partial signatures with
//! Lagrange interpolation into one group signature verifiable against the
//! single group public key installed on switches (paper §3.2).

use crate::curves::{g2_mul_generator, hash_to_g1, G1Affine, G1Projective, G2Affine};
use crate::fields::Fr;
use crate::pairing::{
    g2_generator_prepared, pairing_product_is_one_prepared, prepare_g2, PreparedG2,
};
use crate::shamir::{lagrange_at_zero, Share};
use crate::Error;
use std::sync::OnceLock;

/// Domain-separation tag for message hashing.
pub const SIGNATURE_DOMAIN: &str = "CICERO_BLS12381_SIG_V1";

/// A BLS secret key (a scalar in `Fr`).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(Fr);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A BLS public key (a point in `G2`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub G2Affine);

/// A BLS signature (a point in `G1`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Signature(pub G1Affine);

impl SecretKey {
    /// Samples a fresh secret key.
    pub fn generate<R: substrate::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let s = Fr::random(rng);
            if !s.is_zero() {
                return SecretKey(s);
            }
        }
    }

    /// Wraps an existing scalar (e.g. a DKG share).
    pub fn from_fr(s: Fr) -> Self {
        SecretKey(s)
    }

    /// Exposes the underlying scalar (needed by the resharing protocol).
    pub fn as_fr(&self) -> Fr {
        self.0
    }

    /// Derives the matching public key `g2 · sk` (fixed-base table).
    pub fn public_key(&self) -> PublicKey {
        PublicKey(g2_mul_generator(self.0).to_affine())
    }

    /// Signs a message: `σ = H(m) · sk`, multiplied by GLV (`H(m)` is in
    /// `G1` by construction).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(hash_to_g1(msg, SIGNATURE_DOMAIN).mul_glv(self.0).to_affine())
    }
}

impl PublicKey {
    /// Serializes the public key.
    pub fn to_bytes(self) -> [u8; 193] {
        self.0.to_bytes()
    }

    /// Deserializes and validates a public key.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] for malformed or off-subgroup encodings.
    pub fn from_bytes(bytes: &[u8; 193]) -> Result<Self, Error> {
        G2Affine::from_bytes(bytes)
            .map(PublicKey)
            .ok_or(Error::Decode("G2 public key"))
    }
}

impl Signature {
    /// Serializes the signature.
    pub fn to_bytes(self) -> [u8; 97] {
        self.0.to_bytes()
    }

    /// Deserializes and validates a signature.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] for malformed or off-subgroup encodings.
    pub fn from_bytes(bytes: &[u8; 97]) -> Result<Self, Error> {
        G1Affine::from_bytes(bytes)
            .map(Signature)
            .ok_or(Error::Decode("G1 signature"))
    }
}

/// A public key that owns its ate line table ([`PreparedG2`]), built on
/// the first verification and reused by every later one — what a party that
/// checks many signatures under one key (a switch under its domain's group
/// key, a controller under a switch's identity key) should hold. Shared
/// across threads, the table is still built once.
#[derive(Clone)]
pub struct PreparedKey {
    pk: PublicKey,
    table: OnceLock<PreparedG2>,
}

impl std::fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key and whether its table exists, not the table's 68 triples.
        f.debug_struct("PreparedKey")
            .field("pk", &self.pk)
            .field("prepared", &self.table.get().is_some())
            .finish()
    }
}

impl From<PublicKey> for PreparedKey {
    fn from(pk: PublicKey) -> Self {
        PreparedKey {
            pk,
            table: OnceLock::new(),
        }
    }
}

impl PreparedKey {
    /// The key itself.
    pub fn key(&self) -> PublicKey {
        self.pk
    }

    /// Verifies `e(σ, g2) == e(H(m), pk)` via a two-pair product check.
    ///
    /// Identity signatures and identity public keys are rejected outright
    /// (they would verify trivially for a zero key).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        if self.pk.0.is_identity() || sig.0.is_identity() {
            return false;
        }
        let h = hash_to_g1(msg, SIGNATURE_DOMAIN).to_affine();
        let neg_sig = sig.0.neg();
        let table = self.table.get_or_init(|| prepare_g2(&self.pk.0));
        pairing_product_is_one_prepared(&[(&h, table), (&neg_sig, g2_generator_prepared())])
    }
}

/// [`PreparedKey::verify`] for a key met once: its line table is built and
/// thrown away.
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    PreparedKey::from(*pk).verify(msg, sig)
}

/// One participant's signing share (index is the Shamir evaluation point).
#[derive(Clone, PartialEq, Eq)]
pub struct KeyShare {
    /// 1-based participant index.
    pub index: u32,
    secret: SecretKey,
}

impl std::fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "KeyShare {{ index: {}, secret: .. }}", self.index)
    }
}

impl KeyShare {
    /// Wraps a Shamir share as a signing share.
    pub fn new(index: u32, secret: Fr) -> Self {
        KeyShare {
            index,
            secret: SecretKey::from_fr(secret),
        }
    }

    /// The underlying Shamir share value.
    pub fn secret_fr(&self) -> Fr {
        self.secret.as_fr()
    }

    /// Public key of this share (`g2 · share`), for partial verification.
    pub fn public_key(&self) -> PublicKey {
        self.secret.public_key()
    }
}

/// A partial signature produced with a key share.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartialSignature {
    /// Index of the signing participant.
    pub index: u32,
    /// The share-signed point.
    pub sig: G1Affine,
}

/// Signs a message with a key share.
pub fn sign_share(share: &KeyShare, msg: &[u8]) -> PartialSignature {
    PartialSignature {
        index: share.index,
        sig: share.secret.sign(msg).0,
    }
}

/// Verifies one partial signature against that participant's share public
/// key (as derived from the Feldman commitment).
pub fn verify_partial(share_pk: &PublicKey, msg: &[u8], partial: &PartialSignature) -> bool {
    verify(share_pk, msg, &Signature(partial.sig))
}

/// Aggregates `t + 1` (or more) partial signatures into the group signature
/// via Lagrange interpolation in the exponent.
///
/// The result verifies against the group public key iff at least `t + 1` of
/// the partials are honest evaluations of the shared degree-`t` polynomial.
///
/// # Errors
///
/// * [`Error::InsufficientShares`] if fewer than one partial is supplied.
/// * [`Error::DuplicateIndex`] if two partials share an index.
pub fn aggregate(partials: &[PartialSignature]) -> Result<Signature, Error> {
    if partials.is_empty() {
        return Err(Error::InsufficientShares { got: 0, need: 1 });
    }
    let indices: Vec<u32> = partials.iter().map(|p| p.index).collect();
    let coeffs: Vec<_> = lagrange_at_zero(&indices)?
        .iter()
        .map(|lambda| lambda.to_raw())
        .collect();
    let terms: Vec<(G1Projective, &[u64])> = partials
        .iter()
        .zip(&coeffs)
        .map(|(p, lambda)| (p.sig.to_projective(), &lambda[..]))
        .collect();
    Ok(Signature(G1Projective::sum_of_products(&terms).to_affine()))
}

/// Convenience: aggregate and enforce a threshold.
///
/// # Errors
///
/// As [`aggregate`], plus [`Error::InsufficientShares`] when fewer than
/// `t + 1` partials are supplied.
pub fn aggregate_threshold(
    partials: &[PartialSignature],
    t: usize,
) -> Result<Signature, Error> {
    if partials.len() < t + 1 {
        return Err(Error::InsufficientShares {
            got: partials.len(),
            need: t + 1,
        });
    }
    aggregate(partials)
}

/// Reconstructs nothing — helper turning Shamir [`Share`]s into key shares.
pub fn shares_to_key_shares(shares: &[Share]) -> Vec<KeyShare> {
    shares
        .iter()
        .map(|s| KeyShare::new(s.index, s.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::g2_generator;
    use crate::shamir::share_secret;
    use substrate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x515)
    }

    #[test]
    fn plain_sign_verify() {
        let mut rng = rng();
        let sk = SecretKey::generate(&mut rng);
        let pk = sk.public_key();
        let msg = b"install rule: s3 before s2";
        let sig = sk.sign(msg);
        assert!(verify(&pk, msg, &sig));
        assert!(!verify(&pk, b"different message", &sig));
        let other = SecretKey::generate(&mut rng).public_key();
        assert!(!verify(&other, msg, &sig));
    }

    #[test]
    fn identity_keys_and_signatures_rejected() {
        let mut rng = rng();
        let sk = SecretKey::generate(&mut rng);
        let msg = b"m";
        assert!(!verify(&PublicKey(G2Affine::identity()), msg, &sk.sign(msg)));
        assert!(!verify(
            &sk.public_key(),
            msg,
            &Signature(G1Affine::identity())
        ));
    }

    #[test]
    fn threshold_sign_3_of_4() {
        let mut rng = rng();
        let secret = Fr::random(&mut rng);
        let group_pk = PublicKey(g2_generator().mul_fr(secret).to_affine());
        let (_, shares) = share_secret(secret, 2, 4, &mut rng); // degree 2 ⇒ 3 signers
        let key_shares = shares_to_key_shares(&shares);
        let msg = b"flow-mod 42";

        let partials: Vec<_> = key_shares[..3]
            .iter()
            .map(|ks| sign_share(ks, msg))
            .collect();
        let sig = aggregate_threshold(&partials, 2).unwrap();
        assert!(verify(&group_pk, msg, &sig));

        // Any 3-subset works and produces the *same* signature (uniqueness).
        let partials2: Vec<_> = [1usize, 2, 3]
            .iter()
            .map(|&i| sign_share(&key_shares[i], msg))
            .collect();
        let sig2 = aggregate_threshold(&partials2, 2).unwrap();
        assert_eq!(sig.0, sig2.0);
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = rng();
        let secret = Fr::random(&mut rng);
        let group_pk = PublicKey(g2_generator().mul_fr(secret).to_affine());
        let (_, shares) = share_secret(secret, 2, 4, &mut rng);
        let key_shares = shares_to_key_shares(&shares);
        let msg = b"flow-mod 42";
        let partials: Vec<_> = key_shares[..2]
            .iter()
            .map(|ks| sign_share(ks, msg))
            .collect();
        assert!(matches!(
            aggregate_threshold(&partials, 2),
            Err(Error::InsufficientShares { got: 2, need: 3 })
        ));
        // Forcing aggregation below threshold yields an invalid signature.
        let forged = aggregate(&partials).unwrap();
        assert!(!verify(&group_pk, msg, &forged));
    }

    #[test]
    fn corrupted_partial_breaks_aggregate() {
        let mut rng = rng();
        let secret = Fr::random(&mut rng);
        let group_pk = PublicKey(g2_generator().mul_fr(secret).to_affine());
        let (_, shares) = share_secret(secret, 2, 4, &mut rng);
        let key_shares = shares_to_key_shares(&shares);
        let msg = b"flow-mod 42";
        let mut partials: Vec<_> = key_shares[..3]
            .iter()
            .map(|ks| sign_share(ks, msg))
            .collect();
        // A Byzantine controller swaps in a partial over a different message.
        partials[1] = sign_share(&key_shares[1], b"evil update");
        partials[1].index = key_shares[1].index;
        let sig = aggregate_threshold(&partials, 2).unwrap();
        assert!(!verify(&group_pk, msg, &sig));
        // Partial verification pinpoints the culprit.
        assert!(!verify_partial(&key_shares[1].public_key(), msg, &partials[1]));
        assert!(verify_partial(&key_shares[0].public_key(), msg, &partials[0]));
    }

    #[test]
    fn duplicate_indices_rejected() {
        let mut rng = rng();
        let secret = Fr::random(&mut rng);
        let (_, shares) = share_secret(secret, 1, 4, &mut rng);
        let key_shares = shares_to_key_shares(&shares);
        let msg = b"m";
        let p = sign_share(&key_shares[0], msg);
        assert!(matches!(
            aggregate(&[p, p]),
            Err(Error::DuplicateIndex(1))
        ));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let mut rng = rng();
        let sk = SecretKey::generate(&mut rng);
        let sig = sk.sign(b"m");
        assert_eq!(Signature::from_bytes(&sig.to_bytes()).unwrap(), sig);
        let pk = sk.public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()).unwrap(), pk);
    }
}
