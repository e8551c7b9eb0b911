//! Batched BLS verification: one pairing-product check for a whole batch of
//! signed updates.
//!
//! For items `(pkᵢ, mᵢ, σᵢ)` and random weights `wᵢ`, the batch is accepted
//! iff
//!
//! ```text
//! ∏ᵢ e(wᵢ·H(mᵢ), pkᵢ) · e(-Σᵢ wᵢ·σᵢ, g2) == 1
//! ```
//!
//! which holds for honest signatures by bilinearity. Soundness comes from
//! the **small-exponents test**: a batch containing any invalid signature
//! defines a nonzero discrete-log relation in `μ_r`, and the random
//! 128-bit weights satisfy it with probability at most `2⁻¹²⁷` per run. The
//! first weight is fixed to `1` (standard normalization — scaling all
//! weights by `w₀⁻¹` shows it loses nothing).
//!
//! Weights are drawn from the caller's RNG, which in Cicero is the seeded
//! deterministic [`substrate::rng`] — so a batch decision is reproducible
//! for a given seed, and simcheck's security oracle can replay it exactly.
//!
//! Cost: every *distinct* message is hashed once. Items whose message no
//! other item shares merge into one pairing term per distinct public key
//! (`∏ e(wᵢ·H(mᵢ), pk) = e(Σ wᵢ·H(mᵢ), pk)`); items that share a message
//! merge on the other side of the pairing into one term per distinct
//! message (`∏ e(wᵢ·H(m), pkᵢ) = e(H(m), Σ wᵢ·pkᵢ)`). Each weighted sum —
//! of signatures, of hashes, of keys — is one multi-scalar multiplication
//! over a single shared 128-step doubling chain
//! ([`crate::curves::Projective::sum_of_products`]), not a ladder per item.
//! Then a single shared Miller loop and final exponentiation. A 64-update
//! batch signed under one group key is 2 pairing terms instead of 128; four
//! controllers' signatures over one message are 2 terms and one hash
//! instead of 5 and 4.

use crate::bls::{PublicKey, Signature, SIGNATURE_DOMAIN};
use crate::curves::{hash_to_g1, G1Affine, G1Projective, G2Affine, G2Projective};
use crate::pairing::{
    g2_generator_prepared, pairing_product_is_one_prepared, prepare_g2, PreparedG2,
};
use substrate::rng::Rng;

/// One signed update in a batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchItem<'a> {
    /// The signer's public key (the group key, or a share key for partials).
    pub pk: PublicKey,
    /// The signed message bytes.
    pub msg: &'a [u8],
    /// The claimed signature.
    pub sig: Signature,
}

impl<'a> BatchItem<'a> {
    /// Convenience constructor.
    pub fn new(pk: PublicKey, msg: &'a [u8], sig: Signature) -> Self {
        BatchItem { pk, msg, sig }
    }
}

/// Draws a nonzero 128-bit weight as a 2-limb scalar.
fn random_weight<R: Rng + ?Sized>(rng: &mut R) -> [u64; 2] {
    loop {
        let w = [rng.next_u64(), rng.next_u64()];
        if w != [0, 0] {
            return w;
        }
    }
}

/// Verifies a batch of BLS signatures with one pairing-product check.
///
/// Returns `true` for the empty batch (vacuously: there is nothing to
/// reject). Identity public keys and identity signatures are rejected
/// outright, mirroring [`crate::bls::verify`].
///
/// A batch that accepts agrees with per-item [`crate::bls::verify`] except
/// with probability `≤ 2⁻¹²⁷` over the weights; a batch that rejects
/// contains at least one item that per-item verification also rejects
/// (honest batches never reject). The RNG is consumed deterministically:
/// exactly `2·(n-1)` draws for an `n`-item batch with no zero rerolls.
pub fn batch_verify<R: Rng + ?Sized>(items: &[BatchItem<'_>], rng: &mut R) -> bool {
    if items.is_empty() {
        return true;
    }
    // Items grouped by message: `(message, indices)` in first-seen order.
    let mut by_msg: Vec<(&[u8], Vec<usize>)> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        if item.pk.0.is_identity() || item.sig.0.is_identity() {
            return false;
        }
        match by_msg.iter_mut().find(|(m, _)| *m == item.msg) {
            Some((_, idx)) => idx.push(i),
            None => by_msg.push((item.msg, vec![i])),
        }
    }
    let weights: Vec<[u64; 2]> = (0..items.len())
        .map(|i| if i == 0 { [1, 0] } else { random_weight(rng) })
        .collect();
    // Every weighted sum is one multi-scalar multiplication: -Σ wᵢ·σᵢ, the
    // per-distinct-pk Σ wᵢ·H(mᵢ) (unshared messages) and the
    // per-shared-message Σ wᵢ·pkᵢ.
    let sig_terms: Vec<(G1Projective, &[u64])> = items
        .iter()
        .zip(&weights)
        .map(|(item, w)| (item.sig.0.to_projective(), &w[..]))
        .collect();
    let neg_sig = G1Projective::sum_of_products(&sig_terms).neg().to_affine();
    let mut per_pk: Vec<(G2Affine, Vec<(G1Projective, &[u64])>)> = Vec::new();
    let mut per_msg: Vec<(G1Affine, G2Affine)> = Vec::new();
    for (msg, idx) in &by_msg {
        let h = hash_to_g1(msg, SIGNATURE_DOMAIN);
        if let [i] = idx[..] {
            let pk = items[i].pk.0;
            match per_pk.iter_mut().find(|(k, _)| *k == pk) {
                Some((_, hs)) => hs.push((h, &weights[i])),
                None => per_pk.push((pk, vec![(h, &weights[i])])),
            }
        } else {
            let pk_terms: Vec<(G2Projective, &[u64])> = idx
                .iter()
                .map(|&i| (items[i].pk.0.to_projective(), &weights[i][..]))
                .collect();
            per_msg.push((
                h.to_affine(),
                G2Projective::sum_of_products(&pk_terms).to_affine(),
            ));
        }
    }
    let terms: Vec<(G1Affine, PreparedG2)> = per_pk
        .iter()
        .map(|(pk, hs)| (G1Projective::sum_of_products(hs).to_affine(), prepare_g2(pk)))
        .chain(per_msg.iter().map(|(h, pk)| (*h, prepare_g2(pk))))
        .collect();
    let mut refs: Vec<(&G1Affine, &PreparedG2)> = terms.iter().map(|(h, q)| (h, q)).collect();
    refs.push((&neg_sig, g2_generator_prepared()));
    pairing_product_is_one_prepared(&refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bls::{verify, SecretKey};
    use crate::curves::G1Affine;
    use substrate::rng::{SeedableRng, StdRng};

    fn signed_batch<'a>(
        msgs: &'a [Vec<u8>],
        keys: &[SecretKey],
    ) -> Vec<BatchItem<'a>> {
        msgs.iter()
            .enumerate()
            .map(|(i, m)| {
                let sk = &keys[i % keys.len()];
                BatchItem::new(sk.public_key(), m, sk.sign(m))
            })
            .collect()
    }

    #[test]
    fn valid_batch_accepts_and_groups_by_key() {
        let mut rng = StdRng::seed_from_u64(0xba7c);
        let keys: Vec<SecretKey> = (0..3).map(|_| SecretKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..8u8).map(|i| vec![b'm', i]).collect();
        let items = signed_batch(&msgs, &keys);
        assert!(batch_verify(&items, &mut rng));
    }

    #[test]
    fn one_bad_signature_rejects() {
        let mut rng = StdRng::seed_from_u64(0xbad);
        let keys: Vec<SecretKey> = (0..2).map(|_| SecretKey::generate(&mut rng)).collect();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| vec![b'u', i]).collect();
        let mut items = signed_batch(&msgs, &keys);
        // Swap one signature for a signature over a different message.
        items[3].sig = keys[3 % keys.len()].sign(b"forged update");
        assert!(!batch_verify(&items, &mut rng));
        // Per-item verification agrees on the culprit.
        assert!(!verify(&items[3].pk, items[3].msg, &items[3].sig));
        assert!(verify(&items[0].pk, items[0].msg, &items[0].sig));
    }

    #[test]
    fn shared_message_merges_on_the_key_side() {
        // Four signers over one message plus one
        // unrelated item: accepted; any one signer's signature over another
        // message, or a signature swapped between two signers, rejects.
        let mut rng = StdRng::seed_from_u64(0x5a3e);
        let keys: Vec<SecretKey> = (0..5).map(|_| SecretKey::generate(&mut rng)).collect();
        let shared = b"receipt".to_vec();
        let other = b"other".to_vec();
        let mut items: Vec<BatchItem<'_>> = keys[..4]
            .iter()
            .map(|k| BatchItem::new(k.public_key(), &shared, k.sign(&shared)))
            .collect();
        items.push(BatchItem::new(keys[4].public_key(), &other, keys[4].sign(&other)));
        assert!(batch_verify(&items, &mut rng));
        let mut forged = items.clone();
        forged[2].sig = keys[2].sign(b"another barrier");
        assert!(!batch_verify(&forged, &mut rng));
        let mut swapped = items.clone();
        swapped.swap(0, 3);
        assert!(batch_verify(&swapped, &mut rng), "item order is irrelevant");
        (swapped[0].sig, swapped[1].sig) = (swapped[1].sig, swapped[0].sig);
        assert!(!batch_verify(&swapped, &mut rng));
    }

    #[test]
    fn empty_batch_accepts() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(batch_verify(&[], &mut rng));
    }

    #[test]
    fn identity_pk_or_sig_rejects() {
        let mut rng = StdRng::seed_from_u64(0x1d);
        let sk = SecretKey::generate(&mut rng);
        let msg = b"m".to_vec();
        let good = BatchItem::new(sk.public_key(), &msg, sk.sign(&msg));
        let id_sig = BatchItem {
            sig: Signature(G1Affine::identity()),
            ..good
        };
        assert!(!batch_verify(&[good, id_sig], &mut rng));
        let id_pk = BatchItem {
            pk: PublicKey(crate::curves::G2Affine::identity()),
            ..good
        };
        assert!(!batch_verify(&[good, id_pk], &mut rng));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut krng = StdRng::seed_from_u64(0xde7);
        let keys: Vec<SecretKey> = (0..2).map(|_| SecretKey::generate(&mut krng)).collect();
        let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i]).collect();
        let items = signed_batch(&msgs, &keys);
        let a = batch_verify(&items, &mut StdRng::seed_from_u64(7));
        let b = batch_verify(&items, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        assert!(a);
    }
}
