//! Differential suite: every *fast* path in the crate is pinned, over
//! seeded random inputs, to the slow-but-obviously-correct implementation
//! it replaced (the [`crate::reference`] module, [`crate::bigint`]).
//!
//! Failures print a `CHECK_SEED=…` replay command (see
//! `substrate::check`): the seed is the unit of reproduction.

use crate::batch::{batch_verify, BatchItem};
use crate::bigint::BigUint;
use crate::bls::{self, PreparedKey, PublicKey, SecretKey, Signature, SIGNATURE_DOMAIN};
use crate::curves::{
    g1_generator, g2_generator, hash_to_g1, CurveParams, G1Affine, G2Affine, Projective, LAMBDA,
};
use crate::fields::{Fp, Fr};
use crate::pairing;
use crate::reference;
use crate::tower::{Field, Fp12, Fp2, Fp6};
use substrate::check::Gen;
use substrate::rng::{Rng, SeedableRng, StdRng};

fn arb_fp(g: &mut Gen) -> Fp {
    Fp::from_raw(g.limbs())
}

fn arb_fr(g: &mut Gen) -> Fr {
    Fr::from_raw(g.limbs())
}

fn arb_fp2(g: &mut Gen) -> Fp2 {
    Fp2::new(arb_fp(g), arb_fp(g))
}

fn arb_fp6(g: &mut Gen) -> Fp6 {
    Fp6::new(arb_fp2(g), arb_fp2(g), arb_fp2(g))
}

fn arb_fp12(g: &mut Gen) -> Fp12 {
    Fp12::new(arb_fp6(g), arb_fp6(g))
}

// ---- Montgomery arithmetic vs the big-integer oracle -------------------

#[test]
fn mont_mul_matches_biguint_oracle() {
    let p = BigUint::from_limbs_le(&Fp::MODULUS);
    substrate::forall!(|g| {
        let (a, b) = (arb_fp(g), arb_fp(g));
        let got = BigUint::from_limbs_le(&(a * b).to_raw());
        let expect = BigUint::from_limbs_le(&a.to_raw())
            .mul(&BigUint::from_limbs_le(&b.to_raw()))
            .rem(&p);
        assert_eq!(got, expect, "CIOS Montgomery mul diverged from oracle");
        let sq = BigUint::from_limbs_le(&a.square().to_raw());
        let sq_expect = BigUint::from_limbs_le(&a.to_raw())
            .mul(&BigUint::from_limbs_le(&a.to_raw()))
            .rem(&p);
        assert_eq!(sq, sq_expect, "dedicated squaring diverged from oracle");
    });
}

// ---- Field fast paths vs the exponentiations and loops they replaced ----

/// `m - k` for a small `k` (no limb of either modulus borrows).
fn modulus_minus<const N: usize>(mut m: [u64; N], k: u64) -> [u64; N] {
    m[0] -= k;
    m
}

#[test]
fn binary_euclid_inverse_matches_fermat_exponentiation() {
    let (p2, r2) = (modulus_minus(Fp::MODULUS, 2), modulus_minus(Fr::MODULUS, 2));
    let check_fp = |a: Fp| match a.invert() {
        Some(inv) => assert_eq!(inv, a.pow(&p2), "Fp inverse of {a:?}"),
        None => assert!(a.is_zero()),
    };
    let check_fr = |a: Fr| match a.invert() {
        Some(inv) => assert_eq!(inv, a.pow(&r2), "Fr inverse of {a:?}"),
        None => assert!(a.is_zero()),
    };
    for edge in [0, 1, 2] {
        check_fp(Fp::from_u64(edge));
        check_fp(-Fp::from_u64(edge));
        check_fr(Fr::from_u64(edge));
        check_fr(-Fr::from_u64(edge));
    }
    // A power of two walks the longest halving run, a Mersenne-like value
    // the longest subtract run.
    check_fp(Fp::from_raw([0, 0, 0, 0, 0, 1 << 59]));
    check_fp(Fp::from_raw([u64::MAX; 6]));
    substrate::forall!(|g| {
        check_fp(arb_fp(g));
        check_fr(arb_fr(g));
    });
}

#[test]
fn jacobi_residue_test_matches_euler_criterion() {
    let half = |m: &[u64]| {
        let m = BigUint::from_limbs_le(m);
        m.sub(&BigUint::one()).div_rem(&BigUint::from_u64(2)).0
    };
    let (p_half, r_half) = (half(&Fp::MODULUS), half(&Fr::MODULUS));
    let check_fp = |a: Fp| {
        let euler = a.is_zero() || a.pow(p_half.limbs()) == Fp::one();
        assert_eq!(a.is_square(), euler, "Fp residuosity of {a:?}");
        assert_eq!(a.sqrt().is_some(), euler);
    };
    let check_fr = |a: Fr| {
        let euler = a.is_zero() || a.pow(r_half.limbs()) == Fr::one();
        assert_eq!(a.is_square(), euler, "Fr residuosity of {a:?}");
    };
    for edge in [0, 1, 2, 3, 4] {
        check_fp(Fp::from_u64(edge));
        check_fp(-Fp::from_u64(edge));
        check_fr(Fr::from_u64(edge));
        check_fr(-Fr::from_u64(edge));
    }
    substrate::forall!(|g| {
        let (a, b) = (arb_fp(g), arb_fr(g));
        check_fp(a);
        check_fp(a.square());
        check_fr(b);
        check_fr(b.square());
    });
}

#[test]
fn from_bytes_wide_matches_byte_at_a_time_horner() {
    fn horner_fp(bytes: &[u8]) -> Fp {
        let radix = Fp::from_u64(256);
        bytes.iter().fold(Fp::zero(), |acc, &b| acc * radix + Fp::from_u64(b as u64))
    }
    fn horner_fr(bytes: &[u8]) -> Fr {
        let radix = Fr::from_u64(256);
        bytes.iter().fold(Fr::zero(), |acc, &b| acc * radix + Fr::from_u64(b as u64))
    }
    // Every chunk boundary of both widths, and all-ones (every chunk ≥ p).
    for len in [0, 1, 31, 32, 33, 47, 48, 49, 64, 96, 97] {
        let ones = vec![0xff; len];
        assert_eq!(Fp::from_bytes_wide(&ones), horner_fp(&ones), "{len} bytes of 0xff");
        assert_eq!(Fr::from_bytes_wide(&ones), horner_fr(&ones), "{len} bytes of 0xff");
    }
    substrate::forall!(|g| {
        let bytes = g.bytes(130);
        assert_eq!(Fp::from_bytes_wide(&bytes), horner_fp(&bytes));
        assert_eq!(Fr::from_bytes_wide(&bytes), horner_fr(&bytes));
    });
}

// ---- Lazy-reduction tower vs schoolbook ---------------------------------

#[test]
fn fp2_lazy_mul_matches_schoolbook() {
    substrate::forall!(|g| {
        let (a, b) = (arb_fp2(g), arb_fp2(g));
        assert_eq!(a * b, reference::fp2_mul_schoolbook(a, b));
        assert_eq!(a.square(), reference::fp2_mul_schoolbook(a, a));
    });
}

#[test]
fn fp6_karatsuba_matches_schoolbook() {
    substrate::forall!(|g| {
        let (a, b) = (arb_fp6(g), arb_fp6(g));
        assert_eq!(a * b, reference::fp6_mul_schoolbook(a, b));
    });
}

#[test]
fn fp12_square_matches_generic_mul() {
    substrate::forall!(|g| {
        let a = arb_fp12(g);
        assert_eq!(a.square(), reference::fp12_square_via_mul(a));
    });
}

// ---- wNAF scalar multiplication vs binary double-and-add ----------------

#[test]
fn g1_wnaf_matches_binary_ladder() {
    substrate::forall!(cases = 24, |g| {
        let base = g1_generator().mul_limbs_binary(&arb_fr(g).to_raw());
        let k: [u64; 4] = g.limbs();
        assert_eq!(base.mul_limbs(&k), base.mul_limbs_binary(&k));
    });
}

#[test]
fn g2_wnaf_matches_binary_ladder() {
    substrate::forall!(cases = 12, |g| {
        let base = g2_generator().mul_limbs_binary(&arb_fr(g).to_raw());
        let k: [u64; 4] = g.limbs();
        assert_eq!(base.mul_limbs(&k), base.mul_limbs_binary(&k));
    });
}

#[test]
fn wnaf_scalar_edge_cases() {
    let g1 = g1_generator();
    assert_eq!(g1.mul_limbs(&[0, 0, 0, 0]), g1.mul_limbs_binary(&[0, 0, 0, 0]));
    assert!(g1.mul_limbs(&[0, 0, 0, 0]).is_identity());
    assert_eq!(g1.mul_limbs(&[1]), g1.mul_limbs_binary(&[1]));
    assert_eq!(g1.mul_limbs(&Fr::MODULUS), g1.mul_limbs_binary(&Fr::MODULUS));
    let id = crate::curves::G1Projective::identity();
    assert!(id.mul_limbs(&[7, 7, 7, 7]).is_identity());
}

/// GLV against the binary ladder on `G1` points: random scalars, the
/// scalars around λ and `r`, and scalars whose `k₁` (multiples of λ) or
/// `k₂` (below λ) is zero.
#[test]
fn g1_glv_matches_binary_ladder() {
    let fr = |k: u128| Fr::from_raw([k as u64, (k >> 64) as u64, 0, 0]);
    let lambda = fr(LAMBDA);
    let (zero, one) = (Fr::zero(), Fr::one());
    let edges = [zero, one, lambda - one, lambda, lambda + one, -one];
    substrate::forall!(cases = 24, |g| {
        let base = match g.bool() {
            true => hash_to_g1(&g.bytes(24), "DIFF_GLV"),
            false => g1_generator().mul_limbs_binary(&arb_fr(g).to_raw()),
        };
        let k = match g.usize_in(0..4) {
            0 => arb_fr(g),
            1 => *g.choose(&edges),
            2 => fr(u128::from(g.u64())) * lambda,
            _ => {
                let [lo, hi] = g.limbs::<2>();
                fr((u128::from(hi) << 64 | u128::from(lo)) % LAMBDA)
            }
        };
        assert_eq!(base.mul_glv(k), base.mul_limbs_binary(&k.to_raw()), "k = {k:?}");
    });
    let g1 = g1_generator();
    for k in edges {
        assert_eq!(g1.mul_glv(k), g1.mul_limbs_binary(&k.to_raw()), "k = {k:?}");
    }
}

/// Straus' shared doubling chain against one binary ladder per term, on
/// term lists that mix scalar widths (batch weights are 2 limbs, Lagrange
/// coefficients 4), the unit weight, zero scalars, the identity and a
/// repeated point.
fn sum_of_products_matches_ladders<C: CurveParams>(g: &mut Gen, generator: Projective<C>) {
    let n = g.usize_in(0..6);
    let mut terms: Vec<(Projective<C>, Vec<u64>)> = (0..n)
        .map(|_| {
            let point = generator.mul_limbs_binary(&arb_fr(g).to_raw());
            let scalar = match g.usize_in(0..4) {
                0 => g.limbs::<2>().to_vec(),
                1 => g.limbs::<4>().to_vec(),
                2 => vec![1, 0],
                _ => vec![0, 0],
            };
            (point, scalar)
        })
        .collect();
    if n > 1 && g.bool() {
        terms[0].0 = terms[1].0;
    }
    if n > 0 && g.bool() {
        terms[n - 1].0 = Projective::identity();
    }
    let refs: Vec<(Projective<C>, &[u64])> = terms.iter().map(|(p, k)| (*p, &k[..])).collect();
    let ladders = Projective::sum(terms.iter().map(|(p, k)| p.mul_limbs_binary(k)));
    assert_eq!(Projective::sum_of_products(&refs), ladders, "{n} terms");
}

#[test]
fn sum_of_products_matches_sum_of_binary_ladders() {
    substrate::forall!(cases = 24, |g| {
        sum_of_products_matches_ladders(g, g1_generator());
    });
    substrate::forall!(cases = 8, |g| {
        sum_of_products_matches_ladders(g, g2_generator());
    });
}

// ---- The shipped ate pairing vs the reference Tate pairing ---------------
//
// The two are different bilinear maps (the ate value is a fixed power,
// coprime to r, of the Tate value), so values are never compared: the
// contract is the pairing axioms (`pairing::tests`, no oracle needed) plus
// accept/reject agreement, here.

/// The shipped product check on unprepared points, shaped like
/// [`reference::pairing_product_is_one`].
fn ate_product_is_one(pairs: &[(G1Affine, G2Affine)]) -> bool {
    let tables: Vec<pairing::PreparedG2> =
        pairs.iter().map(|(_, q)| pairing::prepare_g2(q)).collect();
    let terms: Vec<(&G1Affine, &pairing::PreparedG2)> = pairs
        .iter()
        .zip(&tables)
        .map(|((p, _), t)| (p, t))
        .collect();
    pairing::pairing_product_is_one_prepared(&terms)
}

#[test]
fn pairing_product_decisions_agree_with_reference() {
    substrate::forall!(cases = 2, |g| {
        let (a, b) = (arb_fr(g), arb_fr(g));
        let (g1, g2) = (g1_generator().to_affine(), g2_generator().to_affine());
        let p = g1_generator().mul_fr(a).to_affine();
        let q = g2_generator().mul_fr(b).to_affine();
        let neg_ab = g1_generator().mul_fr(-(a * b)).to_affine();
        let tampered = g1_generator().mul_fr(a + Fr::one()).to_affine();
        let other_key = g2_generator().mul_fr(b + Fr::one()).to_affine();
        let (id1, id2) = (G1Affine::identity(), G2Affine::identity());
        // e(aP, bQ) · e(−abP, Q) == 1 and what breaks it.
        for (what, pairs, expect) in [
            ("valid", [(p, q), (neg_ab, g2)], true),
            ("tampered point", [(tampered, q), (neg_ab, g2)], false),
            ("wrong key", [(p, other_key), (neg_ab, g2)], false),
            ("identity terms only", [(id1, q), (p, id2)], true),
            ("one identity, one live term", [(id1, q), (g1, g2)], false),
        ] {
            assert_eq!(
                reference::pairing_product_is_one(&pairs),
                expect,
                "{what}: reference"
            );
            assert_eq!(
                ate_product_is_one(&pairs),
                expect,
                "{what}: prepared product"
            );
            let product = pairs
                .iter()
                .fold(Fp12::one(), |f, (p, q)| f * pairing::pairing(p, q));
            assert_eq!(
                product == Fp12::one(),
                expect,
                "{what}: product of pairing() values"
            );
        }
    });
}

#[test]
fn prepared_ate_product_agrees_with_reference_decision() {
    let check = |a: Fr| {
        let p = g1_generator().mul_fr(a).to_affine();
        let q = g2_generator().to_affine();
        let p1 = g1_generator().to_affine();
        let q1 = g2_generator().mul_fr(a).to_affine();
        // e(a·G1, G2) · e(−G1, a·G2) == 1: both sides must accept.
        let neg = p1.neg();
        let accept_fast = ate_product_is_one(&[(p, q), (neg, q1)]);
        let accept_ref = reference::pairing_product_is_one(&[(p, q), (neg, q1)]);
        assert!(accept_fast, "fast ate product rejected a true statement");
        assert_eq!(accept_fast, accept_ref);
        // Perturb one scalar, on either side: both sides must reject.
        let b = a + Fr::one();
        let p_bad = g1_generator().mul_fr(b).to_affine();
        let q_bad = g2_generator().mul_fr(b).to_affine();
        for bad in [[(p, q), (neg, q_bad)], [(p_bad, q), (neg, q1)]] {
            let reject_fast = ate_product_is_one(&bad);
            let reject_ref = reference::pairing_product_is_one(&bad);
            assert!(!reject_fast, "fast ate product accepted a false statement");
            assert_eq!(reject_fast, reject_ref);
        }
    };
    let mut rng = StdRng::seed_from_u64(0x47e0);
    for _ in 0..4 {
        check(Fr::random(&mut rng));
    }
    substrate::forall!(cases = 2, |g| {
        check(arb_fr(g));
    });
}

/// Bit-identity holds today because both sides compute the same power
/// `f^((p¹²-1)/r)`; only decision-identity (`= 1` on the same inputs) is
/// contractual. A final exponentiation that returns a fixed power of this
/// one — the cubed hard part — keeps every test above and relaxes this one.
#[test]
fn fast_final_exp_matches_reference_on_miller_outputs() {
    let check = |p: G1Affine, q: G2Affine| {
        let f = pairing::multi_miller_loop(&[(&p, &pairing::prepare_g2(&q))]);
        assert_eq!(
            pairing::final_exponentiation(f),
            reference::final_exponentiation(f),
            "addition-chain final exponentiation diverged from BigUint pow"
        );
    };
    let g2 = g2_generator().to_affine();
    check(g1_generator().to_affine(), g2);
    check(g1_generator().mul_fr(Fr::from_u64(777)).to_affine(), g2);
    substrate::forall!(cases = 2, |g| {
        let p = g1_generator().mul_fr(arb_fr(g)).to_affine();
        let q = g2_generator().mul_fr(arb_fr(g)).to_affine();
        check(p, q);
    });
}

#[test]
fn fused_line_miller_product_matches_per_term_product() {
    // One to five terms: pairs of lines go sparse × sparse into one dense
    // product, a lone term (and the odd one out) takes the single-line
    // path — so the per-term loops are the unfused oracle.
    substrate::forall!(cases = 6, |g| {
        let n = g.usize_in(1..6);
        let owned: Vec<(G1Affine, pairing::PreparedG2)> = (0..n)
            .map(|_| {
                let p = g1_generator().mul_fr(arb_fr(g)).to_affine();
                let q = g2_generator().mul_fr(arb_fr(g)).to_affine();
                (p, pairing::prepare_g2(&q))
            })
            .collect();
        let terms: Vec<(&G1Affine, &pairing::PreparedG2)> =
            owned.iter().map(|(p, q)| (p, q)).collect();
        let fused = pairing::multi_miller_loop(&terms);
        let unfused = terms
            .iter()
            .fold(Fp12::one(), |f, t| f * pairing::multi_miller_loop(&[*t]));
        assert_eq!(
            pairing::final_exponentiation(fused),
            pairing::final_exponentiation(unfused),
            "{n} terms"
        );
    });
}

// ---- Prepared-key verification vs the reference pairing check -----------

/// The textbook decision: `e(H(m), pk) · e(−σ, g2) == 1` on the affine Tate
/// reference, no tables, no ate loop, no shared anything.
fn reference_verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    let h = hash_to_g1(msg, SIGNATURE_DOMAIN).to_affine();
    reference::pairing_product_is_one(&[(h, pk.0), (sig.0.neg(), g2_generator().to_affine())])
}

#[test]
fn prepared_key_verify_agrees_with_reference_pairing_check() {
    substrate::forall!(cases = 2, |g| {
        let mut keyrng = StdRng::seed_from_u64(g.u64());
        let (sk, other) = (SecretKey::generate(&mut keyrng), SecretKey::generate(&mut keyrng));
        let (pk, msg) = (sk.public_key(), g.bytes(40));
        let sig = sk.sign(&msg);
        // One long-lived key checks every case, so all but the first run
        // against a table built for an earlier message.
        let key = PreparedKey::from(pk);
        let mut tampered = msg.clone();
        tampered.push(1);
        let relabeled = [b"OTHER_LABEL".as_slice(), &msg].concat();
        for (what, m, s) in [
            ("valid", &msg, sig),
            ("tampered payload", &tampered, sig),
            ("wrong label", &relabeled, sig),
            ("another key's signature", &msg, other.sign(&msg)),
            ("identity signature", &msg, Signature(G1Affine::identity())),
        ] {
            let expect = reference_verify(&pk, m, &s);
            assert_eq!(expect, what == "valid", "{what}: reference decision");
            assert_eq!(key.verify(m, &s), expect, "{what}: prepared key");
            assert_eq!(bls::verify(&pk, m, &s), expect, "{what}: throw-away table");
        }
        let identity = PublicKey(G2Affine::identity());
        assert!(!reference_verify(&identity, &msg, &sig));
        assert!(!PreparedKey::from(identity).verify(&msg, &sig), "identity key");
        assert!(!PreparedKey::from(other.public_key()).verify(&msg, &sig), "wrong key");
    });
}

// ---- Batched verification vs per-item verify ----------------------------

#[test]
fn batch_verify_agrees_with_per_item_verify() {
    substrate::forall!(cases = 6, |g| {
        let n = g.usize_in(1..5);
        let mut keyrng = StdRng::seed_from_u64(g.u64());
        let keys: Vec<SecretKey> = (0..n).map(|_| SecretKey::generate(&mut keyrng)).collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| g.bytes(16 + i)).collect();
        let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((k, m), s)| BatchItem::new(k.public_key(), m, *s))
            .collect();
        let per_item = keys
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .all(|((k, m), s)| bls::verify(&k.public_key(), m, s));
        let mut wrng = StdRng::seed_from_u64(g.u64());
        assert!(per_item, "honest per-item verification must pass");
        assert!(
            batch_verify(&items, &mut wrng),
            "batch rejected a batch every item of which verifies"
        );
    });
}

#[test]
fn one_bad_signature_poisons_the_batch() {
    substrate::forall!(cases = 6, |g| {
        let n = g.usize_in(2..6);
        let bad = g.usize_in(0..n);
        let mut keyrng = StdRng::seed_from_u64(g.u64());
        let keys: Vec<SecretKey> = (0..n).map(|_| SecretKey::generate(&mut keyrng)).collect();
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| format!("msg {i}").into_bytes()).collect();
        let mut sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        // Corrupt exactly one signature: a valid group element signed over
        // the wrong message (the hardest corruption to detect — subgroup
        // and on-curve checks cannot catch it).
        sigs[bad] = keys[bad].sign(b"a different message entirely");
        let items: Vec<BatchItem<'_>> = keys
            .iter()
            .zip(&msgs)
            .zip(&sigs)
            .map(|((k, m), s)| BatchItem::new(k.public_key(), m, *s))
            .collect();
        let mut wrng = StdRng::seed_from_u64(g.u64());
        assert!(
            !batch_verify(&items, &mut wrng),
            "batch accepted despite one bad signature at index {bad}"
        );
        // Per-item verification pinpoints exactly the culprit.
        for (i, ((k, m), s)) in keys.iter().zip(&msgs).zip(&sigs).enumerate() {
            assert_eq!(bls::verify(&k.public_key(), m, s), i != bad);
        }
    });
}

#[test]
fn batch_weights_consume_rng_deterministically() {
    // Two verifications from equal seeds agree; the RNG draw count is fixed
    // by the batch size (2 draws per item past the first), so an unrelated
    // consumer after the batch sees a deterministic stream too.
    let mut keyrng = StdRng::seed_from_u64(77);
    let keys: Vec<SecretKey> = (0..3).map(|_| SecretKey::generate(&mut keyrng)).collect();
    let msgs = [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()];
    let sigs: Vec<_> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
    let items: Vec<BatchItem<'_>> = keys
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((k, m), s)| BatchItem::new(k.public_key(), m, *s))
        .collect();
    let mut r1 = StdRng::seed_from_u64(5);
    let mut r2 = StdRng::seed_from_u64(5);
    assert_eq!(batch_verify(&items, &mut r1), batch_verify(&items, &mut r2));
    assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams diverged");
}

// ---- The signing hash feeding all of the above --------------------------

#[test]
fn hash_to_g1_lands_in_the_prime_order_subgroup() {
    substrate::forall!(cases = 8, |g| {
        let msg = g.bytes(24);
        let h = hash_to_g1(&msg, "DIFF_TEST");
        assert!(!h.is_identity(), "hash_to_g1 produced the identity");
        assert!(h.mul_limbs(&Fr::MODULUS).is_identity(), "hash escaped the subgroup");
    });
}

// ---- Feldman VSS and share redistribution vs the var-base formulas ------
//
// The shipped commitments multiply the generator through its fixed-base
// table, evaluate in the exponent by Horner's rule over small-index ladders,
// and combine reshared coefficients in one multi-scalar sum; the oracle is
// the textbook formula with every product a binary ladder.

/// A recipient set drawn from `1..=64`: sometimes contiguous from 1, as at
/// bootstrap, sometimes with gaps, as after a removal.
fn arb_indices(g: &mut Gen, len: usize) -> Vec<u32> {
    let mut set = std::collections::BTreeSet::new();
    if g.bool() {
        set.extend(1..=len as u32);
    }
    while set.len() < len {
        set.insert(g.u32_in(1..65));
    }
    set.into_iter().collect()
}

#[test]
fn feldman_fast_paths_match_var_base_formulas() {
    use crate::feldman::Commitment;
    use crate::shamir::{Polynomial, Share};
    let check = |poly: &Polynomial, indices: &[u32]| {
        let commitment = Commitment::commit(poly);
        let oracle = reference::feldman_commit(poly);
        assert_eq!(commitment.points(), &oracle[..], "degree {}", poly.degree());
        for &index in indices {
            let share = Share { index, value: poly.eval_at_index(index) };
            assert_eq!(commitment.eval_in_exponent(index), reference::feldman_eval(&oracle, index));
            assert!(commitment.verify_share(&share) && reference::feldman_verify(&oracle, &share));
            // A share off by one, in value or (unless the polynomial is
            // constant) in index, is still refused.
            let value = Share { index, value: share.value + Fr::one() };
            let shifted = Share { index: index + 1, value: share.value };
            let bad = if poly.degree() == 0 { vec![value] } else { vec![value, shifted] };
            for bad in bad {
                assert!(!commitment.verify_share(&bad), "{bad:?} accepted");
                assert!(!reference::feldman_verify(&oracle, &bad));
            }
        }
    };
    substrate::forall!(cases = 10, |g| {
        let degree = g.usize_in(0..5);
        let poly = Polynomial::random(arb_fr(g), degree, g.rng());
        let indices = arb_indices(g, 3);
        check(&poly, &indices);
    });
    let g2 = g2_generator();
    for k in [0, 1, 2, 3, 64, u32::MAX] {
        assert_eq!(g2.mul_small(k), g2.mul_limbs_binary(&[u64::from(k)]), "k = {k}");
    }
    let mut rng = StdRng::seed_from_u64(0xfe1d);
    for degree in 0..5 {
        let poly = Polynomial::random(Fr::random(&mut rng), degree, &mut rng);
        check(&poly, &[1, 2, 4, 5, 64]);
    }
}

#[test]
fn reshared_commitment_is_the_lambda_weighted_sum_of_dealings() {
    use crate::dkg::{run_trusted_dealer_free, DkgConfig};
    use crate::reshare::{combine_reshare, deal_reshare_to};
    use crate::shamir::lagrange_at_zero;
    substrate::forall!(cases = 3, |g| {
        let old_n = g.u32_in(4..8);
        let old = run_trusted_dealer_free(old_n, (old_n - 1) / 3, g.rng()).unwrap();
        // Any old_t + 1 (or more) old members deal, not only the first.
        let quorum = old.group.config.quorum() as usize;
        let dealers = g.usize_in(quorum..old_n as usize + 1);
        let mut old_members: Vec<_> = old.participants.iter().collect();
        while old_members.len() > dealers {
            old_members.remove(g.usize_in(0..old_members.len()));
        }
        let new_n = g.usize_in(4..8);
        let recipients = arb_indices(g, new_n);
        let new_cfg = DkgConfig::new(new_n as u32, (new_n as u32 - 1) / 3).unwrap();
        let dealings: Vec<_> = old_members
            .iter()
            .map(|p| deal_reshare_to(&p.share, new_cfg.t, &recipients, g.rng()))
            .collect();
        let lambdas = lagrange_at_zero(&dealings.iter().map(|d| d.dealer).collect::<Vec<_>>()).unwrap();
        let oracle: Vec<_> = (0..=new_cfg.t as usize)
            .map(|k| {
                Projective::sum(dealings.iter().zip(&lambdas).map(|(d, l)| {
                    d.commitment.points()[k].mul_limbs_binary(&l.to_raw())
                }))
            })
            .collect();
        let (group, shares) = combine_reshare(&dealings, &old.group, new_cfg, &recipients).unwrap();
        assert_eq!(group.commitment.points(), &oracle[..]);
        assert_eq!(group.public_key(), old.group_public_key, "the group key moved");
        for (&me, share) in recipients.iter().zip(&shares) {
            let share = crate::shamir::Share { index: me, value: share.secret_fr() };
            assert!(reference::feldman_verify(&oracle, &share));
        }
    });
}

use crate::feldman::Commitment;
use crate::shamir::Share;

/// The ways a dealing is tampered with in the test below.
const TAMPERS: [&str; 11] = [
    "honest",
    "one share off by one",
    "a missing share",
    "a duplicate index in place of another",
    "a wrong share ahead of the right one",
    "a wrong share behind the right one",
    "the wrong degree",
    "shares of a higher degree under a truncated commitment",
    "one commitment point doubled",
    "points swapped between two dealings",
    "a forged constant term (reshare only)",
];

/// Tampers with a dealing of degree `t` as `TAMPERS[kind]` says; `other`
/// is a second dealing's commitment. The caller deals kinds 6 and 7 at
/// another degree and forges kind 10's constant term.
fn tamper(
    g: &mut Gen,
    kind: usize,
    t: usize,
    (commitment, shares): (&mut Commitment, &mut Vec<Share>),
    other: &mut Commitment,
) {
    let i = g.usize_in(0..shares.len());
    let j = (i + g.usize_in(1..shares.len())) % shares.len();
    let wrong = Share { index: shares[j].index, value: arb_fr(g) };
    let k = g.usize_in(0..t + 1);
    let mut points = commitment.points().to_vec();
    match kind {
        1 => shares[i].value += Fr::one(),
        2 => drop(shares.remove(i)),
        3 => shares[i].index = shares[j].index,
        4 => shares.insert(0, wrong),
        5 => shares.push(wrong),
        7 => points.truncate(t + 1),
        8 => points[k] = points[k].double(),
        9 => {
            let mut theirs = other.points().to_vec();
            std::mem::swap(&mut points[k], &mut theirs[k]);
            *other = Commitment::from_points(theirs);
        }
        _ => {}
    }
    *commitment = Commitment::from_points(points);
}

/// A dealing-wide check decides as the per-share checks it replaces: a DKG
/// dealing passes `verify_whole_dealing` iff `verify_dealing` finds no
/// fault for any of participants `1..=n`, and `complaint_round` lodges
/// exactly the complaints of checking each share; a reshare dealing passes
/// `verify_whole_reshare_dealing` iff `verify_reshare_dealing` holds for
/// each recipient. Over n ∈ {4, 5, 7, 10} and every tamper of [`TAMPERS`].
#[test]
fn whole_dealing_checks_decide_as_the_share_checks_do() {
    use crate::dkg::{self, deal, verify_dealing, DkgConfig};
    use crate::reshare::{deal_reshare_to, verify_reshare_dealing, verify_whole_reshare_dealing};
    let mut rng = StdRng::seed_from_u64(0xdea1);
    let old = dkg::run_trusted_dealer_free(4, 1, &mut rng).unwrap();
    let cases: Vec<(u32, usize)> =
        [4, 5, 7, 10].into_iter().flat_map(|n| (0..TAMPERS.len()).map(move |kind| (n, kind))).collect();
    substrate::forall!(cases = 2, |g| {
        for &(n, kind) in &cases {
            let cfg = DkgConfig::byzantine(n).unwrap();
            let t = cfg.t as usize;
            // The first dealing is the tampered one; a wrong degree is one
            // below for even n, one above for odd.
            let degree = |first: bool| match kind {
                6 if first && n % 2 == 0 => cfg.t - 1,
                6 | 7 if first => cfg.t + 1,
                _ => cfg.t,
            };
            let what = format!("n = {n}, {}", TAMPERS[kind]);

            let mut dealings: Vec<_> =
                (1..=3).map(|i| deal(DkgConfig { n, t: degree(i == 1) }, i, g.rng())).collect();
            let (victim, rest) = dealings.split_first_mut().unwrap();
            tamper(g, kind, t, (&mut victim.commitment, &mut victim.shares), &mut rest[0].commitment);
            let mut per_share = Vec::new();
            for dealing in &dealings {
                let faults: Vec<_> = (1..=n).filter_map(|me| verify_dealing(cfg, me, dealing)).collect();
                let whole = dkg::verify_whole_dealing(cfg, dealing);
                assert_eq!(whole, faults.is_empty(), "{what}");
                assert!(whole || kind != 0, "{what}");
                per_share.extend(faults);
            }
            let key = |c: &dkg::Complaint| (c.dealer, c.complainer);
            let mut got: Vec<_> = dkg::complaint_round(cfg, &dealings).iter().map(key).collect();
            let mut want: Vec<_> = per_share.iter().map(key).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{what}");

            let recipients = arb_indices(g, n as usize);
            let mut dealings: Vec<_> = old.participants[..2]
                .iter()
                .enumerate()
                .map(|(i, p)| deal_reshare_to(&p.share, degree(i == 0), &recipients, g.rng()))
                .collect();
            let (victim, rest) = dealings.split_first_mut().unwrap();
            tamper(g, kind, t, (&mut victim.commitment, &mut victim.shares), &mut rest[0].commitment);
            if kind == 10 {
                dealings[0] = dealings[0].clone().with_forged_constant();
            }
            for dealing in &dealings {
                let each = recipients.iter().all(|&me| verify_reshare_dealing(dealing, &old.group, cfg, me));
                let whole = verify_whole_reshare_dealing(dealing, &old.group, cfg, &recipients);
                assert_eq!(whole, each, "{what}");
                assert!(whole || kind != 0, "{what}");
            }
        }
    });
}

/// One DKG (n = 4, t = 1, seed 3) and one redistribution 4 → 5 from it:
/// every share, commitment point, qualified set and group key, and the next
/// draw of the shared rng (so the ceremonies draw exactly as before),
/// hashed. The digest was recorded from the var-base implementation the
/// fast paths replaced.
#[test]
fn ceremonies_reproduce_the_recorded_outputs() {
    use crate::dkg::{run_trusted_dealer_free, DkgConfig, DkgOutput};
    use crate::reshare::run_reshare;
    use crate::sha256::Sha256;
    fn feed(h: &mut Sha256, out: &DkgOutput) {
        h.update(&out.group_public_key.to_bytes());
        for p in out.group.commitment.points() {
            h.update(&p.to_affine().to_bytes());
        }
        for q in &out.group.qualified {
            h.update(&q.to_le_bytes());
        }
        for p in &out.participants {
            h.update(&p.index.to_le_bytes());
            h.update(&p.share.secret_fr().to_bytes_be());
        }
    }
    let mut rng = StdRng::seed_from_u64(3);
    let dkg = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
    let reshared = run_reshare(&dkg, DkgConfig::byzantine(5).unwrap(), &mut rng).unwrap();
    let mut h = Sha256::new();
    feed(&mut h, &dkg);
    feed(&mut h, &reshared);
    h.update(&rng.next_u64().to_le_bytes());
    let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "2a2a71e7c5f0a3c182d1d490755b598e62c93f796ddaed3b7d96c321a2fea910");
}
