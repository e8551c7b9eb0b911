//! Reference (slow, auditable) implementations: the crate's independent test
//! oracle for the shipped arithmetic in [`crate::pairing`], [`crate::tower`]
//! and [`crate::curves`]. Compiled for `cargo test` only.
//!
//! Everything in this module favours textbook clarity over speed:
//!
//! * **Tate, not ate.** The Miller loop runs over the group order `r` with
//!   the running point `T = [k]P` kept in *affine `Fp` coordinates*, so the
//!   line functions are textbook chord-and-tangent formulas with `Fp`
//!   coefficients — no twisted line-coefficient bookkeeping to get wrong,
//!   and nothing shared with the ate loop it checks.
//! * **Denominator elimination.** `Q` is the untwist of a `G2` point, whose
//!   x-coordinate lies in `Fp6`; vertical lines therefore evaluate into
//!   `Fp6*`, which the final exponentiation annihilates (the exponent
//!   contains the factor `p⁶ - 1`), so they are skipped.
//! * **Naive final exponentiation.** The easy part is
//!   `f ↦ conj(f)·f⁻¹ = f^(p⁶-1)`; the remaining exponent `(p⁶+1)/r` is
//!   computed once with [`crate::bigint`] and applied by square-and-multiply
//!   instead of the easily-mistyped cyclotomic addition chains.
//! * **Schoolbook tower products.** `fp2_mul_schoolbook` /
//!   `fp6_mul_schoolbook` / `fp12_square_via_mul` spell out the naive
//!   convolutions the lazy-reduction Karatsuba fast paths must match.
//! * **Binary ladder.** `mul_limbs_binary` is plain double-and-add, against
//!   the shared-doubling wNAF of [`Projective::sum_of_products`].
//! * **Var-base Feldman.** `feldman_commit` / `feldman_eval` /
//!   `feldman_verify` are the textbook formulas — `A_k = g2·a_k`,
//!   `Σ A_k·i^k` with `i^k` reduced in `Fr`, and `g2·s == Σ A_k·i^k` — every
//!   product a binary ladder, against the fixed-base table and Horner's rule
//!   of [`crate::feldman`].
//!
//! What [`crate::differential`] holds the shipped code to: tower products,
//! scalar multiplications and (while it lasts — see there) the final
//! exponentiation *bit-identical* to these functions; the ate pairing
//! *decision-identical* to [`pairing_product_is_one`], whose value
//! [`pairing`] the conformance fixture's `pairing_digest` pins in turn.

use crate::bigint::BigUint;
use crate::curves::{g2_generator, CurveParams, G1Affine, G2Affine, G2Projective, Projective};
use crate::fields::{Fp, Fr};
use crate::shamir::{Polynomial, Share};
use crate::tower::{Field, Fp12, Fp2, Fp6};
use std::sync::OnceLock;

/// The untwisted image of a `G2` point: a point of `E(Fp12)` with
/// x-coordinate in the `Fp6` subfield.
#[derive(Clone, Copy, Debug)]
struct UntwistedQ {
    x: Fp12,
    y: Fp12,
}

/// Maps a point of the twist `E'(Fp2)` to `E(Fp12)`:
/// `(x, y) ↦ (x·w⁻², y·w⁻³)` for the M-type twist `y² = x³ + b·ξ`.
fn untwist(q: &G2Affine) -> UntwistedQ {
    // w² = v, so w⁻² = v⁻¹ and w⁻³ = v⁻² · w (since w⁻¹ = w·v⁻¹).
    let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
    let v_inv = v.invert().expect("v is invertible");
    let w_inv2 = Fp12::from_fp6(v_inv);
    let w_inv3 = Fp12::new(Fp6::zero(), v_inv * v_inv);
    let xq = Fp12::from_fp2(q.x) * w_inv2;
    let yq = Fp12::from_fp2(q.y) * w_inv3;
    UntwistedQ { x: xq, y: yq }
}

/// Evaluates the line through `t` and `s` (affine `G1` points) at `q`,
/// with vertical lines eliminated (returning `1`).
fn line_eval(t: &G1Affine, s: &G1Affine, q: &UntwistedQ) -> Fp12 {
    if t.infinity || s.infinity {
        return Fp12::one();
    }
    let lambda = if t.x == s.x {
        if t.y == s.y && !t.y.is_zero() {
            // Tangent: λ = 3x² / 2y.
            let num = t.x.square().double() + t.x.square();
            num * t.y.double().invert().expect("y != 0")
        } else {
            // Vertical line: eliminated by the final exponentiation.
            return Fp12::one();
        }
    } else {
        (s.y - t.y) * (s.x - t.x).invert().expect("x coords differ")
    };
    // l(Q) = (yQ - yT) - λ (xQ - xT) = yQ - λ·xQ + (λ·xT - yT)
    q.y + q.x.mul_by_fp(-lambda) + Fp12::from_fp(lambda * t.x - t.y)
}

/// Affine chord-and-tangent addition on `E(Fp)` (slow, pairing-internal).
fn affine_add(a: &G1Affine, b: &G1Affine) -> G1Affine {
    a.to_projective().add(&b.to_projective()).to_affine()
}

/// Miller loop `f_{r,P}(untwist(Q))` with denominator elimination.
pub(crate) fn miller_loop(p: &G1Affine, q: &G2Affine) -> Fp12 {
    if p.infinity || q.infinity {
        return Fp12::one();
    }
    let q = untwist(q);
    let mut f = Fp12::one();
    let mut t = *p;
    let r = Fr::MODULUS;
    let bits = 64 * r.len() - r[r.len() - 1].leading_zeros() as usize;
    for i in (0..bits - 1).rev() {
        f = f.square() * line_eval(&t, &t, &q);
        t = affine_add(&t, &t);
        if (r[i / 64] >> (i % 64)) & 1 == 1 {
            f = f * line_eval(&t, p, &q);
            t = affine_add(&t, p);
        }
    }
    debug_assert!(t.infinity, "Miller loop must end at the identity");
    f
}

/// The hard exponent `(p⁶ + 1) / r`, computed once.
pub(crate) fn hard_exponent() -> &'static BigUint {
    static EXP: OnceLock<BigUint> = OnceLock::new();
    EXP.get_or_init(|| {
        let p = BigUint::from_limbs_le(&Fp::MODULUS);
        let r = BigUint::from_limbs_le(&Fr::MODULUS);
        let p6 = p.pow(6);
        let (q, rem) = p6.add(&BigUint::one()).div_rem(&r);
        assert!(rem.is_zero(), "r must divide p^6 + 1");
        q
    })
}

/// The final exponentiation `f ↦ f^((p¹² - 1) / r)` by plain
/// square-and-multiply over the precomputed hard exponent.
pub(crate) fn final_exponentiation(f: Fp12) -> Fp12 {
    // Easy part: f^(p⁶ - 1) = conj(f) · f⁻¹ (f != 0 for Miller outputs).
    let f1 = f.conjugate() * f.invert().expect("Miller loop output is non-zero");
    // Hard part: exponent (p⁶ + 1)/r.
    f1.pow(hard_exponent().limbs())
}

/// The reduced Tate pairing, computed the slow way.
pub(crate) fn pairing(p: &G1Affine, q: &G2Affine) -> Fp12 {
    final_exponentiation(miller_loop(p, q))
}

/// Checks `∏ e(Pᵢ, Qᵢ) == 1` sharing a single final exponentiation, using
/// the affine reference Miller loop.
pub(crate) fn pairing_product_is_one(pairs: &[(G1Affine, G2Affine)]) -> bool {
    let mut f = Fp12::one();
    for (p, q) in pairs {
        f = f * miller_loop(p, q);
    }
    final_exponentiation(f) == Fp12::one()
}

/// Schoolbook `Fp2` product `(a0 + a1·u)(b0 + b1·u)` with `u² = -1`:
/// four `Fp` multiplications, no Karatsuba, no lazy reduction.
pub(crate) fn fp2_mul_schoolbook(a: Fp2, b: Fp2) -> Fp2 {
    Fp2::new(a.c0 * b.c0 - a.c1 * b.c1, a.c0 * b.c1 + a.c1 * b.c0)
}

/// Schoolbook `Fp6` product: the direct degree-2 convolution over
/// `Fp2[v]/(v³ - ξ)`, reducing `v³ ↦ ξ` and `v⁴ ↦ ξ·v` term by term.
pub(crate) fn fp6_mul_schoolbook(a: Fp6, b: Fp6) -> Fp6 {
    let c0 = a.c0 * b.c0 + (a.c1 * b.c2 + a.c2 * b.c1).mul_by_xi();
    let c1 = a.c0 * b.c1 + a.c1 * b.c0 + (a.c2 * b.c2).mul_by_xi();
    let c2 = a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0;
    Fp6::new(c0, c1, c2)
}

/// `Fp12` squaring through the general multiplication routine, bypassing
/// both the complex-squaring shortcut and the cyclotomic fast path.
pub(crate) fn fp12_square_via_mul(a: Fp12) -> Fp12 {
    let c0 = a.c0 * a.c0 + (a.c1 * a.c1).mul_by_v();
    let c1 = a.c0 * a.c1 + a.c1 * a.c0;
    Fp12::new(c0, c1)
}

impl<C: CurveParams> Projective<C> {
    /// Plain binary double-and-add scalar multiplication.
    pub(crate) fn mul_limbs_binary(&self, limbs: &[u64]) -> Self {
        let mut acc = Projective::identity();
        for i in (0..limbs.len() * 64).rev() {
            acc = acc.double();
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }
}

/// `[g2·a_0, g2·a_1, …]`, each a binary ladder from the generator.
pub(crate) fn feldman_commit(poly: &Polynomial) -> Vec<G2Projective> {
    let g2 = g2_generator();
    poly.coeffs().iter().map(|c| g2.mul_limbs_binary(&c.to_raw())).collect()
}

/// `Σ A_k · index^k`, the power `index^k` taken as a full `Fr` scalar.
pub(crate) fn feldman_eval(points: &[G2Projective], index: u32) -> G2Projective {
    let x = Fr::from_index(index);
    let mut x_pow = Fr::one();
    let mut acc = G2Projective::identity();
    for point in points {
        acc = acc.add(&point.mul_limbs_binary(&x_pow.to_raw()));
        x_pow *= x;
    }
    acc
}

/// Feldman's check, `g2 · s == Σ A_k · i^k`.
pub(crate) fn feldman_verify(points: &[G2Projective], share: &Share) -> bool {
    g2_generator().mul_limbs_binary(&share.value.to_raw()) == feldman_eval(points, share.index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{g1_generator, g2_generator};
    use substrate::rng::{SeedableRng, StdRng};

    #[test]
    fn reference_pairing_is_non_degenerate() {
        let g1 = g1_generator().to_affine();
        let g2 = g2_generator().to_affine();
        let e = pairing(&g1, &g2);
        assert_ne!(e, Fp12::one());
        assert_eq!(e.pow(&Fr::MODULUS), Fp12::one());
    }

    #[test]
    fn schoolbook_helpers_match_operators() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for _ in 0..8 {
            let a2 = Fp2::random(&mut rng);
            let b2 = Fp2::random(&mut rng);
            assert_eq!(fp2_mul_schoolbook(a2, b2), a2 * b2);
            let a6 = Fp6::new(
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
            );
            let b6 = Fp6::new(
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
            );
            assert_eq!(fp6_mul_schoolbook(a6, b6), a6 * b6);
            let a12 = Fp12::new(a6, b6);
            assert_eq!(fp12_square_via_mul(a12), a12.square());
        }
    }
}
