//! The ate pairing `e : G1 × G2 → μ_r ⊂ Fp12*` over prepared `G2` line
//! tables — the one pairing this crate ships.
//!
//! [`multi_miller_loop`] runs the short loop `|x| = 0xd201_0000_0001_0000`
//! (64 bits against the 255 of the group order `r`) with the `G2` point as
//! the loop variable, so every line it evaluates depends on that point alone
//! and [`prepare_g2`] tabulates them once: a [`PreparedG2`] for a fixed
//! public key ([`crate::bls::PreparedKey`] owns one) or the `g2` generator
//! is reused across verifications. Terms are taken two at a time: their
//! lines are multiplied sparse × sparse before one dense product into the
//! accumulator. The running point is Jacobian and the lines are *scaled* —
//! the denominators `2YZ³` and `Z·H` are multiplied through instead of
//! inverted; the factors lie in `Fp2* ⊂ Fp6*` and the final exponent
//! `(p¹²-1)/r` is divisible by `p⁶-1`, so they vanish.
//!
//! [`final_exponentiation`] uses the BLS12 hard-part factorization
//! `(p⁴-p²+1)/r = (x-1)²·(x+p)·(x²+p²-1)/3 + 1` with Granger–Scott
//! cyclotomic squarings and an addition chain for the one dense exponent
//! `(|x|+1)/3`.
//!
//! **Contract.** [`pairing`] is bilinear, non-degenerate on `G1 × G2`, takes
//! values of order `r`, and maps an identity in either slot to `1`; a product
//! check ([`pairing_product_is_one_prepared`]) is *decision-identical* to
//! the same check on the reduced Tate pairing. The value itself is not
//! contractual: the ate value is a fixed power, coprime to `r`, of the Tate
//! value. The affine Tate pairing with a 4600-bit square-and-multiply final
//! exponentiation is kept as the test oracle (`reference.rs`, compiled for
//! `cargo test` only), and the in-crate differential suite pins exactly this
//! contract to it.

use crate::curves::{G1Affine, G2Affine, X_ABS};
use crate::tower::{Field, Fp12, Fp2};
use std::sync::OnceLock;

/// Cyclotomic exponentiation by a positive little-endian exponent:
/// square-and-multiply with Granger–Scott squarings. Valid only for
/// elements of the cyclotomic subgroup `G_{Φ₁₂}`.
fn cyclotomic_pow(g: &Fp12, exp: &[u64]) -> Fp12 {
    let mut acc = Fp12::one();
    let mut started = false;
    for &limb in exp.iter().rev() {
        for i in (0..64).rev() {
            if started {
                acc = acc.cyclotomic_square();
            }
            if (limb >> i) & 1 == 1 {
                acc = acc * *g;
                started = true;
            }
        }
    }
    acc
}

/// `g^((|x|+1)/3) = g^0x4600_5555_5555_aaab` in the cyclotomic subgroup, by
/// an addition chain: the exponent has Hamming weight 28 but is `0x46`, a
/// zero byte, four bytes `0x55`, and `0xaaab = 0b1010101_01010101_1` —
/// six multiplications by `g^0x55` instead of twenty-five by `g`
/// (11 multiplications and 66 squarings against 27 and 62).
fn pow_x_plus_one_third(g: &Fp12) -> Fp12 {
    let sq = |mut f: Fp12, n: usize| {
        for _ in 0..n {
            f = f.cyclotomic_square();
        }
        f
    };
    let g2 = sq(*g, 1);
    let g4 = sq(g2, 1);
    let g55 = {
        let g5 = g4 * *g;
        sq(g5, 4) * g5
    };
    let mut acc = sq(sq(g4, 3) * g2 * *g, 1); // 0x46 = 2·(32 + 3)
    acc = sq(acc, 16) * g55; // 0x46_00_55
    for _ in 0..3 {
        acc = sq(acc, 8) * g55; // …_55
    }
    acc = sq(acc, 7) * g55; // …_1010101
    acc = sq(acc, 8) * g55; // …_01010101
    sq(acc, 1) * *g // …_1
}

/// The final exponentiation `f ↦ f^((p¹² - 1) / r)`.
///
/// Easy part `(p⁶-1)(p²+1)` by conjugation, one inversion and two Frobenius
/// maps; hard part `(p⁴-p²+1)/r` through the BLS12 addition chain
/// `m^((x-1)²/3 · (x+p) · (x²+p²-1)) · m` where every inversion is a
/// conjugation (the input is in the cyclotomic subgroup after the easy
/// part).
pub fn final_exponentiation(f: Fp12) -> Fp12 {
    // Easy part: f^((p⁶-1)(p²+1)).
    let f1 = f.conjugate() * f.invert().expect("Miller loop output is non-zero");
    let m = f1.frobenius_map().frobenius_map() * f1;
    // Hard part, with x = -X_ABS (so x-1 = -(X_ABS+1) and (x-1)² > 0):
    // a = m^((|x|+1)/3), b = a^(|x|+1) = m^((x-1)²/3).
    let a = pow_x_plus_one_third(&m);
    let b = cyclotomic_pow(&a, &[X_ABS + 1]);
    // c = b^(x+p): b^x = (b^|x|)⁻¹ = conj(b^|x|) inside G_{Φ₁₂}.
    let c = cyclotomic_pow(&b, &[X_ABS]).conjugate() * b.frobenius_map();
    // d = c^(x²+p²-1); x² = |x|² needs no sign fix-up.
    let d = cyclotomic_pow(&cyclotomic_pow(&c, &[X_ABS]), &[X_ABS])
        * c.frobenius_map().frobenius_map()
        * c.conjugate();
    d * m
}

/// The ate pairing `e(P, Q)`.
///
/// Bilinear and non-degenerate on `G1 × G2`, of order `r`; `e(P, Q) = 1`
/// whenever either argument is the identity. To pair against the same `Q`
/// more than once, keep its [`PreparedG2`] and call [`multi_miller_loop`].
///
/// # Examples
///
/// ```
/// use blscrypto::curves::{g1_generator, g2_generator};
/// use blscrypto::pairing::pairing;
/// use blscrypto::tower::Field;
///
/// let e = pairing(&g1_generator().to_affine(), &g2_generator().to_affine());
/// assert_ne!(e, blscrypto::tower::Fp12::one());
/// ```
pub fn pairing(p: &G1Affine, q: &G2Affine) -> Fp12 {
    final_exponentiation(multi_miller_loop(&[(p, &prepare_g2(q))]))
}

/// Precomputed ate line coefficients for a fixed `G2` point.
///
/// The ate Miller loop runs over the short parameter `|x|` with the `G2`
/// point as the loop variable; every line it will ever evaluate depends only
/// on `Q`, so [`prepare_g2`] tabulates them once (63 doublings + 5
/// additions) and [`multi_miller_loop`] replays them against any number of
/// `G1` arguments. This is what makes verifying against a fixed public key
/// or the `g2` generator cheap.
#[derive(Clone, Debug)]
pub struct PreparedG2 {
    infinity: bool,
    /// `(e0, e1, e2)` per step: the scaled line evaluated at `P = (x_p, y_p)`
    /// embeds as `e0·w + (e1·x_p)·v·w + (e2·y_p)·v²`.
    coeffs: Vec<(Fp2, Fp2, Fp2)>,
}

/// The ate loop's running point on the twist `E'(Fp2)`, Jacobian.
struct G2Runner {
    x: Fp2,
    y: Fp2,
    z: Fp2,
}

impl G2Runner {
    /// Tangent line coefficients at `T`, scaled by `2YZ³`, then `T ← 2T`.
    /// The short loop never meets a vertical tangent (|x| ≪ r and `T` has
    /// odd order), so there is no degenerate case.
    fn doubling_step(&mut self) -> (Fp2, Fp2, Fp2) {
        debug_assert!(!self.y.is_zero(), "odd-order point cannot be 2-torsion");
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let m = xx.double() + xx;
        let e2 = (self.y * self.z * zz).double(); // 2YZ³
        let e1 = -(m * zz); // -3X²Z²
        let e0 = m * self.x - yy.double(); // 3X³ - 2Y²
        let s = (self.x * yy).double().double();
        let x3 = m.square() - s.double();
        let y3 = m * (s - x3) - yy.square().double().double().double();
        let z3 = (self.y * self.z).double();
        self.x = x3;
        self.y = y3;
        self.z = z3;
        (e0, e1, e2)
    }

    /// Chord line through `T` and the affine anchor `q`, scaled by `Z·H`
    /// with `H = x_q·Z² - X`, then `T ← T + q` (madd-2007-bl).
    fn addition_step(&mut self, q: &G2Affine) -> (Fp2, Fp2, Fp2) {
        let zz = self.z.square();
        let u2 = q.x * zz;
        let s2 = q.y * zz * self.z;
        let h = u2 - self.x;
        let r_ = s2 - self.y;
        debug_assert!(!h.is_zero(), "ate loop never adds T = ±Q");
        let e2 = self.z * h; // Z·H
        let e1 = -r_;
        let e0 = r_ * q.x - e2 * q.y;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let rr2 = r_.double();
        let v = self.x * i;
        let x3 = rr2.square() - j - v.double();
        let y3 = rr2 * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - zz - hh;
        self.x = x3;
        self.y = y3;
        self.z = z3;
        (e0, e1, e2)
    }
}

/// Tabulates the ate Miller loop's line coefficients for `q`.
pub fn prepare_g2(q: &G2Affine) -> PreparedG2 {
    if q.infinity {
        return PreparedG2 {
            infinity: true,
            coeffs: Vec::new(),
        };
    }
    let mut t = G2Runner {
        x: q.x,
        y: q.y,
        z: Fp2::one(),
    };
    let mut coeffs = Vec::with_capacity(68);
    for i in (0..63).rev() {
        coeffs.push(t.doubling_step());
        if (X_ABS >> i) & 1 == 1 {
            coeffs.push(t.addition_step(q));
        }
    }
    PreparedG2 {
        infinity: false,
        coeffs,
    }
}

/// The `g2` generator's line table, shared by every BLS verification
/// (`e(H(m), pk) · e(-σ, g2)` always pairs against `g2`).
pub fn g2_generator_prepared() -> &'static PreparedG2 {
    static PREP: OnceLock<PreparedG2> = OnceLock::new();
    PREP.get_or_init(|| prepare_g2(&crate::curves::g2_generator().to_affine()))
}

/// Product of ate Miller loops `∏ f_{|x|,Qᵢ}(Pᵢ)`, sharing the `Fp12`
/// squarings across all terms; conjugated once at the end because the BLS12
/// parameter `x` is negative.
///
/// Only the final exponentiation of this value means anything: the raw
/// product carries the line-scaling factors that the exponent kills.
pub fn multi_miller_loop(terms: &[(&G1Affine, &PreparedG2)]) -> Fp12 {
    let active: Vec<&(&G1Affine, &PreparedG2)> = terms
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .collect();
    // All terms' lines of table row `idx` into `f`, two lines per dense
    // product ([`Fp12::mul_by_ate_line_pair`]); an odd term rides alone.
    let step = |mut f: Fp12, idx: usize| {
        let line = |(p, q): &(&G1Affine, &PreparedG2)| {
            let (e0, e1, e2) = q.coeffs[idx];
            (e2.mul_by_fp(p.y), e0, e1.mul_by_fp(p.x))
        };
        let pairs = active.chunks_exact(2);
        if let [a] = pairs.remainder() {
            f = f.mul_by_ate_line(line(a));
        }
        for pair in pairs {
            f = f.mul_by_ate_line_pair(line(&pair[0]), line(&pair[1]));
        }
        f
    };
    let mut f = Fp12::one();
    let mut idx = 0;
    for i in (0..63).rev() {
        f = step(f.square(), idx);
        idx += 1;
        if (X_ABS >> i) & 1 == 1 {
            f = step(f, idx);
            idx += 1;
        }
    }
    f.conjugate()
}

/// Checks `∏ e(Pᵢ, Qᵢ) == 1` with precomputed `G2` tables — the workhorse
/// of BLS verification (`e(H(m), pk) · e(-σ, g2) == 1`).
///
/// Decision-identical to the same product on the reduced Tate pairing: the
/// ate product is a fixed power (coprime to `r`) of the Tate product, and
/// `μ_r` has prime order, so one side is `1` exactly when the other is.
pub fn pairing_product_is_one_prepared(terms: &[(&G1Affine, &PreparedG2)]) -> bool {
    final_exponentiation(multi_miller_loop(terms)) == Fp12::one()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{g1_generator, g2_generator, G1Projective, G2Projective};
    use crate::fields::Fr;
    use substrate::rng::{SeedableRng, StdRng};

    fn gens() -> (G1Affine, G2Affine) {
        (g1_generator().to_affine(), g2_generator().to_affine())
    }

    /// The contract of [`pairing`] that needs no oracle: non-degenerate, of
    /// order `r`, `e(aP, bQ) = e(P, Q)^{ab}`, identity in either slot ↦ 1.
    #[test]
    fn pairing_is_bilinear_non_degenerate_and_of_order_r() {
        let (g1, g2) = gens();
        let e = pairing(&g1, &g2);
        assert_ne!(e, Fp12::one());
        assert_ne!(e, Fp12::zero());
        assert_eq!(e.pow(&Fr::MODULUS), Fp12::one(), "e(G1, G2) is not in μ_r");
        let check = |a: Fr, b: Fr| {
            let p = g1_generator().mul_fr(a).to_affine();
            let q = g2_generator().mul_fr(b).to_affine();
            assert_eq!(
                pairing(&p, &q),
                e.pow(&(a * b).to_raw()),
                "e({a:?}·P, {b:?}·Q)"
            );
            assert_eq!(pairing(&G1Affine::identity(), &q), Fp12::one());
            assert_eq!(pairing(&p, &G2Affine::identity()), Fp12::one());
        };
        // Linear in each slot alone, then in both at once.
        check(Fr::from_u64(123456789), Fr::one());
        check(Fr::one(), Fr::from_u64(987654321));
        substrate::forall!(cases = 4, |g| {
            check(Fr::from_raw(g.limbs()), Fr::from_raw(g.limbs()));
        });
    }

    #[test]
    fn inverse_in_first_argument() {
        let (g1, g2) = gens();
        let e = pairing(&g1, &g2);
        let e_neg = pairing(&g1.neg(), &g2);
        assert_eq!(e * e_neg, Fp12::one());
    }

    #[test]
    fn product_check_detects_mismatch() {
        let mut rng = StdRng::seed_from_u64(0xabcd);
        let s = Fr::random(&mut rng);
        let (g1, _) = gens();
        let prep_g2 = g2_generator_prepared();
        // e(s·G1, G2) · e(-G1, s·G2) == 1
        let p1 = g1_generator().mul_fr(s).to_affine();
        let prep_q2 = prepare_g2(&g2_generator().mul_fr(s).to_affine());
        let n = g1.neg();
        assert!(pairing_product_is_one_prepared(&[
            (&p1, prep_g2),
            (&n, &prep_q2)
        ]));
        // Tampered pair fails.
        let bad = g1_generator().mul_fr(s + Fr::from_u64(1)).to_affine();
        assert!(!pairing_product_is_one_prepared(&[
            (&bad, prep_g2),
            (&n, &prep_q2)
        ]));
    }

    #[test]
    fn pairing_respects_group_structure_sums() {
        // e(P1 + P2, Q) == e(P1, Q) · e(P2, Q)
        let p1 = g1_generator().mul_fr(Fr::from_u64(11));
        let p2 = g1_generator().mul_fr(Fr::from_u64(31));
        let q = g2_generator().to_affine();
        let lhs = pairing(&G1Projective::add(&p1, &p2).to_affine(), &q);
        let rhs = pairing(&p1.to_affine(), &q) * pairing(&p2.to_affine(), &q);
        assert_eq!(lhs, rhs);
        // and in G2:
        let q1 = g2_generator().mul_fr(Fr::from_u64(7));
        let q2 = g2_generator().mul_fr(Fr::from_u64(13));
        let p = g1_generator().to_affine();
        let lhs = pairing(&p, &G2Projective::add(&q1, &q2).to_affine());
        let rhs = pairing(&p, &q1.to_affine()) * pairing(&p, &q2.to_affine());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn addition_chain_matches_square_and_multiply() {
        // Any cyclotomic element will do: the easy part of a Miller output.
        let (g1, _) = gens();
        let f = multi_miller_loop(&[(&g1, g2_generator_prepared())]);
        let f1 = f.conjugate() * f.invert().unwrap();
        let m = f1.frobenius_map().frobenius_map() * f1;
        assert_eq!(
            pow_x_plus_one_third(&m),
            cyclotomic_pow(&m, &[(X_ABS + 1) / 3])
        );
    }

    #[test]
    fn prepared_g2_reuse_and_identity_terms() {
        let (g1, _) = gens();
        let prep_g2 = g2_generator_prepared();
        let s = Fr::from_u64(424242);
        let p1 = g1_generator().mul_fr(s).to_affine();
        let q2 = g2_generator().mul_fr(s).to_affine();
        let prep_q2 = prepare_g2(&q2);
        let n = g1.neg();
        // e(s·G1, g2) · e(-G1, s·g2) == 1, reusing the static g2 table.
        assert!(pairing_product_is_one_prepared(&[
            (&p1, prep_g2),
            (&n, &prep_q2),
        ]));
        // Identity terms contribute 1 — to the raw Miller product already.
        let id1 = G1Affine::identity();
        let id2 = prepare_g2(&G2Affine::identity());
        assert_eq!(multi_miller_loop(&[(&id1, prep_g2)]), Fp12::one());
        assert_eq!(multi_miller_loop(&[(&g1, &id2)]), Fp12::one());
        assert!(pairing_product_is_one_prepared(&[
            (&id1, prep_g2),
            (&g1, &id2),
        ]));
        assert!(!pairing_product_is_one_prepared(&[(&g1, prep_g2)]));
    }

    #[test]
    fn multi_miller_matches_per_term_ate_product() {
        let mut rng = StdRng::seed_from_u64(0x0a7e);
        let mut terms_owned = Vec::new();
        for _ in 0..3 {
            let a = Fr::random(&mut rng);
            let b = Fr::random(&mut rng);
            let p = g1_generator().mul_fr(a).to_affine();
            let q = g2_generator().mul_fr(b).to_affine();
            terms_owned.push((p, prepare_g2(&q)));
        }
        let terms: Vec<(&G1Affine, &PreparedG2)> =
            terms_owned.iter().map(|(p, q)| (p, q)).collect();
        let joint = multi_miller_loop(&terms);
        let mut split = Fp12::one();
        for t in &terms {
            split = split * multi_miller_loop(&[*t]);
        }
        // Raw products differ only by conjugation bookkeeping order; after
        // the final exponentiation they must agree exactly.
        assert_eq!(final_exponentiation(joint), final_exponentiation(split));
    }
}
