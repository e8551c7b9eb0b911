//! The BLS12-381 extension-field tower: `Fp2 = Fp[u]/(u²+1)`,
//! `Fp6 = Fp2[v]/(v³-ξ)` with `ξ = u + 1`, and `Fp12 = Fp6[w]/(w²-v)`.
//!
//! `Fp12` is the pairing target group's home; `Fp2` hosts the coordinates of
//! `G2`. The small [`Field`] trait lets the curve arithmetic in
//! [`crate::curves`] be generic over `Fp` (for `G1`) and `Fp2` (for `G2`).

use crate::fields::Fp;
use crate::mont::{wide_add, wide_sub};
use std::sync::OnceLock;

/// Minimal field interface shared by all tower levels.
///
/// This trait is sealed in spirit (only tower types implement it); it exists
/// so the short-Weierstrass group law is written once for both `G1` and `G2`.
pub trait Field:
    Copy
    + Clone
    + PartialEq
    + Eq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// `true` iff zero.
    fn is_zero(&self) -> bool;
    /// `self * self`.
    fn square(&self) -> Self;
    /// `self + self`.
    fn double(&self) -> Self;
    /// Multiplicative inverse, `None` for zero.
    fn invert(&self) -> Option<Self>;
    /// Square root, `None` for non-residues.
    fn sqrt(&self) -> Option<Self>;
    /// Multiplication by a base-field (`Fp`) scalar.
    fn mul_by_fp(&self, s: Fp) -> Self;
}

impl Field for Fp {
    fn zero() -> Self {
        Fp::zero()
    }
    fn one() -> Self {
        Fp::one()
    }
    fn is_zero(&self) -> bool {
        Fp::is_zero(self)
    }
    fn square(&self) -> Self {
        Fp::square(self)
    }
    fn double(&self) -> Self {
        Fp::double(self)
    }
    fn invert(&self) -> Option<Self> {
        Fp::invert(self)
    }
    fn sqrt(&self) -> Option<Self> {
        Fp::sqrt(self)
    }
    fn mul_by_fp(&self, s: Fp) -> Self {
        *self * s
    }
}

/// Quadratic extension `Fp2 = Fp[u] / (u² + 1)`.
///
/// # Examples
///
/// ```
/// use blscrypto::tower::{Fp2, Field};
/// let xi = Fp2::xi();
/// assert_eq!(xi * xi.invert().unwrap(), Fp2::one());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Fp2 {
    /// Coefficient of `1`.
    pub c0: Fp,
    /// Coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// Builds an element from its coefficients.
    pub const fn new(c0: Fp, c1: Fp) -> Self {
        Fp2 { c0, c1 }
    }

    /// The sextic non-residue `ξ = u + 1` used to define `Fp6`.
    pub fn xi() -> Self {
        Fp2::new(Fp::one(), Fp::one())
    }

    /// Conjugate `c0 - c1·u` (the Frobenius endomorphism on `Fp2`).
    pub fn conjugate(&self) -> Self {
        Fp2::new(self.c0, -self.c1)
    }

    /// Norm `c0² + c1²` (an `Fp` element).
    pub fn norm(&self) -> Fp {
        self.c0.square() + self.c1.square()
    }

    /// Multiplies by `ξ = u + 1`.
    pub fn mul_by_xi(&self) -> Self {
        // (c0 + c1 u)(1 + u) = (c0 - c1) + (c0 + c1) u
        Fp2::new(self.c0 - self.c1, self.c0 + self.c1)
    }

    /// Exponentiation by a little-endian limb scalar (square-and-multiply;
    /// used to derive the Frobenius tower constants at first use).
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut acc = Fp2::one();
        let mut started = false;
        for i in (0..exp.len() * 64).rev() {
            if started {
                acc = acc.square();
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                if started {
                    acc = acc * *self;
                } else {
                    acc = *self;
                    started = true;
                }
            }
        }
        acc
    }

    /// Samples a random element.
    pub fn random<R: substrate::rng::Rng + ?Sized>(rng: &mut R) -> Self {
        Fp2::new(Fp::random(rng), Fp::random(rng))
    }

    /// Serializes as `c1 || c0` big-endian (96 bytes).
    pub fn to_bytes_be(self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..48].copy_from_slice(&self.c1.to_bytes_be());
        out[48..].copy_from_slice(&self.c0.to_bytes_be());
        out
    }

    /// Deserializes from `c1 || c0` big-endian.
    pub fn from_bytes_be(bytes: &[u8; 96]) -> Option<Self> {
        let mut c1b = [0u8; 48];
        c1b.copy_from_slice(&bytes[..48]);
        let mut c0b = [0u8; 48];
        c0b.copy_from_slice(&bytes[48..]);
        Some(Fp2::new(Fp::from_bytes_be(&c0b)?, Fp::from_bytes_be(&c1b)?))
    }
}

impl std::ops::Add for Fp2 {
    type Output = Fp2;
    fn add(self, rhs: Fp2) -> Fp2 {
        Fp2::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl std::ops::Sub for Fp2 {
    type Output = Fp2;
    fn sub(self, rhs: Fp2) -> Fp2 {
        Fp2::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl std::ops::Neg for Fp2 {
    type Output = Fp2;
    fn neg(self) -> Fp2 {
        Fp2::new(-self.c0, -self.c1)
    }
}
impl std::ops::Mul for Fp2 {
    type Output = Fp2;
    fn mul(self, rhs: Fp2) -> Fp2 {
        // Karatsuba with lazy reduction: the three schoolbook products are
        // kept as unreduced 768-bit values and combined with wide add/sub
        // before a single Montgomery reduction per output coefficient
        // (2 REDCs instead of 3). Validity: operands are at most 2p (one
        // unreduced limb sum), so every accumulated wide value stays below
        // 4p² < p·R and one conditional subtraction in REDC suffices.
        let v0 = Fp::widemul(self.c0.0, rhs.c0.0);
        let v1 = Fp::widemul(self.c1.0, rhs.c1.0);
        let s = Fp::widemul(
            Fp::limb_sum(self.c0.0, self.c1.0),
            Fp::limb_sum(rhs.c0.0, rhs.c1.0),
        );
        // c0 = v0 - v1 (offset by p² to stay non-negative); c1 = s - v0 - v1.
        let c0 = Fp::redc_wide(wide_sub(wide_add(v0, Fp::P2_WIDE), v1));
        let c1 = Fp::redc_wide(wide_sub(wide_sub(s, v0), v1));
        Fp2::new(c0, c1)
    }
}

impl Field for Fp2 {
    fn zero() -> Self {
        Fp2::new(Fp::zero(), Fp::zero())
    }
    fn one() -> Self {
        Fp2::new(Fp::one(), Fp::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn square(&self) -> Self {
        // (c0 + c1 u)² = (c0+c1)(c0-c1) + 2 c0 c1 u
        let a = self.c0 + self.c1;
        let b = self.c0 - self.c1;
        let c = self.c0 * self.c1;
        Fp2::new(a * b, c.double())
    }
    fn double(&self) -> Self {
        Fp2::new(self.c0.double(), self.c1.double())
    }
    fn invert(&self) -> Option<Self> {
        // (c0 - c1 u) / (c0² + c1²)
        let n = self.norm().invert()?;
        Some(Fp2::new(self.c0 * n, -(self.c1 * n)))
    }
    fn sqrt(&self) -> Option<Self> {
        // Complex method for u² = -1: write a = x + y u.
        if self.is_zero() {
            return Some(*self);
        }
        let two_inv = Fp::from_u64(2).invert().expect("2 != 0");
        let cand = if self.c1.is_zero() {
            if let Some(s) = self.c0.sqrt() {
                Fp2::new(s, Fp::zero())
            } else {
                // sqrt(x) = sqrt(-x) * u since (s u)² = -s².
                let s = (-self.c0).sqrt()?;
                Fp2::new(Fp::zero(), s)
            }
        } else {
            let c = self.norm().sqrt()?;
            let mut t = (self.c0 + c) * two_inv;
            if !t.is_square() {
                t = (self.c0 - c) * two_inv;
            }
            let s = t.sqrt()?;
            let y = self.c1 * two_inv * s.invert()?;
            Fp2::new(s, y)
        };
        if cand.square() == *self {
            Some(cand)
        } else {
            None
        }
    }
    fn mul_by_fp(&self, s: Fp) -> Self {
        Fp2::new(self.c0 * s, self.c1 * s)
    }
}

/// `k·(p-1)/d` as limbs, for the small `k ≤ d` with `d | p-1` that the
/// Frobenius exponents need: multiply up, then schoolbook long division from
/// the top limb down.
const fn frob_exponent(k: u64, d: u64) -> [u64; 6] {
    let mut x = Fp::MODULUS;
    x[0] -= 1; // p is odd: no borrow
    let mut carry = 0u128;
    let mut i = 0;
    while i < 6 {
        let t = x[i] as u128 * k as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0); // p < 2³⁸¹ and k is small
    let mut rem = 0u128;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | x[i] as u128;
        x[i] = (t / d as u128) as u64;
        rem = t % d as u128;
    }
    assert!(rem == 0);
    x
}

/// `(p-1)/6`, `(p-1)/3` and `2(p-1)/3` (`p ≡ 1 (mod 6)`, so all integral).
const FROB_EXP_SIXTH: [u64; 6] = frob_exponent(1, 6);
const FROB_EXP_THIRD: [u64; 6] = frob_exponent(1, 3);
const FROB_EXP_TWO_THIRDS: [u64; 6] = frob_exponent(2, 3);

/// Frobenius tower constants `γ = ξ^(k(p-1)/6)` for the `k` each tower level
/// needs, raised at first use from the `const` exponents above rather than
/// transcribed.
struct FrobConsts {
    /// `ξ^((p-1)/3)` — scales the `v` coefficient of `Fp6` under Frobenius.
    gamma6_1: Fp2,
    /// `ξ^(2(p-1)/3)` — scales the `v²` coefficient.
    gamma6_2: Fp2,
    /// `ξ^((p-1)/6)` — scales the `w` coefficient of `Fp12`.
    gamma12: Fp2,
}

fn frob_consts() -> &'static FrobConsts {
    static CELL: OnceLock<FrobConsts> = OnceLock::new();
    CELL.get_or_init(|| {
        let xi = Fp2::xi();
        FrobConsts {
            gamma6_1: xi.pow(&FROB_EXP_THIRD),
            gamma6_2: xi.pow(&FROB_EXP_TWO_THIRDS),
            gamma12: xi.pow(&FROB_EXP_SIXTH),
        }
    })
}

/// Cubic extension `Fp6 = Fp2[v] / (v³ - ξ)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Fp6 {
    /// Coefficient of `1`.
    pub c0: Fp2,
    /// Coefficient of `v`.
    pub c1: Fp2,
    /// Coefficient of `v²`.
    pub c2: Fp2,
}

impl Fp6 {
    /// Builds an element from its coefficients.
    pub const fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Self {
        Fp6 { c0, c1, c2 }
    }

    /// Embeds an `Fp2` element.
    pub fn from_fp2(c0: Fp2) -> Self {
        Fp6::new(c0, Fp2::zero(), Fp2::zero())
    }

    /// Multiplies by `v` (`(c0 + c1 v + c2 v²)·v = ξ c2 + c0 v + c1 v²`).
    pub fn mul_by_v(&self) -> Self {
        Fp6::new(self.c2.mul_by_xi(), self.c0, self.c1)
    }

    /// Multiplies every coefficient by an `Fp2` scalar.
    pub fn mul_by_fp2(&self, s: Fp2) -> Self {
        Fp6::new(self.c0 * s, self.c1 * s, self.c2 * s)
    }

    /// Sparse product with `(b0, 0, b2)` — 5 `Fp2` multiplications.
    pub(crate) fn mul_by_02(&self, b0: Fp2, b2: Fp2) -> Fp6 {
        let v0 = self.c0 * b0;
        let v2 = self.c2 * b2;
        let s = (self.c0 + self.c2) * (b0 + b2);
        let c0 = v0 + (self.c1 * b2).mul_by_xi();
        let c1 = self.c1 * b0 + v2.mul_by_xi();
        let c2 = s - v0 - v2;
        Fp6::new(c0, c1, c2)
    }

    /// Sparse product with `(b0, b1, 0)` — 5 `Fp2` multiplications.
    pub(crate) fn mul_by_01(&self, b0: Fp2, b1: Fp2) -> Fp6 {
        let v0 = self.c0 * b0;
        let v1 = self.c1 * b1;
        let c1 = (self.c0 + self.c1) * (b0 + b1) - v0 - v1;
        let c0 = v0 + (self.c2 * b1).mul_by_xi();
        let c2 = v1 + self.c2 * b0;
        Fp6::new(c0, c1, c2)
    }

    /// Sparse product with `(0, 0, b2)` — 3 `Fp2` multiplications.
    pub(crate) fn mul_by_2(&self, b2: Fp2) -> Fp6 {
        Fp6::new(
            (self.c1 * b2).mul_by_xi(),
            (self.c2 * b2).mul_by_xi(),
            self.c0 * b2,
        )
    }

    /// Frobenius endomorphism `x ↦ x^p`, using the tower constants
    /// `γᵢ = ξ^(i(p-1)/3)`.
    pub fn frobenius_map(&self) -> Fp6 {
        let fc = frob_consts();
        Fp6::new(
            self.c0.conjugate(),
            self.c1.conjugate() * fc.gamma6_1,
            self.c2.conjugate() * fc.gamma6_2,
        )
    }
}

impl std::ops::Add for Fp6 {
    type Output = Fp6;
    fn add(self, rhs: Fp6) -> Fp6 {
        Fp6::new(self.c0 + rhs.c0, self.c1 + rhs.c1, self.c2 + rhs.c2)
    }
}
impl std::ops::Sub for Fp6 {
    type Output = Fp6;
    fn sub(self, rhs: Fp6) -> Fp6 {
        Fp6::new(self.c0 - rhs.c0, self.c1 - rhs.c1, self.c2 - rhs.c2)
    }
}
impl std::ops::Neg for Fp6 {
    type Output = Fp6;
    fn neg(self) -> Fp6 {
        Fp6::new(-self.c0, -self.c1, -self.c2)
    }
}
impl std::ops::Mul for Fp6 {
    type Output = Fp6;
    fn mul(self, rhs: Fp6) -> Fp6 {
        // Karatsuba over the cubic extension: 6 Fp2 multiplications instead
        // of the schoolbook 9 (the test oracle's `fp6_mul_schoolbook`).
        let t0 = self.c0 * rhs.c0;
        let t1 = self.c1 * rhs.c1;
        let t2 = self.c2 * rhs.c2;
        let s12 = (self.c1 + self.c2) * (rhs.c1 + rhs.c2); // a1b2 + a2b1 + t1 + t2
        let s01 = (self.c0 + self.c1) * (rhs.c0 + rhs.c1); // a0b1 + a1b0 + t0 + t1
        let s02 = (self.c0 + self.c2) * (rhs.c0 + rhs.c2); // a0b2 + a2b0 + t0 + t2
        let c0 = t0 + (s12 - t1 - t2).mul_by_xi();
        let c1 = s01 - t0 - t1 + t2.mul_by_xi();
        let c2 = s02 - t0 - t2 + t1;
        Fp6::new(c0, c1, c2)
    }
}

impl Field for Fp6 {
    fn zero() -> Self {
        Fp6::new(Fp2::zero(), Fp2::zero(), Fp2::zero())
    }
    fn one() -> Self {
        Fp6::new(Fp2::one(), Fp2::zero(), Fp2::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }
    fn square(&self) -> Self {
        // Dedicated cubic squaring (CH-SQR3): 3 Fp2 squarings + 2 Fp2
        // multiplications, against 6 generic products for `self * self`.
        let s0 = self.c0.square();
        let s1 = (self.c0 * self.c1).double();
        let s2 = (self.c0 - self.c1 + self.c2).square();
        let s3 = (self.c1 * self.c2).double();
        let s4 = self.c2.square();
        Fp6::new(
            s0 + s3.mul_by_xi(),
            s1 + s4.mul_by_xi(),
            s1 + s2 + s3 - s0 - s4,
        )
    }
    fn double(&self) -> Self {
        Fp6::new(self.c0.double(), self.c1.double(), self.c2.double())
    }
    fn invert(&self) -> Option<Self> {
        // Standard cubic-extension inversion.
        let a = self.c0;
        let b = self.c1;
        let c = self.c2;
        let d0 = a.square() - (b * c).mul_by_xi();
        let d1 = (c.square()).mul_by_xi() - a * b;
        let d2 = b.square() - a * c;
        let t = (a * d0) + ((b * d2 + c * d1).mul_by_xi());
        let t_inv = t.invert()?;
        Some(Fp6::new(d0 * t_inv, d1 * t_inv, d2 * t_inv))
    }
    fn sqrt(&self) -> Option<Self> {
        // Not needed anywhere; pairing target elements are never square-rooted.
        unimplemented!("Fp6 square roots are not required by this crate")
    }
    fn mul_by_fp(&self, s: Fp) -> Self {
        Fp6::new(
            self.c0.mul_by_fp(s),
            self.c1.mul_by_fp(s),
            self.c2.mul_by_fp(s),
        )
    }
}

/// Quadratic extension `Fp12 = Fp6[w] / (w² - v)` — the pairing target field.
///
/// # Examples
///
/// ```
/// use blscrypto::tower::{Fp12, Field};
/// let w = Fp12::w();
/// assert_eq!(w * w, Fp12::from_fp6(blscrypto::tower::Fp6::new(
///     blscrypto::tower::Fp2::zero(),
///     blscrypto::tower::Fp2::one(),
///     blscrypto::tower::Fp2::zero(),
/// )));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Fp12 {
    /// Coefficient of `1`.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

impl Fp12 {
    /// Builds an element from its coefficients.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Fp12 { c0, c1 }
    }

    /// Embeds an `Fp6` element.
    pub fn from_fp6(c0: Fp6) -> Self {
        Fp12::new(c0, Fp6::zero())
    }

    /// Embeds an `Fp2` element.
    pub fn from_fp2(c: Fp2) -> Self {
        Fp12::from_fp6(Fp6::from_fp2(c))
    }

    /// Embeds an `Fp` element.
    pub fn from_fp(c: Fp) -> Self {
        Fp12::from_fp2(Fp2::new(c, Fp::zero()))
    }

    /// The tower generator `w` itself.
    pub fn w() -> Self {
        Fp12::new(Fp6::zero(), Fp6::one())
    }

    /// Conjugate over `Fp6`: `c0 - c1 w`. This equals the Frobenius map
    /// `x ↦ x^(p⁶)` and is used in the easy part of the final exponentiation.
    pub fn conjugate(&self) -> Self {
        Fp12::new(self.c0, -self.c1)
    }

    /// Exponentiation by a little-endian limb scalar.
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut acc = Fp12::one();
        for i in (0..exp.len() * 64).rev() {
            acc = acc.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc * *self;
            }
        }
        acc
    }

    /// Frobenius endomorphism `x ↦ x^p`: `w^p = ξ^((p-1)/6) · w`.
    pub fn frobenius_map(&self) -> Fp12 {
        let fc = frob_consts();
        Fp12::new(
            self.c0.frobenius_map(),
            self.c1.frobenius_map().mul_by_fp2(fc.gamma12),
        )
    }

    /// Granger–Scott squaring for elements of the cyclotomic subgroup
    /// (`x^(p⁶+1) = 1`, i.e. anything that already passed the easy part of a
    /// final exponentiation). Roughly half the cost of a generic
    /// [`Field::square`]; **invalid** for general `Fp12` elements.
    pub fn cyclotomic_square(&self) -> Fp12 {
        #[inline]
        fn fp4_square(a: Fp2, b: Fp2) -> (Fp2, Fp2) {
            // (a + b·s)² over Fp4 = Fp2[s]/(s² - ξ).
            let t0 = a.square();
            let t1 = b.square();
            let c0 = t1.mul_by_xi() + t0;
            let c1 = (a + b).square() - t0 - t1;
            (c0, c1)
        }
        let z0 = self.c0.c0;
        let z4 = self.c0.c1;
        let z3 = self.c0.c2;
        let z2 = self.c1.c0;
        let z1 = self.c1.c1;
        let z5 = self.c1.c2;
        let (t0, t1) = fp4_square(z0, z1);
        let r0 = (t0 - z0).double() + t0;
        let r1 = (t1 + z1).double() + t1;
        let (t0, t1) = fp4_square(z2, z3);
        let (t2, t3) = fp4_square(z4, z5);
        let r4 = (t0 - z4).double() + t0;
        let r5 = (t1 + z5).double() + t1;
        let xt3 = t3.mul_by_xi();
        let r2 = (xt3 + z2).double() + xt3;
        let r3 = (t2 - z3).double() + t2;
        Fp12::new(Fp6::new(r0, r4, r3), Fp6::new(r2, r1, r5))
    }

    /// Sparse product with an ate-pairing line: nonzero coefficients at
    /// `c0.c2`, `c1.c0` and `c1.c1` only. 14 `Fp2` multiplications.
    pub(crate) fn mul_by_ate_line(&self, (l02, l10, l11): (Fp2, Fp2, Fp2)) -> Fp12 {
        let t0 = self.c0.mul_by_2(l02);
        let t1 = self.c1.mul_by_01(l10, l11);
        let dense = Fp6::new(l10, l11, l02); // m0 + m1
        let c1 = (self.c0 + self.c1) * dense - t0 - t1;
        Fp12::new(t0 + t1.mul_by_v(), c1)
    }

    /// Product with *two* ate-pairing lines `(l02, l10, l11)` at once: the
    /// lines are multiplied sparse × sparse first (6 `Fp2` multiplications;
    /// with `A = l02·v²`, `B = l10 + l11·v` the product `(A + Bw)(A' + B'w)`
    /// is `AA' + v·BB' + (AB' + A'B)w`, whose `w` part has no `v` term),
    /// then into `self` with one Karatsuba product that keeps that zero —
    /// 23 multiplications against 28 for two [`Self::mul_by_ate_line`]s.
    pub(crate) fn mul_by_ate_line_pair(
        &self,
        (a2, b0, b1): (Fp2, Fp2, Fp2),
        (a2p, b0p, b1p): (Fp2, Fp2, Fp2),
    ) -> Fp12 {
        let aa = a2 * a2p;
        let b00 = b0 * b0p;
        let b11 = b1 * b1p;
        let b_cross = (b0 + b1) * (b0p + b1p) - b00 - b11;
        let ab1 = (a2 + b1) * (a2p + b1p) - aa - b11;
        let ab0 = (a2 + b0) * (a2p + b0p) - aa - b00;
        let m0 = Fp6::new(b11.mul_by_xi(), aa.mul_by_xi() + b00, b_cross);
        let (m10, m12) = (ab1.mul_by_xi(), ab0);
        let v0 = self.c0 * m0;
        let v1 = self.c1.mul_by_02(m10, m12);
        let s = (self.c0 + self.c1) * Fp6::new(m0.c0 + m10, m0.c1, m0.c2 + m12);
        Fp12::new(v0 + v1.mul_by_v(), s - v0 - v1)
    }
}

impl std::ops::Add for Fp12 {
    type Output = Fp12;
    fn add(self, rhs: Fp12) -> Fp12 {
        Fp12::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}
impl std::ops::Sub for Fp12 {
    type Output = Fp12;
    fn sub(self, rhs: Fp12) -> Fp12 {
        Fp12::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}
impl std::ops::Neg for Fp12 {
    type Output = Fp12;
    fn neg(self) -> Fp12 {
        Fp12::new(-self.c0, -self.c1)
    }
}
impl std::ops::Mul for Fp12 {
    type Output = Fp12;
    fn mul(self, rhs: Fp12) -> Fp12 {
        // (a0 + a1 w)(b0 + b1 w) = (a0 b0 + v a1 b1) + (a0 b1 + a1 b0) w
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let s = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Fp12::new(v0 + v1.mul_by_v(), s - v0 - v1)
    }
}

impl Field for Fp12 {
    fn zero() -> Self {
        Fp12::new(Fp6::zero(), Fp6::zero())
    }
    fn one() -> Self {
        Fp12::new(Fp6::one(), Fp6::zero())
    }
    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }
    fn square(&self) -> Self {
        // Complex squaring: 2 Fp6 multiplications instead of the 3 a generic
        // product costs. (a0 + a1 w)² with w² = v:
        //   c0 = (a0 + a1)(a0 + v a1) - t - v t,  c1 = 2t,  t = a0 a1.
        let t = self.c0 * self.c1;
        let c0 = (self.c0 + self.c1) * (self.c0 + self.c1.mul_by_v()) - t - t.mul_by_v();
        Fp12::new(c0, t.double())
    }
    fn double(&self) -> Self {
        Fp12::new(self.c0.double(), self.c1.double())
    }
    fn invert(&self) -> Option<Self> {
        // (c0 - c1 w) / (c0² - v c1²)
        let d = self.c0.square() - self.c1.square().mul_by_v();
        let d_inv = d.invert()?;
        Some(Fp12::new(self.c0 * d_inv, -(self.c1 * d_inv)))
    }
    fn sqrt(&self) -> Option<Self> {
        unimplemented!("Fp12 square roots are not required by this crate")
    }
    fn mul_by_fp(&self, s: Fp) -> Self {
        Fp12::new(self.c0.mul_by_fp(s), self.c1.mul_by_fp(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xc1ce_20)
    }

    fn random_fp6<R: substrate::rng::Rng>(rng: &mut R) -> Fp6 {
        Fp6::new(Fp2::random(rng), Fp2::random(rng), Fp2::random(rng))
    }

    fn random_fp12<R: substrate::rng::Rng>(rng: &mut R) -> Fp12 {
        Fp12::new(random_fp6(rng), random_fp6(rng))
    }

    #[test]
    fn fp2_u_squared_is_minus_one() {
        let u = Fp2::new(Fp::zero(), Fp::one());
        assert_eq!(u.square(), -Fp2::one());
    }

    #[test]
    fn fp2_field_axioms_random() {
        let mut rng = rng();
        for _ in 0..50 {
            let a = Fp2::random(&mut rng);
            let b = Fp2::random(&mut rng);
            let c = Fp2::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.square(), a * a);
            if let Some(inv) = a.invert() {
                assert_eq!(a * inv, Fp2::one());
            }
        }
    }

    #[test]
    fn fp2_sqrt_round_trip() {
        let mut rng = rng();
        let mut squares = 0;
        for _ in 0..50 {
            let a = Fp2::random(&mut rng);
            let sq = a.square();
            let s = sq.sqrt().expect("square must have a root");
            assert!(s == a || s == -a);
            if a.sqrt().is_some() {
                squares += 1;
            }
        }
        // About half of random elements are squares.
        assert!(squares > 10 && squares < 40, "squares = {squares}");
    }

    #[test]
    fn fp6_v_cubed_is_xi() {
        let v = Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero());
        let v3 = v * v * v;
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
        // mul_by_v matches multiplication by v.
        let mut rng = rng();
        let a = random_fp6(&mut rng);
        assert_eq!(a.mul_by_v(), a * v);
    }

    #[test]
    fn fp6_inversion_and_axioms() {
        let mut rng = rng();
        for _ in 0..25 {
            let a = random_fp6(&mut rng);
            let b = random_fp6(&mut rng);
            let c = random_fp6(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            assert_eq!(a * (b + c), a * b + a * c);
            let inv = a.invert().expect("random element is invertible");
            assert_eq!(a * inv, Fp6::one());
        }
        assert!(Fp6::zero().invert().is_none());
    }

    #[test]
    fn fp12_w_squared_is_v() {
        let w = Fp12::w();
        let v = Fp12::from_fp6(Fp6::new(Fp2::zero(), Fp2::one(), Fp2::zero()));
        assert_eq!(w * w, v);
    }

    #[test]
    fn fp12_inversion_and_axioms() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = random_fp12(&mut rng);
            let b = random_fp12(&mut rng);
            assert_eq!(a * b, b * a);
            let inv = a.invert().expect("random element is invertible");
            assert_eq!(a * inv, Fp12::one());
            assert_eq!(a.conjugate().conjugate(), a);
        }
    }

    #[test]
    fn fp12_conjugate_is_homomorphic() {
        let mut rng = rng();
        let a = random_fp12(&mut rng);
        let b = random_fp12(&mut rng);
        assert_eq!((a * b).conjugate(), a.conjugate() * b.conjugate());
    }

    #[test]
    fn fp6_fp12_dedicated_squares_match_mul() {
        let mut rng = rng();
        for _ in 0..10 {
            let a = random_fp6(&mut rng);
            assert_eq!(a.square(), a * a);
            let b = random_fp12(&mut rng);
            assert_eq!(b.square(), b * b);
        }
    }

    #[test]
    fn sparse_line_muls_match_dense() {
        let mut rng = rng();
        for _ in 0..10 {
            let f = random_fp12(&mut rng);
            let (l0, l1, l2) = (
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
                Fp2::random(&mut rng),
            );
            let ate = Fp12::new(Fp6::new(Fp2::zero(), Fp2::zero(), l0), Fp6::new(l1, l2, Fp2::zero()));
            assert_eq!(f.mul_by_ate_line((l0, l1, l2)), f * ate);
        }
    }

    #[test]
    fn frobenius_exponents_match_the_biguint_derivation() {
        use crate::bigint::BigUint;
        let pm1 = BigUint::from_limbs_le(&Fp::MODULUS).sub(&BigUint::one());
        let over = |d: u64| {
            let (q, rem) = pm1.div_rem(&BigUint::from_u64(d));
            assert!(rem.is_zero(), "{d} must divide p - 1");
            q
        };
        assert_eq!(BigUint::from_limbs_le(&FROB_EXP_SIXTH), over(6));
        assert_eq!(BigUint::from_limbs_le(&FROB_EXP_THIRD), over(3));
        assert_eq!(
            BigUint::from_limbs_le(&FROB_EXP_TWO_THIRDS),
            over(3).add(&over(3))
        );
    }

    #[test]
    fn frobenius_matches_pow_p() {
        let mut rng = rng();
        let a = random_fp12(&mut rng);
        assert_eq!(a.frobenius_map(), a.pow(&Fp::MODULUS));
        // Twelve applications are the identity.
        let mut x = a;
        for _ in 0..12 {
            x = x.frobenius_map();
        }
        assert_eq!(x, a);
    }

    #[test]
    fn cyclotomic_square_matches_square_in_subgroup() {
        let mut rng = rng();
        for _ in 0..5 {
            let f = random_fp12(&mut rng);
            // Push f into the cyclotomic subgroup via the easy part of a
            // final exponentiation: z = (f^(p⁶-1))^(p²+1).
            let t = f.conjugate() * f.invert().expect("random f invertible");
            let z = t.frobenius_map().frobenius_map() * t;
            assert_eq!(z.cyclotomic_square(), z.square());
        }
    }

    #[test]
    fn fp12_pow_small() {
        let mut rng = rng();
        let a = random_fp12(&mut rng);
        let mut expect = Fp12::one();
        for _ in 0..13 {
            expect = expect * a;
        }
        assert_eq!(a.pow(&[13]), expect);
        assert_eq!(a.pow(&[0]), Fp12::one());
        assert_eq!(a.pow(&[1]), a);
    }
}
