//! The BLS12-381 groups `G1 = E(Fp)[r]` with `E: y² = x³ + 4`, and
//! `G2 = E'(Fp2)[r]` with the sextic twist `E': y² = x³ + 4(u+1)`.
//!
//! The group law (Jacobian coordinates) is written once, generically over the
//! [`Field`] trait. Generators are **derived at first use** rather than
//! transcribed as 96-byte constants: a seeded try-and-increment point is
//! multiplied by the curve cofactor. The two cofactors are `const` limbs; the
//! unit tests re-derive both from the BLS parameter `x` (for the twist, by
//! selecting the group order among the CM candidates with sample points) and
//! pin the subgroup membership of everything built from them.

use crate::fields::{Fp, Fr};
use crate::sha256::sha256_parts;
use crate::tower::{Field, Fp2};
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Per-curve parameters (base field + the constant `b`).
pub trait CurveParams: 'static + Copy + Clone + Eq + std::fmt::Debug {
    /// Coordinate field.
    type Base: Field;
    /// Human-readable name used in `Debug` output.
    const NAME: &'static str;
    /// The short-Weierstrass constant `b` (`a` is zero for BLS curves).
    fn b() -> Self::Base;
}

/// Marker type for `E(Fp): y² = x³ + 4`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G1Params;
impl CurveParams for G1Params {
    type Base = Fp;
    const NAME: &'static str = "G1";
    fn b() -> Fp {
        Fp::from_u64(4)
    }
}

/// Marker type for the twist `E'(Fp2): y² = x³ + 4(u+1)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct G2Params;
impl CurveParams for G2Params {
    type Base = Fp2;
    const NAME: &'static str = "G2";
    fn b() -> Fp2 {
        Fp2::new(Fp::from_u64(4), Fp::from_u64(4))
    }
}

/// An affine curve point (or the point at infinity).
#[derive(Clone, Copy)]
pub struct Affine<C: CurveParams> {
    /// x-coordinate (meaningless when `infinity`).
    pub x: C::Base,
    /// y-coordinate (meaningless when `infinity`).
    pub y: C::Base,
    /// `true` for the identity element.
    pub infinity: bool,
}

impl<C: CurveParams> PartialEq for Affine<C> {
    fn eq(&self, other: &Self) -> bool {
        if self.infinity || other.infinity {
            return self.infinity == other.infinity;
        }
        self.x == other.x && self.y == other.y
    }
}
impl<C: CurveParams> Eq for Affine<C> {}

impl<C: CurveParams> std::fmt::Debug for Affine<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.infinity {
            write!(f, "{}(infinity)", C::NAME)
        } else {
            write!(f, "{}({:?}, {:?})", C::NAME, self.x, self.y)
        }
    }
}

impl<C: CurveParams> Affine<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Affine {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
        }
    }

    /// `true` iff this is the point at infinity.
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks the curve equation `y² = x³ + b` (identity is on the curve).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        self.y.square() == self.x.square() * self.x + C::b()
    }

    /// Attempts to lift an x-coordinate onto the curve, returning the point
    /// with the "smaller" root (callers pick the sign explicitly).
    pub fn from_x(x: C::Base) -> Option<Self> {
        let y2 = x.square() * x + C::b();
        let y = y2.sqrt()?;
        Some(Affine {
            x,
            y,
            infinity: false,
        })
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        if self.infinity {
            *self
        } else {
            Affine {
                x: self.x,
                y: -self.y,
                infinity: false,
            }
        }
    }

    /// Converts to Jacobian projective coordinates.
    pub fn to_projective(&self) -> Projective<C> {
        if self.infinity {
            Projective::identity()
        } else {
            Projective {
                x: self.x,
                y: self.y,
                z: C::Base::one(),
                _marker: PhantomData,
            }
        }
    }

    /// Scalar multiplication by an `Fr` element.
    pub fn mul_fr(&self, k: Fr) -> Projective<C> {
        self.to_projective().mul_fr(k)
    }
}

/// A Jacobian projective point (`x = X/Z²`, `y = Y/Z³`; identity has `Z = 0`).
#[derive(Clone, Copy)]
pub struct Projective<C: CurveParams> {
    x: C::Base,
    y: C::Base,
    z: C::Base,
    _marker: PhantomData<C>,
}

impl<C: CurveParams> std::fmt::Debug for Projective<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.to_affine(), f)
    }
}

impl<C: CurveParams> PartialEq for Projective<C> {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1², Y1/Z1³) == (X2/Z2², Y2/Z2³) without inversions.
        let self_id = self.is_identity();
        let other_id = other.is_identity();
        if self_id || other_id {
            return self_id == other_id;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        self.x * z2z2 == other.x * z1z1
            && self.y * z2z2 * other.z == other.y * z1z1 * self.z
    }
}
impl<C: CurveParams> Eq for Projective<C> {}

impl<C: CurveParams> Projective<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Projective {
            x: C::Base::one(),
            y: C::Base::one(),
            z: C::Base::zero(),
            _marker: PhantomData,
        }
    }

    /// `true` iff this is the identity.
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (`a = 0` Jacobian formulas).
    pub fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return Projective::identity();
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = ((self.x + b).square() - a - c).double();
        let e = a.double() + a;
        let f = e.square();
        let x3 = f - d.double();
        let eight_c = c.double().double().double();
        let y3 = e * (d - x3) - eight_c;
        let z3 = (self.y * self.z).double();
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// General point addition.
    pub fn add(&self, other: &Self) -> Self {
        if self.is_identity() {
            return *other;
        }
        if other.is_identity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * other.z * z2z2;
        let s2 = other.y * self.z * z1z1;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Projective::identity();
        }
        let h = u2 - u1;
        let i = h.double().square();
        let j = h * i;
        let rr = (s2 - s1).double();
        let v = u1 * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (s1 * j).double();
        let z3 = ((self.z + other.z).square() - z1z1 - z2z2) * h;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        Projective {
            x: self.x,
            y: -self.y,
            z: self.z,
            _marker: PhantomData,
        }
    }

    /// Mixed addition with an affine point (`Z2 = 1` Jacobian formulas —
    /// three fewer field multiplications than the general [`Self::add`]).
    pub fn add_mixed(&self, other: &Affine<C>) -> Self {
        if other.infinity {
            return *self;
        }
        if self.is_identity() {
            return other.to_projective();
        }
        let z1z1 = self.z.square();
        let u2 = other.x * z1z1;
        let s2 = other.y * z1z1 * self.z;
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Projective::identity();
        }
        let h = u2 - self.x;
        let hh = h.square();
        let i = hh.double().double();
        let j = h * i;
        let rr = (s2 - self.y).double();
        let v = self.x * i;
        let x3 = rr.square() - j - v.double();
        let y3 = rr * (v - x3) - (self.y * j).double();
        let z3 = (self.z + h).square() - z1z1 - hh;
        Projective {
            x: x3,
            y: y3,
            z: z3,
            _marker: PhantomData,
        }
    }

    /// Normalizes a slice of points to affine with a single field inversion
    /// (Montgomery's batch-inversion trick).
    pub fn batch_normalize(points: &[Self]) -> Vec<Affine<C>> {
        // prefix[i] = product of all non-identity z's before index i.
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = C::Base::one();
        for p in points {
            prefix.push(acc);
            if !p.is_identity() {
                acc = acc * p.z;
            }
        }
        let mut suffix_inv = match acc.invert() {
            Some(inv) => inv,
            // Every point is the identity; acc stayed 1 (invertible), so
            // this arm is unreachable, but keep it total.
            None => C::Base::one(),
        };
        let mut out = vec![Affine::identity(); points.len()];
        for i in (0..points.len()).rev() {
            let p = &points[i];
            if p.is_identity() {
                continue;
            }
            let z_inv = prefix[i] * suffix_inv;
            suffix_inv = suffix_inv * p.z;
            let z_inv2 = z_inv.square();
            out[i] = Affine {
                x: p.x * z_inv2,
                y: p.y * z_inv2 * z_inv,
                infinity: false,
            };
        }
        out
    }

    /// Scalar multiplication by little-endian `u64` limbs: the one-term case
    /// of [`Self::sum_of_products`].
    pub fn mul_limbs(&self, limbs: &[u64]) -> Self {
        Self::sum_of_products(&[(*self, limbs)])
    }

    /// Multiplication by a small integer (a participant index): plain
    /// double-and-add over at most 32 bits. No wNAF table, so no inversion
    /// — for a scalar this short the table's normalization would cost more
    /// than the ladder.
    pub(crate) fn mul_small(&self, k: u32) -> Self {
        let mut acc = Projective::identity();
        for i in (0..u32::BITS - k.leading_zeros()).rev() {
            acc = acc.double();
            if (k >> i) & 1 == 1 {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// `Σ kᵢ·Pᵢ` for little-endian limb scalars, all terms riding one
    /// doubling chain (Straus interleaving).
    ///
    /// Each term is a width-5 wNAF over a table of its odd multiples
    /// `[1]P, [3]P, …, [15]P` (every table normalized in one shared
    /// inversion, so the ladder adds are mixed): ~bits doublings *in total*
    /// plus ~bits/6 additions per term, against ~bits/2 full additions and
    /// a doubling chain of its own for each term of the plain binary ladder
    /// (which the test oracle keeps, to pin this one).
    pub fn sum_of_products(terms: &[(Self, &[u64])]) -> Self {
        let terms: Vec<(Self, Vec<i8>)> = terms
            .iter()
            .map(|(p, k)| (*p, wnaf_digits(k, WNAF_WIDTH)))
            .filter(|(p, digits)| !p.is_identity() && !digits.is_empty())
            .collect();
        let tables = Self::odd_multiples(terms.iter().map(|(p, _)| p));
        let terms: Vec<_> = tables.chunks(WNAF_TABLE).zip(terms).map(|(t, (_, d))| (t, d)).collect();
        Self::straus(&terms)
    }

    /// Each point's `[1]P, [3]P, …, [15]P`, normalized by one inversion.
    fn odd_multiples<'a>(points: impl Iterator<Item = &'a Self>) -> Vec<Affine<C>> {
        let mut multiples = Vec::new();
        for p in points {
            let two_p = p.double();
            multiples.push(*p);
            for _ in 1..WNAF_TABLE {
                multiples.push(multiples[multiples.len() - 1].add(&two_p));
            }
        }
        Self::batch_normalize(&multiples)
    }

    /// One doubling chain over `(odd multiples, wNAF digits)` terms.
    fn straus(terms: &[(&[Affine<C>], Vec<i8>)]) -> Self {
        let len = terms.iter().map(|(_, d)| d.len()).max().unwrap_or(0);
        let mut acc = Projective::identity();
        for bit in (0..len).rev() {
            acc = acc.double();
            for (table, digits) in terms {
                match digits.get(bit).copied().unwrap_or(0) {
                    0 => {}
                    d if d > 0 => acc = acc.add_mixed(&table[(d as usize - 1) / 2]),
                    d => acc = acc.add_mixed(&table[((-d) as usize - 1) / 2].neg()),
                }
            }
        }
        acc
    }

    /// Scalar multiplication by an `Fr` scalar.
    pub fn mul_fr(&self, k: Fr) -> Self {
        self.mul_limbs(&k.to_raw())
    }

    /// Converts back to affine coordinates.
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        let z_inv = self.z.invert().expect("non-identity has non-zero z");
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2 * z_inv;
        Affine {
            x: self.x * z_inv2,
            y: self.y * z_inv3,
            infinity: false,
        }
    }

    /// `true` iff `r · self` is the identity (the point is in the prime-order
    /// subgroup).
    pub fn is_torsion_free(&self) -> bool {
        self.mul_limbs(&Fr::MODULUS).is_identity()
    }

    /// Sums an iterator of points.
    pub fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter()
            .fold(Projective::identity(), |acc, p| acc.add(&p))
    }
}

impl<C: CurveParams> std::ops::Add for Projective<C> {
    type Output = Projective<C>;
    fn add(self, rhs: Projective<C>) -> Projective<C> {
        Projective::add(&self, &rhs)
    }
}
impl<C: CurveParams> std::ops::Neg for Projective<C> {
    type Output = Projective<C>;
    fn neg(self) -> Projective<C> {
        Projective::neg(&self)
    }
}

impl G1Projective {
    /// `[k]P` by the Gallant–Lambert–Vanstone split `k = k₁ + k₂·λ`
    /// (`k₁, k₂ < 2¹²⁸`): `[k₁]P + [k₂]φ(P)` on one 128-step Straus chain,
    /// half the doublings of [`Self::mul_fr`]. φ's table is `P`'s with every
    /// `x` multiplied by β.
    ///
    /// **`P` must be in `G1`.** `φ(x, y) = (βx, y)` acts as `[λ]` on the
    /// `r`-torsion only; on any other point this is not `[k]P`. It runs on
    /// [`hash_to_g1`]'s output in [`crate::bls::SecretKey::sign`] and on the
    /// generator in [`g1_mul_glv_lever`]; every multiplication of a point
    /// the crate did not make keeps the ladder.
    pub(crate) fn mul_glv(&self, k: Fr) -> Self {
        let (k2, k1) = div_rem_lambda(k.to_raw());
        let beta = Fp::from_raw(BETA);
        let table = Self::odd_multiples([*self].iter());
        let phi: Vec<G1Affine> = table.iter().map(|p| Affine { x: p.x * beta, ..*p }).collect();
        let digits = |k: u128| wnaf_digits(&[k as u64, (k >> 64) as u64], WNAF_WIDTH);
        Self::straus(&[(&table, digits(k1)), (&phi, digits(k2))])
    }
}

/// `(⌊k/λ⌋, k mod λ)` for `k < r` by binary long division (`carry` is the
/// shifted remainder's 129th bit); both fit 128 bits as `r = λ² + λ + 1`.
fn div_rem_lambda(k: [u64; 4]) -> (u128, u128) {
    let (mut q, mut rem) = (0u128, 0u128);
    for i in (0..256).rev() {
        let carry = rem >> 127 == 1;
        rem = rem << 1 | ((k[i / 64] >> (i % 64)) & 1) as u128;
        q <<= 1;
        if carry || rem >= LAMBDA {
            rem = rem.wrapping_sub(LAMBDA);
            q |= 1;
        }
    }
    (q, rem)
}

/// `G1` affine point.
pub type G1Affine = Affine<G1Params>;
/// `G1` projective point.
pub type G1Projective = Projective<G1Params>;
/// `G2` affine point.
pub type G2Affine = Affine<G2Params>;
/// `G2` projective point.
pub type G2Projective = Projective<G2Params>;

/// The wNAF width of variable-base multiplication, and its table size.
const WNAF_WIDTH: u32 = 5;
const WNAF_TABLE: usize = 1 << (WNAF_WIDTH - 2);

/// Computes the width-`w` non-adjacent form of a little-endian limb scalar:
/// odd digits in `(-2^(w-1), 2^(w-1))`, least-significant first.
fn wnaf_digits(scalar: &[u64], width: u32) -> Vec<i8> {
    let mut x: Vec<u64> = scalar.to_vec();
    x.push(0); // headroom for the +2^w carry of a negative digit
    let radix = 1u64 << width;
    let half = radix >> 1;
    let mut digits = Vec::with_capacity(scalar.len() * 64 + 1);
    while !x.iter().all(|&l| l == 0) {
        let d = if x[0] & 1 == 1 {
            let m = x[0] & (radix - 1);
            if m >= half {
                // digit = m - 2^w < 0; subtracting it adds 2^w - m.
                let mut carry = radix - m;
                for limb in x.iter_mut() {
                    let (s, overflow) = limb.overflowing_add(carry);
                    *limb = s;
                    carry = overflow as u64;
                    if carry == 0 {
                        break;
                    }
                }
                (m as i64 - radix as i64) as i8
            } else {
                x[0] -= m; // m is the low bits of x[0]: no borrow
                m as i8
            }
        } else {
            0
        };
        digits.push(d);
        for i in 0..x.len() {
            x[i] = (x[i] >> 1) | if i + 1 < x.len() { x[i + 1] << 63 } else { 0 };
        }
    }
    digits
}

/// A precomputed fixed-window table for repeated multiplication of one base
/// point: `table[w][j] = (j+1) · 2^(4w) · base`, all affine (one shared
/// batch inversion at build time). A scalar multiplication is then just one
/// mixed addition per 4-bit window — no doublings at all.
pub(crate) struct FixedBaseTable<C: CurveParams> {
    table: Vec<Vec<Affine<C>>>,
}

impl<C: CurveParams> FixedBaseTable<C> {
    const WINDOW: usize = 4;

    pub(crate) fn new(base: &Projective<C>, scalar_bits: usize) -> Self {
        let windows = scalar_bits.div_ceil(Self::WINDOW);
        let per = (1 << Self::WINDOW) - 1; // multiples 1..=15 of the window base
        let mut flat = Vec::with_capacity(windows * per);
        let mut cur = *base;
        for _ in 0..windows {
            let mut mult = cur;
            for j in 0..per {
                flat.push(mult);
                if j + 1 < per {
                    mult = mult.add(&cur);
                }
            }
            cur = mult.add(&cur); // 16 · cur
        }
        let affine = Projective::batch_normalize(&flat);
        let table = affine.chunks(per).map(|c| c.to_vec()).collect();
        FixedBaseTable { table }
    }

    pub(crate) fn mul(&self, scalar: &[u64]) -> Projective<C> {
        let mut acc = Projective::identity();
        for (w, row) in self.table.iter().enumerate() {
            let bit = w * Self::WINDOW;
            if bit >= scalar.len() * 64 {
                break;
            }
            // 4-bit windows never straddle a limb boundary (4 divides 64).
            let d = ((scalar[bit / 64] >> (bit % 64)) & 0xf) as usize;
            if d != 0 {
                acc = acc.add_mixed(&row[d - 1]);
            }
        }
        acc
    }
}

/// The (absolute value of the) BLS parameter `x = -0xd201000000010000`.
pub const X_ABS: u64 = 0xd201_0000_0001_0000;

/// The cofactor `#E(Fp) / r = (p + |x|) / r` of `G1`.
const H1: [u64; 2] = [0x8c00_aaab_0000_aaab, 0x396c_8c00_5555_e156];

/// `h_eff = 1 − x`: like `H1` it maps `E(Fp)` into `G1`, in 64 bits, not 126
/// (Wahby & Boneh, <https://eprint.iacr.org/2019/403>; RFC 9380 §8.8.1).
const H_EFF: u64 = X_ABS + 1;

/// `λ = x² − 1`, a cube root of unity mod `r` (`λ² + λ + 1 = r`).
pub(crate) const LAMBDA: u128 = (X_ABS as u128) * (X_ABS as u128) - 1;

/// β, the cube root of unity in `Fp` (raw limbs) with `(βx, y) = [λ](x, y)` on `G1`.
const BETA: [u64; 6] = [
    0x8bfd_0000_0000_aaac, 0x4094_27eb_4f49_fffd, 0x897d_2965_0fb8_5f9b,
    0xaa0d_857d_8975_9ad4, 0xec02_4086_63d4_de85, 0x1a01_11ea_397f_e699,
];

/// The cofactor `#E'(Fp2) / r` of `G2`.
const H2: [u64; 8] = [
    0xcf1c_38e3_1c72_38e5,
    0x1616_ec6e_786f_0c70,
    0x2153_7e29_3a66_91ae,
    0xa628_f1cb_4d9e_82ef,
    0xa68a_205b_2e5a_7ddf,
    0xcd91_de45_4708_5aba,
    0x091d_5079_2876_a202,
    0x05d5_43a9_5414_e7f1,
];

struct Constants {
    g1: G1Projective,
    g2: G2Projective,
}

static CONSTANTS: OnceLock<Constants> = OnceLock::new();

/// Derives a deterministic non-identity curve point by try-and-increment
/// over a counter (before cofactor clearing).
fn seeded_point<C: CurveParams>(base_from_ctr: impl Fn(u64) -> C::Base) -> Affine<C> {
    for ctr in 0..u64::MAX {
        if let Some(p) = Affine::<C>::from_x(base_from_ctr(ctr)) {
            return p;
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

fn fp_from_label(label: &str, ctr: u64, part: u8) -> Fp {
    let d0 = sha256_parts(label, &[&ctr.to_be_bytes(), &[part, 0]]);
    let d1 = sha256_parts(label, &[&ctr.to_be_bytes(), &[part, 1]]);
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d0);
    wide[32..].copy_from_slice(&d1);
    Fp::from_bytes_wide(&wide)
}

fn g1_seeded(label: &str) -> G1Affine {
    seeded_point::<G1Params>(|ctr| fp_from_label(label, ctr, 0))
}

fn g2_seeded(label: &str) -> G2Affine {
    seeded_point::<G2Params>(|ctr| {
        Fp2::new(fp_from_label(label, ctr, 0), fp_from_label(label, ctr, 1))
    })
}

fn constants() -> &'static Constants {
    CONSTANTS.get_or_init(|| {
        let g1 = g1_seeded("CICERO_BLS12381_G1_GENERATOR")
            .to_projective()
            .mul_limbs(&H1);
        assert!(!g1.is_identity(), "G1 generator degenerated");
        assert!(g1.is_torsion_free(), "G1 generator not in r-torsion");

        let g2 = g2_seeded("CICERO_BLS12381_G2_GENERATOR")
            .to_projective()
            .mul_limbs(&H2);
        assert!(!g2.is_identity(), "G2 generator degenerated");
        assert!(g2.is_torsion_free(), "G2 generator not in r-torsion");

        Constants { g1, g2 }
    })
}

/// The fixed `G1` generator (derived deterministically at first use).
pub fn g1_generator() -> G1Projective {
    constants().g1
}

/// The fixed `G2` generator (derived deterministically at first use).
pub fn g2_generator() -> G2Projective {
    constants().g2
}

fn g1_gen_table() -> &'static FixedBaseTable<G1Params> {
    static CELL: OnceLock<FixedBaseTable<G1Params>> = OnceLock::new();
    CELL.get_or_init(|| FixedBaseTable::new(&g1_generator(), Fr::LIMBS * 64))
}

fn g2_gen_table() -> &'static FixedBaseTable<G2Params> {
    static CELL: OnceLock<FixedBaseTable<G2Params>> = OnceLock::new();
    CELL.get_or_init(|| FixedBaseTable::new(&g2_generator(), Fr::LIMBS * 64))
}

/// Fixed-base multiplication `k · G1` using the precomputed generator window
/// table: one mixed addition per 4 scalar bits, no doublings.
pub fn g1_mul_generator(k: Fr) -> G1Projective {
    g1_gen_table().mul(&k.to_raw())
}

/// Fixed-base multiplication `k · G2` using the precomputed generator table.
pub fn g2_mul_generator(k: Fr) -> G2Projective {
    g2_gen_table().mul(&k.to_raw())
}

/// `[h_eff]P`: 63 doublings and 6 mixed additions of `p` itself, the set
/// bits below the top one of the weight-7 scalar.
fn clear_cofactor(p: &G1Affine) -> G1Projective {
    let mut acc = p.to_projective();
    for i in (0..63).rev() {
        acc = acc.double();
        if (H_EFF >> i) & 1 == 1 {
            acc = acc.add_mixed(p);
        }
    }
    acc
}

/// `[k]G1` by GLV for the `g1_mul_glv` benchmark: no caller's point reaches
/// [`G1Projective::mul_glv`] through it.
#[doc(hidden)]
pub fn g1_mul_glv_lever(k: Fr) -> G1Projective {
    g1_generator().mul_glv(k)
}

/// Hashes an arbitrary message into `G1` (try-and-increment + cofactor
/// clearing by `h_eff`), with a domain-separation tag.
///
/// This is the `H: {0,1}* → G1` of BLS signatures. Not constant-time; see
/// the crate-level caveats.
///
/// # Examples
///
/// ```
/// use blscrypto::curves::hash_to_g1;
/// let p = hash_to_g1(b"flow rule", "EXAMPLE");
/// assert!(p.is_torsion_free());
/// ```
pub fn hash_to_g1(msg: &[u8], domain: &str) -> G1Projective {
    for ctr in 0..u64::MAX {
        let d0 = sha256_parts(domain, &[msg, &ctr.to_be_bytes(), &[0]]);
        let d1 = sha256_parts(domain, &[msg, &ctr.to_be_bytes(), &[1]]);
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d0);
        wide[32..].copy_from_slice(&d1);
        let x = Fp::from_bytes_wide(&wide);
        if let Some(mut point) = G1Affine::from_x(x) {
            // Choose the root's sign from the hash so both roots are reachable.
            if d0[31] & 1 == 1 {
                point = point.neg();
            }
            let cleared = clear_cofactor(&point);
            if !cleared.is_identity() {
                return cleared;
            }
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

// ----- serialization -------------------------------------------------------

impl G1Affine {
    /// Serialized size in bytes.
    pub const BYTES: usize = 97;

    /// Serializes as `flag || x || y` (flag 0 = point, 1 = infinity).
    pub fn to_bytes(self) -> [u8; 97] {
        let mut out = [0u8; 97];
        if self.infinity {
            out[0] = 1;
            return out;
        }
        out[1..49].copy_from_slice(&self.x.to_bytes_be());
        out[49..].copy_from_slice(&self.y.to_bytes_be());
        out
    }

    /// Deserializes and validates curve membership and `r`-torsion.
    ///
    /// # Errors
    ///
    /// Returns `None` for non-canonical encodings (a flag byte other than
    /// 0 or 1, a non-zero payload after the infinity flag, a coordinate not
    /// below `p`), off-curve points, or points outside the prime-order
    /// subgroup.
    pub fn from_bytes(bytes: &[u8; 97]) -> Option<Self> {
        match bytes[0] {
            0 => {}
            1 => return bytes[1..].iter().all(|&b| b == 0).then(G1Affine::identity),
            _ => return None,
        }
        let mut xb = [0u8; 48];
        xb.copy_from_slice(&bytes[1..49]);
        let mut yb = [0u8; 48];
        yb.copy_from_slice(&bytes[49..]);
        let p = G1Affine {
            x: Fp::from_bytes_be(&xb)?,
            y: Fp::from_bytes_be(&yb)?,
            infinity: false,
        };
        (p.is_on_curve() && p.to_projective().is_torsion_free()).then_some(p)
    }
}

impl G2Affine {
    /// Serialized size in bytes.
    pub const BYTES: usize = 193;

    /// Serializes as `flag || x || y` (flag 0 = point, 1 = infinity).
    pub fn to_bytes(self) -> [u8; 193] {
        let mut out = [0u8; 193];
        if self.infinity {
            out[0] = 1;
            return out;
        }
        out[1..97].copy_from_slice(&self.x.to_bytes_be());
        out[97..].copy_from_slice(&self.y.to_bytes_be());
        out
    }

    /// Deserializes and validates curve membership and `r`-torsion.
    ///
    /// # Errors
    ///
    /// Returns `None` for non-canonical encodings (a flag byte other than
    /// 0 or 1, a non-zero payload after the infinity flag, a coordinate not
    /// below `p`), off-curve points, or points outside the prime-order
    /// subgroup.
    pub fn from_bytes(bytes: &[u8; 193]) -> Option<Self> {
        match bytes[0] {
            0 => {}
            1 => return bytes[1..].iter().all(|&b| b == 0).then(G2Affine::identity),
            _ => return None,
        }
        let mut xb = [0u8; 96];
        xb.copy_from_slice(&bytes[1..97]);
        let mut yb = [0u8; 96];
        yb.copy_from_slice(&bytes[97..]);
        let p = G2Affine {
            x: Fp2::from_bytes_be(&xb)?,
            y: Fp2::from_bytes_be(&yb)?,
            infinity: false,
        };
        (p.is_on_curve() && p.to_projective().is_torsion_free()).then_some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::{BigInt, BigUint};
    use crate::bls::{PublicKey, SecretKey, Signature};
    use substrate::rng::{SeedableRng, StdRng};

    /// Computes the order of `E'(Fp2)` by evaluating the CM candidates and
    /// testing them against sample points on the twist.
    fn twist_order() -> BigUint {
        let p = BigUint::from_limbs_le(&Fp::MODULUS);
        let one = BigUint::one();
        let p2 = p.mul(&p);
        let p2p1 = p2.add(&one);
        // Trace over Fp: t = x + 1 (negative). |t - something| handled via BigInt.
        let t = BigInt::new(true, BigUint::from_u64(X_ABS).sub(&one)); // t = 1 - X_ABS
        // Trace over Fp2: t2 = t² - 2p.
        let t2 = t.mul(&t).sub(&BigInt::from_biguint(p.clone().add(&p)));
        // CM with discriminant -3: t2² - 4p² = -3 v².
        let four_p2 = p2.add(&p2).add(&p2).add(&p2);
        let t2_sq = t2.mul(&t2).into_biguint();
        let diff = four_p2.sub(&t2_sq);
        let (v2_sq, rem3) = diff.div_rem(&BigUint::from_u64(3));
        assert!(rem3.is_zero(), "CM discriminant is not -3?");
        let v2 = v2_sq.isqrt();
        assert_eq!(v2.mul(&v2), v2_sq, "v2 is not a perfect square");
        let v2 = BigInt::from_biguint(v2);
        let three_v2 = v2.add(&v2).add(&v2);
        let two = BigUint::from_u64(2);

        // The six curves in the sextic-twist class over Fq (q = p², CM disc -3)
        // have orders q + 1 - tr with tr in {±t2, ±(t2+3v)/2, ±(t2-3v)/2}.
        let mut traces = vec![
            t2.clone(),
            BigInt::new(!t2.is_negative(), t2.magnitude().clone()),
        ];
        for sum in [t2.add(&three_v2), t2.sub(&three_v2)] {
            let (half, rem) = sum.magnitude().div_rem(&two);
            if !rem.is_zero() {
                continue;
            }
            traces.push(BigInt::new(sum.is_negative(), half.clone()));
            traces.push(BigInt::new(!sum.is_negative(), half));
        }
        let mut candidates = Vec::new();
        for tr in traces {
            let n = BigInt::from_biguint(p2p1.clone()).sub(&tr);
            if !n.is_negative() {
                candidates.push(n.into_biguint());
            }
        }

        let r = BigUint::from_limbs_le(&Fr::MODULUS);
        let samples: Vec<G2Affine> = (0..3)
            .map(|i| g2_seeded(&format!("BLS12381_TWIST_ORDER_SAMPLE_{i}")))
            .collect();
        for n in candidates {
            if !n.rem(&r).is_zero() {
                continue;
            }
            // Hasse bound sanity: |n - (p²+1)| <= 2p.
            let lo = p2p1.clone().sub(&p.clone().add(&p));
            let hi = p2p1.clone().add(&p.clone().add(&p));
            if n < lo || n > hi {
                continue;
            }
            if samples
                .iter()
                .all(|s| s.to_projective().mul_limbs(n.limbs()).is_identity())
            {
                return n;
            }
        }
        panic!("no twist-order candidate annihilates the sample points");
    }

    #[test]
    fn cofactors_match_the_cm_derivation() {
        let p = BigUint::from_limbs_le(&Fp::MODULUS);
        let r = BigUint::from_limbs_le(&Fr::MODULUS);
        // #E(Fp) = p + 1 - t = p + X_ABS (t = 1 - X_ABS).
        let (h1, rem) = p.add(&BigUint::from_u64(X_ABS)).div_rem(&r);
        assert!(rem.is_zero(), "r does not divide #E(Fp)");
        assert_eq!(BigUint::from_limbs_le(&H1), h1);
        let (h2, rem) = twist_order().div_rem(&r);
        assert!(rem.is_zero(), "r does not divide #E'(Fp2)");
        assert_eq!(BigUint::from_limbs_le(&H2), h2);
    }

    /// λ and β from `x`, not from memory: `λ = x² − 1` is a root of
    /// `λ² + λ + 1 = r`, and β is the one of the two non-trivial cube roots
    /// of unity `(−1 ± √−3)/2` in `Fp` whose `φ` is `[λ]` on `G1`.
    #[test]
    fn glv_constants_match_the_derivation_from_x() {
        let one = BigUint::one();
        let x = BigUint::from_u64(X_ABS);
        let lambda = x.mul(&x).sub(&one);
        let r = BigUint::from_limbs_le(&Fr::MODULUS);
        assert_eq!(lambda.mul(&lambda).add(&lambda).add(&one), r);
        assert_eq!(
            BigUint::from_limbs_le(&[LAMBDA as u64, (LAMBDA >> 64) as u64]),
            lambda
        );
        assert_eq!(H_EFF, X_ABS + 1, "h_eff = 1 - x with x = -X_ABS");

        let sqrt_m3 = (-Fp::from_u64(3)).sqrt().expect("p = 1 (mod 3)");
        let half = Fp::from_u64(2).invert().expect("p is odd");
        let g = g1_generator();
        let (ga, lambda_g) = (g.to_affine(), g.mul_limbs_binary(lambda.limbs()).to_affine());
        let beta = [(sqrt_m3 - Fp::one()) * half, (-sqrt_m3 - Fp::one()) * half]
            .into_iter()
            .find(|b| (ga.x * *b, ga.y) == (lambda_g.x, lambda_g.y))
            .expect("one cube root of unity acts as [λ] on G1");
        assert!(beta != Fp::one() && beta.square() * beta == Fp::one());
        assert_eq!(Fp::from_raw(BETA), beta);
    }

    #[test]
    fn h_eff_clears_seeded_candidates_into_g1() {
        let mut outside = 0;
        for i in 0..16 {
            let p = g1_seeded(&format!("H_EFF_SAMPLE_{i}"));
            outside += usize::from(!p.to_projective().is_torsion_free());
            let cleared = clear_cofactor(&p);
            assert!(!cleared.is_identity(), "sample {i} cleared to the identity");
            assert!(cleared.is_torsion_free(), "sample {i} escaped G1");
            assert_eq!(cleared, p.to_projective().mul_limbs_binary(&[H_EFF]));
        }
        assert!(outside > 0, "no sample started outside G1");
    }

    /// Why GLV stays behind `SecretKey::sign`: φ is `[λ]` on `G1` alone, so
    /// on a curve point outside it the split computes some other point. The
    /// multiplications that take a point from outside — `is_torsion_free`,
    /// and so `from_bytes`, `mul_limbs` and the aggregate's received shares
    /// — keep the ladder, which is right for every curve point. A GLV `[r]P`
    /// would be `P + φ(P) + φ²(P)` (`r = 1 + λ + λ²`), the identity for
    /// *every* point: a subgroup check built on it would accept anything.
    #[test]
    fn glv_disagrees_with_the_ladder_outside_g1() {
        let p = (1u64..200)
            .filter_map(|x| G1Affine::from_x(Fp::from_u64(x)))
            .map(|p| p.to_projective())
            .find(|p| !p.is_torsion_free())
            .expect("an off-subgroup point among small x values");
        let lambda = [LAMBDA as u64, (LAMBDA >> 64) as u64];
        let mut rng = StdRng::seed_from_u64(0x6c5);
        for k in [Fr::from_raw([lambda[0], lambda[1], 0, 0]), Fr::random(&mut rng)] {
            assert_ne!(p.mul_glv(k), p.mul_limbs_binary(&k.to_raw()));
        }
        let phi = |q: &G1Projective| {
            let a = q.to_affine();
            Affine { x: a.x * Fp::from_raw(BETA), ..a }.to_projective()
        };
        assert!((p + phi(&p) + phi(&phi(&p))).is_identity());
        assert!(!p.is_torsion_free());
        assert!(G1Affine::from_bytes(&p.to_affine().to_bytes()).is_none());
    }

    #[test]
    fn generators_are_valid() {
        let g1 = g1_generator();
        assert!(!g1.is_identity());
        assert!(g1.to_affine().is_on_curve());
        assert!(g1.is_torsion_free());
        let g2 = g2_generator();
        assert!(!g2.is_identity());
        assert!(g2.to_affine().is_on_curve());
        assert!(g2.is_torsion_free());
    }

    #[test]
    fn group_law_g1() {
        let g = g1_generator();
        let two_g = g.double();
        assert_eq!(two_g, g.add(&g));
        assert_eq!(g.add(&g.neg()), G1Projective::identity());
        assert_eq!(
            g.add(&G1Projective::identity()),
            g,
            "identity is neutral"
        );
        // (2 + 3)g == 5g
        let five_g = g.mul_limbs(&[5]);
        assert_eq!(two_g.add(&g.mul_limbs(&[3])), five_g);
        // Associativity spot-check.
        let a = g.mul_limbs(&[17]);
        let b = g.mul_limbs(&[29]);
        let c = g.mul_limbs(&[43]);
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn group_law_g2() {
        let g = g2_generator();
        assert_eq!(g.double(), g.add(&g));
        assert_eq!(g.add(&g.neg()), G2Projective::identity());
        let a = g.mul_limbs(&[100]);
        let b = g.mul_limbs(&[23]);
        assert_eq!(a.add(&b), g.mul_limbs(&[123]));
    }

    #[test]
    fn scalar_mul_matches_fr_arithmetic() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = g1_generator();
        let a = Fr::random(&mut rng);
        let b = Fr::random(&mut rng);
        let lhs = g.mul_fr(a).mul_fr(b);
        let rhs = g.mul_fr(a * b);
        assert_eq!(lhs, rhs);
        let sum = g.mul_fr(a).add(&g.mul_fr(b));
        assert_eq!(sum, g.mul_fr(a + b));
    }

    #[test]
    fn wnaf_mul_matches_binary_ladder() {
        let mut rng = StdRng::seed_from_u64(0x57af);
        let g1 = g1_generator();
        let g2 = g2_generator();
        for _ in 0..6 {
            let k = Fr::random(&mut rng);
            assert_eq!(g1.mul_limbs(&k.to_raw()), g1.mul_limbs_binary(&k.to_raw()));
            assert_eq!(g2.mul_limbs(&k.to_raw()), g2.mul_limbs_binary(&k.to_raw()));
        }
        // Edge scalars.
        for limbs in [[0u64; 4], [1, 0, 0, 0], [31, 0, 0, 0]] {
            assert_eq!(g1.mul_limbs(&limbs), g1.mul_limbs_binary(&limbs));
        }
        assert!(G1Projective::identity().mul_limbs(&[7]).is_identity());
    }

    #[test]
    fn fixed_base_generator_mul_matches() {
        let mut rng = StdRng::seed_from_u64(0xf1c5);
        for _ in 0..4 {
            let k = Fr::random(&mut rng);
            assert_eq!(g1_mul_generator(k), g1_generator().mul_fr(k));
            assert_eq!(g2_mul_generator(k), g2_generator().mul_fr(k));
        }
        assert!(g1_mul_generator(Fr::zero()).is_identity());
        assert_eq!(g1_mul_generator(Fr::one()), g1_generator());
    }

    #[test]
    fn mixed_add_and_batch_normalize_agree_with_general_add() {
        let mut rng = StdRng::seed_from_u64(0xadd);
        let g = g1_generator();
        let mut points = Vec::new();
        for _ in 0..5 {
            points.push(g.mul_fr(Fr::random(&mut rng)));
        }
        points.push(G1Projective::identity());
        let affine = G1Projective::batch_normalize(&points);
        for (p, a) in points.iter().zip(affine.iter()) {
            assert_eq!(p.to_affine(), *a);
        }
        let a0 = affine[0];
        assert_eq!(points[1].add_mixed(&a0), points[1].add(&points[0]));
        assert_eq!(
            G1Projective::identity().add_mixed(&a0),
            points[0]
        );
        assert_eq!(points[0].add_mixed(&a0), points[0].double());
        assert_eq!(
            points[0].add_mixed(&a0.neg()),
            G1Projective::identity()
        );
    }

    #[test]
    fn order_annihilates_generators() {
        assert!(g1_generator().mul_limbs(&Fr::MODULUS).is_identity());
        assert!(g2_generator().mul_limbs(&Fr::MODULUS).is_identity());
    }

    #[test]
    fn hash_to_g1_properties() {
        let p1 = hash_to_g1(b"hello", "TEST");
        let p2 = hash_to_g1(b"hello", "TEST");
        assert_eq!(p1, p2, "hashing is deterministic");
        let p3 = hash_to_g1(b"hellp", "TEST");
        assert_ne!(p1, p3, "different messages map to different points");
        let p4 = hash_to_g1(b"hello", "OTHER-DOMAIN");
        assert_ne!(p1, p4, "domains separate");
        assert!(p1.is_torsion_free());
        assert!(p1.to_affine().is_on_curve());
    }

    #[test]
    fn g1_serialization_round_trip() {
        let g = g1_generator().mul_limbs(&[987654321]).to_affine();
        let bytes = g.to_bytes();
        assert_eq!(G1Affine::from_bytes(&bytes).unwrap(), g);
        let id = G1Affine::identity();
        assert_eq!(G1Affine::from_bytes(&id.to_bytes()).unwrap(), id);
        // Corrupted bytes are rejected.
        let mut bad = bytes;
        bad[20] ^= 0xff;
        assert!(G1Affine::from_bytes(&bad).is_none());
    }

    #[test]
    fn g2_serialization_round_trip() {
        let g = g2_generator().mul_limbs(&[31337]).to_affine();
        let bytes = g.to_bytes();
        assert_eq!(G2Affine::from_bytes(&bytes).unwrap(), g);
        let mut bad = bytes;
        bad[50] ^= 1;
        assert!(G2Affine::from_bytes(&bad).is_none());
    }

    #[test]
    fn non_canonical_point_encodings_are_rejected() {
        let sk = SecretKey::generate(&mut StdRng::seed_from_u64(0xc0de));
        let (sig, pk) = (sk.sign(b"m"), sk.public_key());
        let (sig_id, pk_id) = (
            Signature(G1Affine::identity()),
            PublicKey(G2Affine::identity()),
        );
        // Canonical bytes round-trip exactly, infinity included.
        for s in [sig, sig_id] {
            let decoded = Signature::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(decoded.to_bytes(), s.to_bytes());
        }
        for k in [pk, pk_id] {
            let decoded = PublicKey::from_bytes(&k.to_bytes()).unwrap();
            assert_eq!(decoded.to_bytes(), k.to_bytes());
        }
        // Every flag byte but 0 is rejected in front of a point (flag 1: a
        // point is garbage after the infinity flag), every one but 1 in
        // front of an all-zero payload.
        for flag in 1..=u8::MAX {
            let (mut s, mut k) = (sig.to_bytes(), pk.to_bytes());
            (s[0], k[0]) = (flag, flag);
            assert!(
                Signature::from_bytes(&s).is_err(),
                "flag {flag} before a G1 point"
            );
            assert!(
                PublicKey::from_bytes(&k).is_err(),
                "flag {flag} before a G2 point"
            );
            let (mut s, mut k) = (sig_id.to_bytes(), pk_id.to_bytes());
            (s[0], k[0]) = (flag, flag);
            assert_eq!(Signature::from_bytes(&s).is_ok(), flag == 1);
            assert_eq!(PublicKey::from_bytes(&k).is_ok(), flag == 1);
        }
        // A zero flag in front of a zero payload is the off-curve point (0, 0).
        assert!(Signature::from_bytes(&[0; 97]).is_err());
        assert!(PublicKey::from_bytes(&[0; 193]).is_err());
        // Garbage after the infinity flag, at either end of the payload.
        for at in [1, 96] {
            let mut s = sig_id.to_bytes();
            s[at] = 1;
            assert!(
                Signature::from_bytes(&s).is_err(),
                "G1 infinity, byte {at} set"
            );
        }
        for at in [1, 192] {
            let mut k = pk_id.to_bytes();
            k[at] = 0x80;
            assert!(
                PublicKey::from_bytes(&k).is_err(),
                "G2 infinity, byte {at} set"
            );
        }
    }

    #[test]
    fn from_bytes_rejects_points_outside_the_subgroup() {
        // Find a curve point with a small x that is NOT in the r-torsion
        // (the cofactor is > 1, so most curve points are not).
        let mut found = false;
        for xi in 1u64..200 {
            let x = Fp::from_u64(xi);
            if let Some(p) = G1Affine::from_x(x) {
                if !p.to_projective().is_torsion_free() {
                    assert!(
                        G1Affine::from_bytes(&p.to_bytes()).is_none(),
                        "off-subgroup point must be rejected"
                    );
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "expected an off-subgroup point among small x values");
    }

    #[test]
    fn projective_affine_round_trip() {
        let g = g1_generator();
        let p = g.mul_limbs(&[0xdead, 0xbeef]);
        assert_eq!(p.to_affine().to_projective(), p);
        assert_eq!(
            G1Projective::identity().to_affine(),
            G1Affine::identity()
        );
    }
}
