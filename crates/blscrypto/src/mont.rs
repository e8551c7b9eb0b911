//! Generic fixed-width Montgomery arithmetic over `[u64; N]` limbs.
//!
//! Both base fields of BLS12-381 — the 381-bit `Fp` (6 limbs) and the
//! 255-bit scalar field `Fr` (4 limbs) — share this implementation. All
//! routines are `const fn` where possible so the Montgomery constants
//! (`R mod p`, `R^2 mod p`, `-p^{-1} mod 2^64`) are derived at compile time
//! from the modulus alone; nothing beyond the modulus itself is trusted from
//! memory, and the moduli are re-derived from the BLS parameter `x` in tests.
//!
//! The implementation is standard CIOS (coarsely integrated operand
//! scanning). It is **not** constant-time; this crate is a research artifact
//! mirroring the paper's use of the (also variable-time) PBC library.

/// Adds two N-limb numbers, returning the carry.
#[inline(always)]
pub const fn adc<const N: usize>(a: [u64; N], b: [u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut carry = 0u64;
    let mut i = 0;
    while i < N {
        let s = a[i] as u128 + b[i] as u128 + carry as u128;
        out[i] = s as u64;
        carry = (s >> 64) as u64;
        i += 1;
    }
    (out, carry)
}

/// Subtracts `b` from `a`, returning the borrow (0 or 1).
#[inline(always)]
pub const fn sbb<const N: usize>(a: [u64; N], b: [u64; N]) -> ([u64; N], u64) {
    let mut out = [0u64; N];
    let mut borrow = 0u64;
    let mut i = 0;
    while i < N {
        let d = (a[i] as u128)
            .wrapping_sub(b[i] as u128)
            .wrapping_sub(borrow as u128);
        out[i] = d as u64;
        borrow = ((d >> 64) as u64) & 1;
        i += 1;
    }
    (out, borrow)
}

/// Compares `a < b`.
#[inline(always)]
pub const fn lt<const N: usize>(a: [u64; N], b: [u64; N]) -> bool {
    let mut i = N;
    while i > 0 {
        i -= 1;
        if a[i] < b[i] {
            return true;
        }
        if a[i] > b[i] {
            return false;
        }
    }
    false
}

/// Modular addition `a + b mod m` for reduced inputs (`a, b < m < 2^(64N-1)`).
#[inline(always)]
pub const fn add_mod<const N: usize>(a: [u64; N], b: [u64; N], m: [u64; N]) -> [u64; N] {
    let (s, carry) = adc(a, b);
    // m has at least one spare top bit for both fields (381 < 384, 255 < 256),
    // so a + b never overflows N limbs.
    debug_assert!(carry == 0);
    let _ = carry;
    if lt(s, m) {
        s
    } else {
        sbb(s, m).0
    }
}

/// Modular subtraction `a - b mod m` for reduced inputs.
#[inline(always)]
pub const fn sub_mod<const N: usize>(a: [u64; N], b: [u64; N], m: [u64; N]) -> [u64; N] {
    let (d, borrow) = sbb(a, b);
    if borrow == 0 {
        d
    } else {
        adc(d, m).0
    }
}

/// Modular negation `-a mod m` for a reduced input.
#[inline(always)]
pub const fn neg_mod<const N: usize>(a: [u64; N], m: [u64; N]) -> [u64; N] {
    let mut is_zero = true;
    let mut i = 0;
    while i < N {
        if a[i] != 0 {
            is_zero = false;
        }
        i += 1;
    }
    if is_zero {
        a
    } else {
        sbb(m, a).0
    }
}

/// Computes `-m^{-1} mod 2^64` by Newton iteration (m must be odd).
pub const fn mont_inv64(m0: u64) -> u64 {
    // Newton: inv_{k+1} = inv_k * (2 - m0 * inv_k); 6 iterations give 64 bits.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Computes `2^(64N) mod m` by repeated modular doubling of 1.
pub const fn mont_r<const N: usize>(m: [u64; N]) -> [u64; N] {
    let mut one = [0u64; N];
    one[0] = 1;
    let mut x = one;
    let mut i = 0;
    while i < 64 * N {
        x = add_mod(x, x, m);
        i += 1;
    }
    x
}

/// Computes `2^(128N) mod m = R^2 mod m` by doubling `R` another `64N` times.
pub const fn mont_r2<const N: usize>(m: [u64; N]) -> [u64; N] {
    let mut x = mont_r(m);
    let mut i = 0;
    while i < 64 * N {
        x = add_mod(x, x, m);
        i += 1;
    }
    x
}

/// CIOS Montgomery multiplication: returns `a * b * R^{-1} mod m`.
///
/// `inv` must be `-m^{-1} mod 2^64` (see [`mont_inv64`]).
#[inline]
pub fn mont_mul<const N: usize>(a: [u64; N], b: [u64; N], m: [u64; N], inv: u64) -> [u64; N] {
    let mut t = [0u64; N];
    let mut t_n = 0u64;
    for i in 0..N {
        // t += a[i] * b
        let mut carry = 0u64;
        for j in 0..N {
            let s = t[j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
            t[j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t_n as u128 + carry as u128;
        t_n = s as u64;
        let t_np = (s >> 64) as u64;

        // reduce: m_factor = t[0] * inv mod 2^64; t += m_factor * m; t >>= 64
        let m_factor = t[0].wrapping_mul(inv);
        let s = t[0] as u128 + m_factor as u128 * m[0] as u128;
        debug_assert_eq!(s as u64, 0);
        let mut carry = (s >> 64) as u64;
        for j in 1..N {
            let s = t[j] as u128 + m_factor as u128 * m[j] as u128 + carry as u128;
            t[j - 1] = s as u64;
            carry = (s >> 64) as u64;
        }
        let s = t_n as u128 + carry as u128;
        t[N - 1] = s as u64;
        t_n = t_np.wrapping_add((s >> 64) as u64);
    }
    // t (with the extra limb t_n) is < 2m; final conditional subtraction.
    if t_n != 0 || !lt(t, m) {
        sbb(t, m).0
    } else {
        t
    }
}

/// Schoolbook full product `a * b` into `M = 2N` limbs (no reduction).
///
/// `M` must equal `2 * N`; Rust's const generics cannot express the doubled
/// width, so callers pass both explicitly (checked by debug_assert).
#[inline]
pub const fn mul_wide<const N: usize, const M: usize>(a: [u64; N], b: [u64; N]) -> [u64; M] {
    debug_assert!(M == 2 * N);
    let mut t = [0u64; M];
    let mut i = 0;
    while i < N {
        let mut carry = 0u64;
        let mut j = 0;
        while j < N {
            let s = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
            j += 1;
        }
        t[i + N] = carry;
        i += 1;
    }
    t
}

/// Full squaring `a * a` into `M = 2N` limbs: half the cross products,
/// doubled, plus the diagonal.
#[inline]
pub fn sqr_wide<const N: usize, const M: usize>(a: [u64; N]) -> [u64; M] {
    debug_assert!(M == 2 * N);
    let mut t = [0u64; M];
    // Cross products a[i]*a[j] for i < j.
    for i in 0..N {
        let mut carry = 0u64;
        for j in (i + 1)..N {
            let s = t[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry as u128;
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        t[i + N] = carry;
    }
    // Double them (top limb of t is < 2^63 here, so no carry is lost).
    let mut carry = 0u64;
    for limb in t.iter_mut() {
        let next = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    debug_assert_eq!(carry, 0);
    // Add the diagonal a[i]^2 terms.
    let mut carry = 0u64;
    for i in 0..N {
        let d = a[i] as u128 * a[i] as u128;
        let s = t[2 * i] as u128 + (d as u64) as u128 + carry as u128;
        t[2 * i] = s as u64;
        carry = (s >> 64) as u64;
        let s = t[2 * i + 1] as u128 + ((d >> 64) as u64) as u128 + carry as u128;
        t[2 * i + 1] = s as u64;
        carry = (s >> 64) as u64;
    }
    debug_assert_eq!(carry, 0);
    t
}

/// Montgomery reduction of a `2N`-limb value `t < m * R` down to `N` limbs:
/// returns `t * R^{-1} mod m`, fully reduced below `m`.
///
/// Together with [`mul_wide`] this is the SOS (separated operand scanning)
/// form of Montgomery multiplication; it exists alongside the CIOS
/// [`mont_mul`] so extension-field code can add/subtract *unreduced* double
/// width products and pay for a single reduction (lazy reduction — valid
/// whenever the accumulated wide value stays below `m * R`).
#[inline]
pub fn redc<const N: usize, const M: usize>(mut t: [u64; M], m: [u64; N], inv: u64) -> [u64; N] {
    debug_assert!(M == 2 * N);
    let mut extra = 0u64; // the 2^(64*M) bit of the running sum
    for i in 0..N {
        let mf = t[i].wrapping_mul(inv);
        let mut carry = 0u64;
        for j in 0..N {
            let s = t[i + j] as u128 + mf as u128 * m[j] as u128 + carry as u128;
            t[i + j] = s as u64;
            carry = (s >> 64) as u64;
        }
        let mut k = i + N;
        while carry != 0 && k < M {
            let s = t[k] as u128 + carry as u128;
            t[k] = s as u64;
            carry = (s >> 64) as u64;
            k += 1;
        }
        extra += carry;
    }
    let mut out = [0u64; N];
    out.copy_from_slice(&t[N..]);
    // t < m*R implies (t + q*m)/R < 2m, so one conditional subtract suffices
    // and `extra` is at most 1.
    debug_assert!(extra <= 1);
    if extra != 0 || !lt(out, m) {
        sbb(out, m).0
    } else {
        out
    }
}

/// Montgomery squaring: `a * a * R^{-1} mod m` via [`sqr_wide`] + [`redc`].
#[inline]
pub fn mont_sqr<const N: usize, const M: usize>(a: [u64; N], m: [u64; N], inv: u64) -> [u64; N] {
    redc::<N, M>(sqr_wide::<N, M>(a), m, inv)
}

/// Wide addition without reduction; the carry out of limb `M-1` must be zero
/// (callers keep accumulated values below `m * R < 2^(64M)`).
#[inline]
pub fn wide_add<const M: usize>(a: [u64; M], b: [u64; M]) -> [u64; M] {
    let (s, carry) = adc(a, b);
    debug_assert_eq!(carry, 0);
    s
}

/// Wide subtraction `a - b` for `a >= b` (callers add a `p^2` offset first
/// when the difference could go negative).
#[inline]
pub fn wide_sub<const M: usize>(a: [u64; M], b: [u64; M]) -> [u64; M] {
    let (d, borrow) = sbb(a, b);
    debug_assert_eq!(borrow, 0);
    d
}

/// `a == 1`.
#[inline(always)]
fn is_one<const N: usize>(a: &[u64; N]) -> bool {
    a[0] == 1 && a[1..].iter().all(|&l| l == 0)
}

/// Shifts `a` right by `k < 64` bits.
#[inline(always)]
fn shr<const N: usize>(a: [u64; N], k: u32) -> [u64; N] {
    if k == 0 {
        return a;
    }
    let mut out = [0u64; N];
    for i in 0..N {
        out[i] = a[i] >> k;
        if i + 1 < N {
            out[i] |= a[i + 1] << (64 - k);
        }
    }
    out
}

/// `a / 2 mod m` for a reduced input (`m` odd): an odd `a` borrows `m`
/// first. `a + m < 2m` fits the limbs' spare top bit.
#[inline(always)]
fn half_mod<const N: usize>(a: [u64; N], m: [u64; N]) -> [u64; N] {
    shr(if a[0] & 1 == 1 { adc(a, m).0 } else { a }, 1)
}

/// `c · a⁻¹ mod m` by the binary extended Euclidean algorithm, for an odd
/// prime `m` and reduced `0 < a < m`, `c < m`.
///
/// Passing `c = R² mod m` with `a` in Montgomery form returns the inverse
/// in Montgomery form: `R² · (aR)⁻¹ = a⁻¹R`. Only shifts, additions and
/// subtractions — an order of magnitude below the `m − 2` exponentiation
/// it replaces. Invariant: `x1·a₀ ≡ c·u` and `x2·a₀ ≡ c·v (mod m)`.
pub fn inv_mod<const N: usize>(a: [u64; N], c: [u64; N], m: [u64; N]) -> [u64; N] {
    let (mut u, mut v) = (a, m);
    let (mut x1, mut x2) = (c, [0u64; N]);
    while !is_one(&u) && !is_one(&v) {
        while u[0] & 1 == 0 {
            u = shr(u, 1);
            x1 = half_mod(x1, m);
        }
        while v[0] & 1 == 0 {
            v = shr(v, 1);
            x2 = half_mod(x2, m);
        }
        // gcd(a, m) = 1, so u = v only at 1, which the loop guard caught.
        if lt(u, v) {
            v = sbb(v, u).0;
            x2 = sub_mod(x2, x1, m);
        } else {
            u = sbb(u, v).0;
            x1 = sub_mod(x1, x2, m);
        }
    }
    if is_one(&u) {
        x1
    } else {
        x2
    }
}

/// The Jacobi symbol `(a / m)` for odd `m` and reduced `a`, by the binary
/// algorithm (quadratic reciprocity on subtract-and-shift steps). For a
/// prime `m` this is the Legendre symbol: `1` for a nonzero square, `-1`
/// for a non-residue, `0` for zero.
pub fn jacobi<const N: usize>(mut a: [u64; N], mut m: [u64; N]) -> i32 {
    let mut sign = 1;
    loop {
        if a == [0u64; N] {
            return if is_one(&m) { sign } else { 0 };
        }
        // (2 / m) = -1 iff m ≡ ±3 (mod 8): strip a's factors of two.
        while a[0] & 1 == 0 {
            let k = if a[0] == 0 { 63 } else { a[0].trailing_zeros() };
            if k & 1 == 1 && matches!(m[0] & 7, 3 | 5) {
                sign = -sign;
            }
            a = shr(a, k);
        }
        if lt(a, m) {
            // Reciprocity: the sign flips iff both are ≡ 3 (mod 4).
            if a[0] & m[0] & 3 == 3 {
                sign = -sign;
            }
            (a, m) = (m, a);
        }
        a = sbb(a, m).0;
    }
}

/// Montgomery exponentiation with a little-endian limb exponent: a width-5
/// sliding window over the odd powers `base¹, base³, …, base³¹`, one
/// multiplication per window instead of one per set bit.
///
/// `base` is in Montgomery form; the result is in Montgomery form. `one_mont`
/// must be `R mod m`.
pub fn mont_pow<const N: usize>(
    base: [u64; N],
    exp: &[u64],
    m: [u64; N],
    inv: u64,
    one_mont: [u64; N],
) -> [u64; N] {
    const WIDTH: usize = 5;
    let bit = |i: usize| (exp[i / 64] >> (i % 64)) & 1;
    let square = mont_mul(base, base, m, inv);
    let mut odd = [base; 1 << (WIDTH - 1)];
    for j in 1..odd.len() {
        odd[j] = mont_mul(odd[j - 1], square, m, inv);
    }
    let mut acc: Option<[u64; N]> = None;
    let mut i = exp.len() * 64;
    while i > 0 {
        // A set bit opens a window `lo..i` of at most WIDTH bits that ends on
        // a set bit; a clear bit is a window of its own.
        let mut lo = i - 1;
        if bit(lo) == 1 {
            lo = i.saturating_sub(WIDTH);
            while bit(lo) == 0 {
                lo += 1;
            }
        }
        if let Some(a) = acc.as_mut() {
            for _ in lo..i {
                *a = mont_mul(*a, *a, m, inv);
            }
        }
        if bit(i - 1) == 1 {
            let d = (lo..i).rev().fold(0, |d, b| d << 1 | bit(b) as usize);
            acc = Some(acc.map_or(odd[d / 2], |a| mont_mul(a, odd[d / 2], m, inv)));
        }
        i = lo;
    }
    acc.unwrap_or(one_mont)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;

    const P: [u64; 6] = [
        0xb9fe_ffff_ffff_aaab,
        0x1eab_fffe_b153_ffff,
        0x6730_d2a0_f6b0_f624,
        0x6477_4b84_f385_12bf,
        0x4b1b_a7b6_434b_acd7,
        0x1a01_11ea_397f_e69a,
    ];

    fn p_big() -> BigUint {
        BigUint::from_limbs_le(&P)
    }

    #[test]
    fn inv64_is_inverse() {
        let inv = mont_inv64(P[0]);
        assert_eq!(P[0].wrapping_mul(inv.wrapping_neg()), 1);
    }

    #[test]
    fn r_and_r2_match_oracle() {
        let r = mont_r(P);
        let expect = (BigUint::one() << 384).rem(&p_big());
        assert_eq!(BigUint::from_limbs_le(&r), expect);
        let r2 = mont_r2(P);
        let expect2 = (BigUint::one() << 768).rem(&p_big());
        assert_eq!(BigUint::from_limbs_le(&r2), expect2);
    }

    #[test]
    fn mont_mul_matches_oracle() {
        let inv = mont_inv64(P[0]);
        let a: [u64; 6] = [1, 2, 3, 4, 5, 6];
        let b: [u64; 6] = [0xffff_ffff_ffff_fff1, 7, 0, 99, 0x8000_0000_0000_0000, 1];
        // mont_mul(a,b) = a*b*R^{-1} mod p, so mont_mul(a*R, b) = a*b mod p.
        let r2 = mont_r2(P);
        let a_mont = mont_mul(a, r2, P, inv);
        let prod = mont_mul(a_mont, b, P, inv);
        let expect = BigUint::from_limbs_le(&a)
            .mul(&BigUint::from_limbs_le(&b))
            .rem(&p_big());
        assert_eq!(BigUint::from_limbs_le(&prod), expect);
    }

    #[test]
    fn mul_wide_sqr_wide_redc_match_oracle() {
        let inv = mont_inv64(P[0]);
        let a: [u64; 6] = [
            0xb9fe_ffff_ffff_aaaa,
            0x1eab_fffe_b153_fffe,
            0x6730_d2a0_f6b0_f623,
            0x6477_4b84_f385_12be,
            0x4b1b_a7b6_434b_acd6,
            0x1a01_11ea_397f_e699,
        ]; // p - 1: the largest reduced element
        let b: [u64; 6] = [0xffff_ffff_ffff_fff1, 7, 0, 99, 0x8000_0000_0000_0000, 1];
        let w: [u64; 12] = mul_wide(a, b);
        let expect = BigUint::from_limbs_le(&a).mul(&BigUint::from_limbs_le(&b));
        assert_eq!(BigUint::from_limbs_le(&w), expect);

        let sq: [u64; 12] = sqr_wide(a);
        let expect_sq = BigUint::from_limbs_le(&a).mul(&BigUint::from_limbs_le(&a));
        assert_eq!(BigUint::from_limbs_le(&sq), expect_sq);

        // redc(mul_wide(a, b)) must agree with CIOS mont_mul exactly.
        assert_eq!(redc::<6, 12>(w, P, inv), mont_mul(a, b, P, inv));
        assert_eq!(mont_sqr::<6, 12>(a, P, inv), mont_mul(a, a, P, inv));
    }

    #[test]
    fn redc_handles_extra_bit() {
        // The largest input redc accepts is just under p * R; build one close
        // to it (p-1 times R-ish) and cross-check against the oracle.
        let inv = mont_inv64(P[0]);
        let mut t = [0u64; 12];
        for (i, limb) in P.iter().enumerate() {
            t[i + 6] = *limb;
        }
        t[6] -= 1; // t = (p - 1) * 2^384 < p * R
        let got = redc::<6, 12>(t, P, inv);
        let expect = BigUint::from_limbs_le(&t).rem(&p_big());
        // redc divides by R mod p: t * R^{-1} = (p-1) mod p.
        let _ = expect;
        let r_inv_form = BigUint::from_limbs_le(&got);
        let pm1 = p_big().sub(&BigUint::one());
        assert_eq!(r_inv_form, pm1);
    }

    #[test]
    fn wide_add_sub_roundtrip() {
        let a: [u64; 12] = core::array::from_fn(|i| (i as u64).wrapping_mul(0x9e37_79b9));
        let b: [u64; 12] = core::array::from_fn(|i| (i as u64) << 3);
        assert_eq!(wide_sub(wide_add(a, b), b), a);
    }

    #[test]
    fn add_sub_neg_mod() {
        let a: [u64; 6] = [5, 0, 0, 0, 0, 0];
        let z = sub_mod(a, a, P);
        assert_eq!(z, [0u64; 6]);
        let n = neg_mod(a, P);
        assert_eq!(add_mod(a, n, P), [0u64; 6]);
        assert_eq!(neg_mod([0u64; 6], P), [0u64; 6]);
    }

    #[test]
    fn pow_matches_oracle() {
        let inv = mont_inv64(P[0]);
        let one_m = mont_r(P);
        let r2 = mont_r2(P);
        let base: [u64; 6] = [3, 0, 0, 0, 0, 0];
        let base_m = mont_mul(base, r2, P, inv);
        let exp = [0xdead_beefu64, 0xcafe];
        let got_m = mont_pow(base_m, &exp, P, inv, one_m);
        let got = mont_mul(got_m, [1, 0, 0, 0, 0, 0], P, inv); // out of Montgomery
        let expect = BigUint::from_u64(3).mod_pow(&BigUint::from_limbs_le(&exp), &p_big());
        assert_eq!(BigUint::from_limbs_le(&got), expect);
    }
}
