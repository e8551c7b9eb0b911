//! Minimal arbitrary-precision unsigned (and signed) integers — test oracle.
//!
//! Compiled for `cargo test` only. The shipped crate works on fixed-width
//! limbs with every curve constant a `const`; this deliberately simple
//! school-book implementation is what the tests re-derive those constants
//! with (the cofactors from the curve parameter `x` through the CM equation,
//! the Frobenius exponents, the final-exponentiation exponent
//! `(p⁶ + 1) / r`, the BLS polynomial parametrization of `p` and `r`), and
//! the oracle the Montgomery field arithmetic in [`crate::mont`] and
//! [`crate::fields`] is checked against.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer stored as little-endian `u64`
/// limbs with no trailing zero limbs (zero is the empty limb vector).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub(crate) struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub(crate) fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub(crate) fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub(crate) fn from_u64(v: u64) -> Self {
        let mut n = BigUint { limbs: vec![v] };
        n.normalize();
        n
    }

    /// Builds a value from little-endian `u64` limbs.
    pub(crate) fn from_limbs_le(limbs: &[u64]) -> Self {
        let mut n = BigUint {
            limbs: limbs.to_vec(),
        };
        n.normalize();
        n
    }

    /// Parses a big-endian hexadecimal string (no `0x` prefix required).
    ///
    /// # Panics
    ///
    /// Panics if the string contains non-hexadecimal characters.
    pub(crate) fn from_hex(s: &str) -> Self {
        let s = s.trim_start_matches("0x");
        let mut out = BigUint::zero();
        for c in s.chars() {
            let d = c.to_digit(16).expect("invalid hex digit") as u64;
            out = (out << 4) + BigUint::from_u64(d);
        }
        out
    }

    /// Renders the value as lowercase big-endian hexadecimal.
    pub(crate) fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:016x}"));
            }
        }
        s
    }

    /// Returns the little-endian limbs (no trailing zeros).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// `true` iff the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (zero has zero bits).
    pub(crate) fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(hi) => self.limbs.len() * 64 - hi.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian indexing).
    pub(crate) fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Adds `other` to `self`.
    pub(crate) fn add(&self, other: &BigUint) -> BigUint {
        let n = self.limbs.len().max(other.limbs.len());
        let mut out = Vec::with_capacity(n + 1);
        let mut carry = 0u64;
        for i in 0..n {
            let a = *self.limbs.get(i).unwrap_or(&0);
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Subtracts `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub(crate) fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = *other.limbs.get(i).unwrap_or(&0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// School-book multiplication.
    pub(crate) fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + (a as u128) * (b as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Binary long division; returns `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub(crate) fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let shift = self.bits() - divisor.bits();
        let mut rem = self.clone();
        let mut quo = BigUint::zero();
        let mut d = divisor.clone() << shift;
        for i in (0..=shift).rev() {
            if rem >= d {
                rem = rem.sub(&d);
                quo.set_bit(i);
            }
            d = d >> 1;
        }
        quo.normalize();
        rem.normalize();
        (quo, rem)
    }

    fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// `self mod m`.
    pub(crate) fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// Modular exponentiation `self^exp mod m` (square-and-multiply).
    pub(crate) fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut base = self.rem(m);
        let mut acc = BigUint::one().rem(m);
        for i in 0..exp.bits() {
            if exp.bit(i) {
                acc = acc.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        acc
    }

    /// Integer square root (largest `s` with `s*s <= self`), via bitwise
    /// refinement from the most significant candidate bit downwards.
    pub(crate) fn isqrt(&self) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let mut s = BigUint::zero();
        let top = self.bits() / 2 + 1;
        for i in (0..=top).rev() {
            let mut cand = s.clone();
            cand.set_bit(i);
            if cand.mul(&cand) <= *self {
                s = cand;
            }
        }
        s
    }

    /// Exponentiation without modulus (used for small exponents only).
    pub(crate) fn pow(&self, mut e: u32) -> BigUint {
        let mut base = self.clone();
        let mut acc = BigUint::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
            e >>= 1;
        }
        acc
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}
impl std::ops::Add<BigUint> for BigUint {
    type Output = BigUint;
    fn add(self, rhs: BigUint) -> BigUint {
        BigUint::add(&self, &rhs)
    }
}
impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}
impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}
impl std::ops::Shl<usize> for BigUint {
    type Output = BigUint;
    fn shl(self, shift: usize) -> BigUint {
        if self.is_zero() {
            return self;
        }
        let limb_shift = shift / 64;
        let bit_shift = shift % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}
impl std::ops::Shr<usize> for BigUint {
    type Output = BigUint;
    fn shr(self, shift: usize) -> BigUint {
        let limb_shift = shift / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = shift % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            for i in limb_shift..self.limbs.len() {
                let mut l = self.limbs[i] >> bit_shift;
                if i + 1 < self.limbs.len() {
                    l |= self.limbs[i + 1] << (64 - bit_shift);
                }
                out.push(l);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }
}

/// A signed arbitrary-precision integer (sign–magnitude).
///
/// Only used for the curve-order candidate computations where traces of
/// Frobenius may be negative.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct BigInt {
    /// `true` for strictly negative values; zero is always non-negative.
    negative: bool,
    magnitude: BigUint,
}

impl BigInt {
    /// Builds a non-negative value.
    pub(crate) fn from_biguint(v: BigUint) -> Self {
        BigInt {
            negative: false,
            magnitude: v,
        }
    }

    /// Builds a value with the given sign (`sign` ignored for zero).
    pub(crate) fn new(negative: bool, magnitude: BigUint) -> Self {
        let negative = negative && !magnitude.is_zero();
        BigInt {
            negative,
            magnitude,
        }
    }

    /// The magnitude.
    pub(crate) fn magnitude(&self) -> &BigUint {
        &self.magnitude
    }

    /// `true` iff strictly negative.
    pub(crate) fn is_negative(&self) -> bool {
        self.negative
    }

    /// Addition with sign handling.
    pub(crate) fn add(&self, other: &BigInt) -> BigInt {
        if self.negative == other.negative {
            BigInt::new(self.negative, self.magnitude.add(&other.magnitude))
        } else if self.magnitude >= other.magnitude {
            BigInt::new(self.negative, self.magnitude.sub(&other.magnitude))
        } else {
            BigInt::new(other.negative, other.magnitude.sub(&self.magnitude))
        }
    }

    /// Subtraction with sign handling.
    pub(crate) fn sub(&self, other: &BigInt) -> BigInt {
        self.add(&BigInt::new(!other.negative, other.magnitude.clone()))
    }

    /// Multiplication with sign handling.
    pub(crate) fn mul(&self, other: &BigInt) -> BigInt {
        BigInt::new(
            self.negative != other.negative,
            self.magnitude.mul(&other.magnitude),
        )
    }

    /// Converts to an unsigned value.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative.
    pub(crate) fn into_biguint(self) -> BigUint {
        assert!(!self.negative, "negative BigInt cannot become BigUint");
        self.magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let cases = [
            "1",
            "ff",
            "deadbeefcafebabe",
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        ];
        for c in cases {
            assert_eq!(BigUint::from_hex(c).to_hex(), c);
        }
        assert_eq!(BigUint::from_hex("0").to_hex(), "0");
        assert_eq!(BigUint::from_hex("0x00ff").to_hex(), "ff");
    }

    #[test]
    fn add_sub_inverse() {
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0");
        let b = BigUint::from_hex("fedcba9876543210");
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn mul_div_round_trip() {
        let a = BigUint::from_hex("1a0111ea397fe69a4b1ba7b6434bacd7");
        let b = BigUint::from_hex("73eda753299d7d48");
        let prod = a.mul(&b);
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
        let prod1 = prod.add(&BigUint::one());
        let (q1, r1) = prod1.div_rem(&b);
        assert_eq!(q1, a);
        assert_eq!(r1, BigUint::one());
    }

    #[test]
    fn shifts() {
        let a = BigUint::from_hex("123456789abcdef");
        assert_eq!((a.clone() << 68) >> 68, a);
        assert_eq!((a.clone() << 3).to_hex(), "91a2b3c4d5e6f78");
    }

    #[test]
    fn isqrt_exact_and_inexact() {
        let a = BigUint::from_hex("fedcba9876543210fedcba9876543210");
        let sq = a.mul(&a);
        assert_eq!(sq.isqrt(), a);
        assert_eq!(sq.add(&BigUint::one()).isqrt(), a);
        assert_eq!(sq.sub(&BigUint::one()).isqrt(), a.sub(&BigUint::one()));
    }

    #[test]
    fn mod_pow_small() {
        // 5^117 mod 19 == 1 (since 5^9 mod 19 = 1 and 9 | 117? check via direct loop)
        let base = BigUint::from_u64(5);
        let m = BigUint::from_u64(19);
        let mut expect = 1u64;
        for _ in 0..117 {
            expect = expect * 5 % 19;
        }
        let got = base.mod_pow(&BigUint::from_u64(117), &m);
        assert_eq!(got, BigUint::from_u64(expect));
    }

    #[test]
    fn signed_arithmetic() {
        let a = BigInt::new(true, BigUint::from_u64(7));
        let b = BigInt::from_biguint(BigUint::from_u64(10));
        let c = a.add(&b);
        assert!(!c.is_negative());
        assert_eq!(c.magnitude(), &BigUint::from_u64(3));
        let d = a.mul(&a);
        assert!(!d.is_negative());
        assert_eq!(d.magnitude(), &BigUint::from_u64(49));
        let e = a.sub(&b);
        assert!(e.is_negative());
        assert_eq!(e.magnitude(), &BigUint::from_u64(17));
    }

    #[test]
    fn bits_and_bit_access() {
        let a = BigUint::from_hex("8000000000000001");
        assert_eq!(a.bits(), 64);
        assert!(a.bit(0));
        assert!(a.bit(63));
        assert!(!a.bit(1));
        assert!(!a.bit(64));
    }
}
