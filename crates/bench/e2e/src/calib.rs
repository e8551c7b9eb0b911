//! Host-speed calibration: two fixed kernels timed beside the work.
//!
//! The hosts this benchmark runs on are shared. A virtual CPU slows down by
//! up to 2.5x for seconds to minutes at a time, each virtual CPU by itself
//! (another tenant on the sibling hyperthread), and ten runs of the same
//! code spread by 30-40 % whatever estimator is put over one run's raw
//! timings. So every workload times two kernels every fraction of a second
//! (a node workload after every batch, on as many threads as the host has
//! CPUs) and reports its timings *at reference speed*: each slice's raw
//! times divided by [`HostSpeed::factor`] of the kernels' times right after
//! it.
//!
//! The kernels are the benchmark's own and frozen with it; neither calls
//! into the program, so no change to the program can move them. They differ
//! in what slows them down. The *multiply* kernel is 384-bit Montgomery
//! multiplications modulo the BLS12-381 base-field prime, the instruction
//! mix of the program's hottest loop and the code a busy sibling
//! hyperthread hurts most. The *general* kernel fills and prunes an ordered
//! map of small heap vectors: allocation, pointer chasing, branches and
//! cache traffic, the mix of the simulator, the protocol handlers and the
//! threads waking each other. A workload is a blend of the two
//! ([`NODE_MUL_SHARE`], [`SIM_MUL_SHARE`]).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The BLS12-381 base-field modulus, little-endian limbs.
const P: [u64; 6] = [
    0xb9fe_ffff_ffff_aaab,
    0x1eab_fffe_b153_ffff,
    0x6730_d2a0_f6b0_f624,
    0x6477_4b84_f385_12bf,
    0x4b1b_a7b6_434b_acd7,
    0x1a01_11ea_397f_e69a,
];
/// `-P^-1 mod 2^64`.
const INV: u64 = 0x89f3_fffc_fffc_fffd;

/// Multiplications per run of the multiply kernel.
const KERNEL_MULS: usize = 3 * 20_000;
/// Insertions per run of the general kernel.
const KERNEL_INSERTS: usize = 8_000;

/// The multiply kernel's time on a quiet 2.1 GHz Xeon virtual CPU, ms.
/// Timings "at reference speed" are scaled to a host on which the kernels
/// take [`MUL_REFERENCE_MS`] and [`GENERAL_REFERENCE_MS`]; the constants are
/// part of the metrics' definition, not measured.
pub const MUL_REFERENCE_MS: f64 = 3.3;
/// The general kernel's time on the same quiet virtual CPU, ms.
pub const GENERAL_REFERENCE_MS: f64 = 1.2;

/// The share of a node workload's time that follows the multiply kernel,
/// the rest following the general one: real BLS on 22 threads. Fitted once
/// on the parent commit as the value that minimises the run-to-run spread
/// (flat between 0.5 and 0.6; see the README) and fixed: like the reference
/// times it is part of the metrics' definition.
pub const NODE_MUL_SHARE: f64 = 0.55;
/// The same for the single-threaded simulator workloads (modeled crypto).
pub const SIM_MUL_SHARE: f64 = 0.2;

type Fp = [u64; 6];

/// Montgomery product `a * b / 2^384 mod P` (CIOS), inputs below `P`.
fn mont_mul(a: &Fp, b: &Fp) -> Fp {
    let mut t = [0u64; 8];
    for &ai in a {
        let mut carry = 0u128;
        for j in 0..6 {
            let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = t[6] as u128 + carry;
        t[6] = s as u64;
        t[7] = (s >> 64) as u64;

        let m = t[0].wrapping_mul(INV);
        let mut carry = (t[0] as u128 + m as u128 * P[0] as u128) >> 64;
        for j in 1..6 {
            let s = t[j] as u128 + m as u128 * P[j] as u128 + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = t[6] as u128 + carry;
        t[5] = s as u64;
        t[6] = t[7] + (s >> 64) as u64;
    }
    let mut r = [t[0], t[1], t[2], t[3], t[4], t[5]];
    // One conditional subtraction brings the result below `P`.
    let mut d = [0u64; 6];
    let mut borrow = 0u64;
    for j in 0..6 {
        let (x, b1) = r[j].overflowing_sub(P[j]);
        let (x, b2) = x.overflowing_sub(borrow);
        d[j] = x;
        borrow = u64::from(b1 | b2);
    }
    if t[6] != 0 || borrow == 0 {
        r = d;
    }
    r
}

/// One run of the multiply kernel: three interleaved chains of products.
/// Returns ms.
fn mul_kernel_ms() -> f64 {
    let mut a: Fp = [3, 1, 4, 1, 5, 9];
    let mut b: Fp = [2, 7, 1, 8, 2, 8];
    let mut c: Fp = [1, 6, 1, 8, 0, 3];
    let t = Instant::now();
    for _ in 0..KERNEL_MULS / 3 {
        a = mont_mul(&a, &b);
        b = mont_mul(&b, &c);
        c = mont_mul(&c, &a);
    }
    black_box((a, b, c));
    t.elapsed().as_secs_f64() * 1e3
}

/// One run of the general kernel: an ordered map of three-word heap
/// vectors under xorshift keys, every fourth step also a removal. Returns
/// ms.
fn general_kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x = 88_172_645_463_325_252u64;
    for _ in 0..KERNEL_INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 5000, vec![x; 3]);
        if x & 3 == 0 {
            map.remove(&((x >> 8) % 5000));
        }
    }
    black_box(map.values().map(|v| v[0]).fold(0, u64::wrapping_add));
    t.elapsed().as_secs_f64() * 1e3
}

/// The two kernels' times at one moment, ms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostSpeed {
    /// The multiply kernel.
    pub mul_ms: f64,
    /// The general kernel.
    pub general_ms: f64,
}

impl HostSpeed {
    /// Times both kernels on this thread.
    pub fn measure() -> HostSpeed {
        HostSpeed {
            mul_ms: mul_kernel_ms(),
            general_ms: general_kernel_ms(),
        }
    }

    /// Times both kernels on each of `threads` threads at the same time,
    /// so that every CPU of a small host is sampled, and returns the mean.
    pub fn measure_on(threads: usize) -> HostSpeed {
        let all: Vec<HostSpeed> = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(HostSpeed::measure)).collect();
            let own = HostSpeed::measure();
            others
                .into_iter()
                .map(|h| h.join().unwrap_or(own))
                .chain([own])
                .collect()
        });
        HostSpeed::mean(&all)
    }

    /// The mean of some samples; all zero for none.
    pub fn mean(samples: &[HostSpeed]) -> HostSpeed {
        let n = samples.len().max(1) as f64;
        HostSpeed {
            mul_ms: samples.iter().map(|h| h.mul_ms).sum::<f64>() / n,
            general_ms: samples.iter().map(|h| h.general_ms).sum::<f64>() / n,
        }
    }

    /// By how much a workload that spends `mul_share` of its time like the
    /// multiply kernel and the rest like the general one ran slower than at
    /// reference speed while the kernels took this long.
    pub fn factor(&self, mul_share: f64) -> f64 {
        mul_share * self.mul_ms / MUL_REFERENCE_MS
            + (1.0 - mul_share) * self.general_ms / GENERAL_REFERENCE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE: Fp = [1, 0, 0, 0, 0, 0];

    /// `R = 2^384 mod P`, the Montgomery form of one.
    const R: Fp = [
        0x7609_0000_0002_fffd,
        0xebf4_000b_c40c_0002,
        0x5f48_9857_53c7_58ba,
        0x77ce_5853_7052_5745,
        0x5c07_1a97_a256_ec6d,
        0x15f6_5ec3_fa80_e493,
    ];

    #[test]
    fn montgomery_one_is_the_identity() {
        let x: Fp = [3, 1, 4, 1, 5, 9];
        assert_eq!(mont_mul(&x, &R), x);
        assert_eq!(mont_mul(&R, &R), R);
        // Multiplying by plain one divides by R; multiplying back by R^2
        // would undo it, so twice by one is not the identity.
        assert_ne!(mont_mul(&x, &ONE), x);
    }

    #[test]
    fn the_kernel_stays_below_the_modulus_and_takes_time() {
        let mut a: Fp = [3, 1, 4, 1, 5, 9];
        let b: Fp = [2, 7, 1, 8, 2, 8];
        for _ in 0..1000 {
            a = mont_mul(&a, &b);
            let below = a.iter().rev().cmp(P.iter().rev()) == std::cmp::Ordering::Less;
            assert!(below);
        }
        let h = HostSpeed::measure_on(2);
        assert!(h.mul_ms > 0.0 && h.general_ms > 0.0);
    }

    #[test]
    fn the_factor_is_one_at_reference_speed_and_blends_the_two_kernels() {
        let at_ref = HostSpeed {
            mul_ms: MUL_REFERENCE_MS,
            general_ms: GENERAL_REFERENCE_MS,
        };
        assert!((at_ref.factor(0.55) - 1.0).abs() < 1e-12);
        // Multiplications at half speed, everything else untouched.
        let slow_mul = HostSpeed {
            mul_ms: 2.0 * MUL_REFERENCE_MS,
            ..at_ref
        };
        assert!((slow_mul.factor(0.2) - 1.2).abs() < 1e-12);
        assert!((slow_mul.factor(1.0) - 2.0).abs() < 1e-12);
        assert_eq!(
            HostSpeed::mean(&[at_ref, slow_mul]).mul_ms,
            1.5 * MUL_REFERENCE_MS
        );
    }
}
