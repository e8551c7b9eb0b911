//! A seeded property-testing harness (the in-tree `proptest` replacement).
//!
//! Transient-state bugs in network updates only surface under adversarial
//! schedules, and a failure nobody can replay is a failure nobody can fix.
//! This harness therefore makes the *seed* the unit of reproduction:
//!
//! * [`forall!`](crate::forall) runs a property over `cases` generated
//!   inputs; each case is driven by its own 64-bit seed derived
//!   deterministically from the property's identity and case index.
//! * On failure the harness prints the case seed and a ready-to-paste
//!   replay command, then re-raises the panic so the test fails normally:
//!   `CHECK_SEED=0x1234 cargo test -p <crate> <test_name>` reruns exactly
//!   the failing case (and only it).
//! * `CHECK_CASES=n` scales every property up (soak testing) without code
//!   changes.
//!
//! ```
//! substrate::forall!(cases = 64, |g| {
//!     let xs: Vec<u8> = g.bytes(32);
//!     let mut ys = xs.clone();
//!     ys.reverse();
//!     ys.reverse();
//!     assert_eq!(xs, ys);
//! });
//! ```

use crate::rng::{splitmix64, Rng, SeedableRng, StdRng};

/// Default number of cases per property.
pub const DEFAULT_CASES: usize = 64;

/// Per-case input generator: a seeded RNG plus convenience samplers shaped
/// like the `proptest` strategies the workspace used.
pub struct Gen {
    rng: StdRng,
    /// The seed that reproduces this case.
    pub seed: u64,
}

impl Gen {
    /// A generator for one case.
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The underlying RNG, for APIs that take one directly.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// `any::<u64>()`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// `any::<u32>()`.
    pub fn u32(&mut self) -> u32 {
        self.rng.random()
    }

    /// `any::<u16>()`.
    pub fn u16(&mut self) -> u16 {
        self.rng.random()
    }

    /// `any::<u8>()`.
    pub fn u8(&mut self) -> u8 {
        self.rng.random()
    }

    /// `any::<bool>()`.
    pub fn bool(&mut self) -> bool {
        self.rng.random()
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        self.rng.random()
    }

    /// `low..high` (half-open), like `proptest`'s `usize` ranges.
    pub fn usize_in(&mut self, range: std::ops::Range<usize>) -> usize {
        self.rng.random_range(range)
    }

    /// `low..high` (half-open).
    pub fn u32_in(&mut self, range: std::ops::Range<u32>) -> u32 {
        self.rng.random_range(range)
    }

    /// `low..high` (half-open).
    pub fn u64_in(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.random_range(range)
    }

    /// A byte vector with uniform length in `0..=max_len`
    /// (`proptest::collection::vec(any::<u8>(), 0..=max_len)`).
    pub fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.rng.random_range(0..max_len + 1);
        let mut out = vec![0u8; len];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// A raw limb array (`any::<[u64; N]>()` — field-element fodder).
    pub fn limbs<const N: usize>(&mut self) -> [u64; N] {
        let mut out = [0u64; N];
        for l in &mut out {
            *l = self.rng.next_u64();
        }
        out
    }

    /// A uniformly chosen element.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, options: &'a [T]) -> &'a T {
        self.rng.choose(options).expect("choose on empty slice")
    }
}

/// How a property run is configured; resolved from the environment.
fn replay_seed() -> Option<u64> {
    let raw = std::env::var("CHECK_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(seed) => Some(seed),
        Err(_) => panic!("CHECK_SEED={raw:?} is not a decimal or 0x-hex u64"),
    }
}

fn case_count(default_cases: usize) -> usize {
    match std::env::var("CHECK_CASES") {
        Ok(n) => n
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CHECK_CASES={n:?} is not a usize")),
        Err(_) => default_cases,
    }
}

/// Derives the deterministic per-case seed sequence for a named property.
pub fn case_seed(name: &str, case: usize) -> u64 {
    // FNV-1a over the property identity, mixed through splitmix64 with the
    // case index so adjacent cases are uncorrelated.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut state = h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    splitmix64(&mut state)
}

/// Runs `prop` over `cases` generated inputs. Prefer the
/// [`forall!`](crate::forall) macro, which fills in `name` from the call site.
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing seed and a
/// replay command.
pub fn run_forall<F: FnMut(&mut Gen)>(name: &str, cases: usize, mut prop: F) {
    if let Some(seed) = replay_seed() {
        eprintln!("[substrate::check] {name}: replaying single case CHECK_SEED={seed:#x}");
        let mut g = Gen::from_seed(seed);
        prop(&mut g);
        return;
    }
    let cases = case_count(cases);
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut g = Gen::from_seed(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut g)));
        if let Err(payload) = outcome {
            eprintln!(
                "[substrate::check] property {name} FAILED at case {case}/{cases} \
                 (seed {seed:#018x})\n\
                 [substrate::check] replay just this case with: CHECK_SEED={seed:#x} cargo test {name}"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs a property over generated inputs:
/// `forall!(|g| {{ ... }})` or `forall!(cases = 24, |g| {{ ... }})`.
///
/// `g` is a [`check::Gen`](Gen). Failures print a replayable seed; see the
/// [module docs](self).
#[macro_export]
macro_rules! forall {
    (cases = $cases:expr, |$g:ident| $body:block) => {
        $crate::check::run_forall(
            concat!(module_path!(), ":", line!()),
            $cases,
            |$g: &mut $crate::check::Gen| $body,
        )
    };
    (|$g:ident| $body:block) => {
        $crate::forall!(cases = $crate::check::DEFAULT_CASES, |$g| $body)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        let a = case_seed("crate::mod:1", 0);
        let b = case_seed("crate::mod:1", 0);
        assert_eq!(a, b, "seed derivation must be deterministic");
        assert_ne!(case_seed("crate::mod:1", 1), a);
        assert_ne!(case_seed("crate::mod:2", 0), a);
    }

    #[test]
    fn generators_cover_requested_ranges() {
        crate::forall!(cases = 32, |g| {
            let n = g.usize_in(1..20);
            assert!((1..20).contains(&n));
            let v = g.bytes(16);
            assert!(v.len() <= 16);
            let limbs: [u64; 4] = g.limbs();
            let _ = limbs;
            let c = *g.choose(&[1, 2, 3]);
            assert!([1, 2, 3].contains(&c));
        });
    }

    #[test]
    fn failing_property_reports_and_panics() {
        let result = std::panic::catch_unwind(|| {
            run_forall("substrate::check::selftest", 16, |g| {
                // Fails on roughly half the cases.
                assert!(g.u64() % 2 == 0, "odd draw");
            });
        });
        assert!(result.is_err(), "failing property must propagate its panic");
    }

    #[test]
    fn same_property_generates_same_inputs_each_run() {
        let mut first = Vec::new();
        run_forall("substrate::check::stability", 8, |g| first.push(g.u64()));
        let mut second = Vec::new();
        run_forall("substrate::check::stability", 8, |g| second.push(g.u64()));
        assert_eq!(first, second);
    }
}
