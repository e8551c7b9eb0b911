//! # blscrypto — threshold BLS signatures over BLS12-381, from scratch
//!
//! This crate is the cryptographic substrate of the Cicero reproduction
//! (*Consistent and Secure Network Updates Made Practical*, Middleware '20).
//! The paper authenticates network updates with **(t, n)-threshold BLS
//! signatures** (via the PBC library) whose private key shares are produced
//! by **distributed key generation** (Kate's DKG) so that the single group
//! public key installed on switches never changes as controllers join and
//! leave. No pairing crate is on the offline allowlist, so everything is
//! implemented here:
//!
//! * [`fields`] — Montgomery `Fp` (381-bit) and `Fr` (255-bit) prime fields;
//! * [`tower`] — the `Fp2 → Fp6 → Fp12` extension tower;
//! * [`curves`] — `G1 = E(Fp)` and `G2 = E'(Fp2)` with cofactor-cleared
//!   generators derived from seed labels and try-and-increment hash-to-curve;
//! * [`pairing`] — the ate pairing over prepared `G2` line tables;
//! * [`bls`] — plain and threshold BLS (sign, partial-verify, Lagrange
//!   aggregation, verify — under a [`bls::PreparedKey`] for a key that
//!   verifies more than once);
//! * [`shamir`] / [`feldman`] — secret sharing and verifiable secret sharing;
//! * [`dkg`] — joint-Feldman distributed key generation;
//! * [`reshare`] — share redistribution that preserves the group public key
//!   across membership (and threshold) changes;
//! * [`sha256`] — FIPS 180-4 SHA-256 for digests and hash-to-curve.
//!
//! That is everything a release build contains. The crate's independent
//! oracle is compiled for `cargo test` only: `reference` (the affine Tate
//! pairing, schoolbook tower products, the binary scalar ladder) and `bigint`
//! (arbitrary-precision integers for parameter validation), driven by the
//! `differential` and `conformance` suites.
//!
//! ## Example: 3-of-4 threshold signing
//!
//! ```
//! use blscrypto::{dkg, bls};
//! use substrate::rng::{SeedableRng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let out = dkg::run_trusted_dealer_free(4, 2, &mut rng)?; // t = 2 ⇒ 3 signers needed
//! let msg = b"install flow rule";
//! let partials: Vec<_> = out.participants[..3]
//!     .iter()
//!     .map(|p| bls::sign_share(&p.share, msg))
//!     .collect();
//! let sig = bls::aggregate(&partials)?;
//! assert!(bls::verify(&out.group_public_key, msg, &sig));
//! # Ok::<(), blscrypto::Error>(())
//! ```
//!
//! ## Security caveats
//!
//! The arithmetic is variable-time and the hash-to-curve is
//! try-and-increment: adequate for a research reproduction (the paper's PBC
//! library made the same trade-offs), not for hostile production use.

#![forbid(unsafe_code)]

pub mod batch;
pub mod bls;
pub mod curves;
pub mod dkg;
pub mod feldman;
pub mod fields;
pub mod mont;
pub mod pairing;
pub mod reshare;
pub mod sha256;
pub mod shamir;
pub mod tower;

#[cfg(test)]
mod bigint;
#[cfg(test)]
mod conformance;
#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Errors returned by the cryptographic protocols in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Not enough shares/partials to reach the threshold.
    InsufficientShares {
        /// How many were provided.
        got: usize,
        /// How many are required.
        need: usize,
    },
    /// Two shares/partials carry the same participant index.
    DuplicateIndex(u32),
    /// A share failed verification against the Feldman commitments.
    InvalidShare {
        /// The dealer whose share failed.
        dealer: u32,
        /// The receiving participant.
        receiver: u32,
    },
    /// A partial signature failed verification.
    InvalidPartialSignature(u32),
    /// Parameters are structurally invalid (e.g. `t >= n`, `n == 0`).
    InvalidParameters(String),
    /// A serialized value failed to decode.
    Decode(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InsufficientShares { got, need } => {
                write!(f, "insufficient shares: got {got}, need {need}")
            }
            Error::DuplicateIndex(i) => write!(f, "duplicate participant index {i}"),
            Error::InvalidShare { dealer, receiver } => {
                write!(f, "share from dealer {dealer} to {receiver} failed verification")
            }
            Error::InvalidPartialSignature(i) => {
                write!(f, "partial signature from participant {i} is invalid")
            }
            Error::InvalidParameters(s) => write!(f, "invalid parameters: {s}"),
            Error::Decode(what) => write!(f, "failed to decode {what}"),
        }
    }
}

impl std::error::Error for Error {}

pub use fields::{Fp, Fr};
