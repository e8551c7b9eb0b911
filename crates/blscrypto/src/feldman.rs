//! Feldman verifiable secret sharing (VSS).
//!
//! A dealer publishes commitments `A_k = g2 · a_k` to every coefficient of
//! its Shamir polynomial. Each receiver can then check its private share
//! `s_i` against the public commitment (`g2 · s_i == Σ A_k · i^k`) without
//! learning anything about the other shares — the building block of the DKG
//! (paper §3.2, "distributed key generation – unique key adaptation").
//!
//! Each side of that check is computed at the cost its algebra needs. The
//! left side and every `A_k` multiply the public generator, so they take
//! the fixed-base table ([`g2_mul_generator`]: one mixed addition per four
//! scalar bits, no doublings). The right side is a polynomial in a small
//! integer, so it is Horner's rule, `acc ← acc·i + A_k`, where `acc·i` is a
//! double-and-add over the index's few bits (`Projective::mul_small`)
//! instead of a full-width product by `i^k`.
//!
//! A dealer's whole set of shares is checked in one step
//! ([`Commitment::verify_shares`]): interpolate them in `Fr` and compare
//! each coefficient's fixed-base product with its commitment point — `t + 1`
//! products for any number of shares, against one per share.

use crate::bls::PublicKey;
use crate::curves::{g2_mul_generator, G2Projective};
use crate::fields::Fr;
use crate::shamir::{Polynomial, Share};

/// A vector of coefficient commitments `[g2·a_0, g2·a_1, ...]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Commitment {
    points: Vec<G2Projective>,
}

impl Commitment {
    /// Commits to every coefficient of `poly`.
    pub fn commit(poly: &Polynomial) -> Self {
        Commitment {
            points: poly.coeffs().iter().map(|&c| g2_mul_generator(c)).collect(),
        }
    }

    /// Builds a commitment from raw points (e.g. after aggregation).
    pub fn from_points(points: Vec<G2Projective>) -> Self {
        Commitment { points }
    }

    /// The committed polynomial degree.
    pub fn degree(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// The commitment points.
    pub fn points(&self) -> &[G2Projective] {
        &self.points
    }

    /// The public key corresponding to the committed secret (`g2 · a_0`).
    pub fn public_key(&self) -> PublicKey {
        PublicKey(self.points[0].to_affine())
    }

    /// Evaluates the committed polynomial *in the exponent* at `index`:
    /// `Σ A_k · index^k = g2 · f(index)`, by Horner's rule from the top
    /// coefficient down.
    pub fn eval_in_exponent(&self, index: u32) -> G2Projective {
        self.points
            .iter()
            .rev()
            .fold(G2Projective::identity(), |acc, point| acc.mul_small(index).add(point))
    }

    /// The public key of participant `index`'s share.
    pub fn share_public_key(&self, index: u32) -> PublicKey {
        PublicKey(self.eval_in_exponent(index).to_affine())
    }

    /// Verifies a share against this commitment.
    pub fn verify_share(&self, share: &Share) -> bool {
        g2_mul_generator(share.value) == self.eval_in_exponent(share.index)
    }

    /// Verifies a whole set of shares in one step: `true` iff they
    /// interpolate ([`Polynomial::interpolate`]) to a polynomial `f` of at
    /// most this degree with `A_k == g2 · f_k` for every point. Then each
    /// share passes [`Self::verify_share`], since `Σ A_k · i^k = g2 · f(i)`.
    /// Conversely, if there are more shares than the degree, every `A_k` is
    /// a multiple of the generator and every share passes, this passes too.
    /// A caller that must name the bad shares checks them one by one when
    /// it fails. `degree + 1` fixed-base products for the lot.
    pub fn verify_shares(&self, shares: &[Share]) -> bool {
        if shares.len() < self.points.len() {
            return false;
        }
        let Ok(f) = Polynomial::interpolate(shares) else {
            return false;
        };
        let (low, high) = f.coeffs().split_at(self.points.len());
        high.iter().all(Fr::is_zero)
            && low.iter().zip(&self.points).all(|(&c, point)| g2_mul_generator(c) == *point)
    }

    /// Component-wise sum of commitments (commitment to the summed
    /// polynomials). Used by the DKG to combine qualified dealings.
    ///
    /// # Panics
    ///
    /// Panics if degrees differ.
    pub fn add(&self, other: &Commitment) -> Commitment {
        assert_eq!(
            self.points.len(),
            other.points.len(),
            "commitment degrees must match"
        );
        Commitment {
            points: self
                .points
                .iter()
                .zip(&other.points)
                .map(|(a, b)| a.add(b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::g2_generator;
    use crate::shamir::share_secret;
    use substrate::rng::{SeedableRng, StdRng};

    #[test]
    fn honest_shares_verify() {
        let mut rng = StdRng::seed_from_u64(11);
        let secret = Fr::random(&mut rng);
        let (poly, shares) = share_secret(secret, 2, 5, &mut rng);
        let commitment = Commitment::commit(&poly);
        assert_eq!(commitment.degree(), 2);
        for share in &shares {
            assert!(commitment.verify_share(share));
        }
        // Commitment's public key matches g2·secret.
        assert_eq!(
            commitment.public_key().0,
            g2_generator().mul_fr(secret).to_affine()
        );
    }

    #[test]
    fn tampered_share_rejected() {
        let mut rng = StdRng::seed_from_u64(12);
        let secret = Fr::random(&mut rng);
        let (poly, mut shares) = share_secret(secret, 1, 3, &mut rng);
        let commitment = Commitment::commit(&poly);
        shares[1].value += Fr::one();
        assert!(!commitment.verify_share(&shares[1]));
        // Index confusion is also caught.
        let swapped = Share {
            index: shares[2].index,
            value: shares[0].value,
        };
        assert!(!commitment.verify_share(&swapped));
    }

    #[test]
    fn commitment_addition_matches_polynomial_addition() {
        let mut rng = StdRng::seed_from_u64(13);
        let (p1, s1) = share_secret(Fr::random(&mut rng), 2, 4, &mut rng);
        let (p2, s2) = share_secret(Fr::random(&mut rng), 2, 4, &mut rng);
        let summed = Commitment::commit(&p1).add(&Commitment::commit(&p2));
        for (a, b) in s1.iter().zip(&s2) {
            let share = Share {
                index: a.index,
                value: a.value + b.value,
            };
            assert!(summed.verify_share(&share));
        }
    }

    #[test]
    fn commitment_scaling_matches_polynomial_scaling() {
        // The algebra share redistribution weighs dealings by: `λ · A_k`
        // commits to `λ · f`.
        let mut rng = StdRng::seed_from_u64(14);
        let lambda = Fr::random(&mut rng);
        let (p1, s1) = share_secret(Fr::random(&mut rng), 2, 4, &mut rng);
        let points = Commitment::commit(&p1).points().iter().map(|p| p.mul_fr(lambda)).collect();
        let scaled = Commitment::from_points(points);
        for a in &s1 {
            let share = Share {
                index: a.index,
                value: a.value * lambda,
            };
            assert!(scaled.verify_share(&share));
        }
    }

    #[test]
    fn share_public_keys_are_consistent() {
        let mut rng = StdRng::seed_from_u64(15);
        let secret = Fr::random(&mut rng);
        let (poly, shares) = share_secret(secret, 2, 4, &mut rng);
        let commitment = Commitment::commit(&poly);
        for s in &shares {
            assert_eq!(
                commitment.share_public_key(s.index).0,
                g2_generator().mul_fr(s.value).to_affine()
            );
        }
    }
}
