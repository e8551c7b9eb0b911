//! Shamir secret sharing over `Fr`.
//!
//! A secret `s` is the constant term of a random degree-`t` polynomial `f`;
//! participant `i` holds `f(i)`. Any `t + 1` shares reconstruct `s` by
//! Lagrange interpolation; `t` or fewer reveal nothing. Threshold BLS uses
//! the same interpolation *in the exponent* (see [`crate::bls::aggregate`]).

use crate::fields::Fr;
use crate::Error;

/// A polynomial over `Fr`, stored low-degree-first (`coeffs[0]` = secret).
#[derive(Clone, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Fr>,
}

impl std::fmt::Debug for Polynomial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Polynomial(degree {})", self.degree())
    }
}

impl Polynomial {
    /// Samples a random polynomial of the given degree with the given
    /// constant term.
    pub fn random<R: substrate::rng::Rng + ?Sized>(secret: Fr, degree: usize, rng: &mut R) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(secret);
        for _ in 0..degree {
            coeffs.push(Fr::random(rng));
        }
        Polynomial { coeffs }
    }

    /// Builds a polynomial from explicit coefficients (low-degree-first).
    ///
    /// # Panics
    ///
    /// Panics on an empty coefficient list.
    pub fn from_coeffs(coeffs: Vec<Fr>) -> Self {
        assert!(!coeffs.is_empty(), "polynomial needs at least one coefficient");
        Polynomial { coeffs }
    }

    /// The polynomial degree (number of coefficients minus one).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The coefficients, low-degree-first.
    pub fn coeffs(&self) -> &[Fr] {
        &self.coeffs
    }

    /// Horner evaluation at `x`.
    pub fn eval(&self, x: Fr) -> Fr {
        let mut acc = Fr::zero();
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at participant index `i` (i.e. at the field element `i`).
    pub fn eval_at_index(&self, index: u32) -> Fr {
        self.eval(Fr::from_index(index))
    }

    /// The polynomial of degree below `shares.len()` through every share
    /// (its top coefficients are zero when fewer shares would pin it):
    /// `Σ_j y_j · Π_{l≠j} (x − x_l) / (x_j − x_l)`, each basis numerator
    /// divided out of `Π_l (x − x_l)` by synthetic division. Field work
    /// only, quadratic in the number of shares.
    ///
    /// # Errors
    ///
    /// As [`lagrange_at_zero`], for the shares' indices.
    pub fn interpolate(shares: &[Share]) -> Result<Polynomial, Error> {
        let xs = field_points(shares.iter().map(|s| s.index))?;
        let n = xs.len();
        // Π_l (x − x_l), low-degree-first: n + 1 coefficients.
        let mut master = vec![Fr::one()];
        for &x in &xs {
            master.insert(0, Fr::zero());
            for k in 0..master.len() - 1 {
                master[k] = master[k] - x * master[k + 1];
            }
        }
        let mut coeffs = vec![Fr::zero(); n];
        for (j, (&xj, share)) in xs.iter().zip(shares).enumerate() {
            let den: Fr = xs
                .iter()
                .enumerate()
                .filter(|&(l, _)| l != j)
                .fold(Fr::one(), |acc, (_, &xl)| acc * (xj - xl));
            let weight = share.value
                * den.invert().expect("distinct indices give a non-zero denominator");
            // The quotient of `master` by (x − x_j), from the top down.
            let mut carry = Fr::zero();
            for k in (0..n).rev() {
                carry = master[k + 1] + xj * carry;
                coeffs[k] += weight * carry;
            }
        }
        Ok(Polynomial { coeffs })
    }
}

/// One participant's share: the evaluation `f(index)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Share {
    /// 1-based participant index (the evaluation point).
    pub index: u32,
    /// The share value `f(index)`.
    pub value: Fr,
}

/// Splits `secret` into `n` shares with threshold degree `t` (any `t + 1`
/// reconstruct). Returns the dealing polynomial (needed for Feldman
/// commitments) and the shares for indices `1..=n`.
///
/// # Panics
///
/// Panics if `t >= n` (reconstruction would be impossible) or `n == 0`.
pub fn share_secret<R: substrate::rng::Rng + ?Sized>(
    secret: Fr,
    t: usize,
    n: usize,
    rng: &mut R,
) -> (Polynomial, Vec<Share>) {
    assert!(n > 0, "need at least one participant");
    assert!(t < n, "threshold degree must be below participant count");
    let poly = Polynomial::random(secret, t, rng);
    let shares = (1..=n as u32)
        .map(|i| Share {
            index: i,
            value: poly.eval_at_index(i),
        })
        .collect();
    (poly, shares)
}

/// Lagrange coefficients `λ_i` for interpolating at zero over the given
/// index set: `f(0) = Σ λ_i f(i)`.
///
/// # Errors
///
/// [`Error::DuplicateIndex`] if an index repeats;
/// [`Error::InvalidParameters`] on an empty set or a zero index.
pub fn lagrange_at_zero(indices: &[u32]) -> Result<Vec<Fr>, Error> {
    lagrange_at(indices, Fr::zero())
}

/// Lagrange coefficients for interpolating at an arbitrary point `x`.
///
/// # Errors
///
/// As [`lagrange_at_zero`].
pub fn lagrange_at(indices: &[u32], x: Fr) -> Result<Vec<Fr>, Error> {
    let points = field_points(indices.iter().copied())?;
    let mut coeffs = Vec::with_capacity(indices.len());
    for (j, &xj) in points.iter().enumerate() {
        let mut num = Fr::one();
        let mut den = Fr::one();
        for (k, &xk) in points.iter().enumerate() {
            if k == j {
                continue;
            }
            num *= x - xk;
            den *= xj - xk;
        }
        let den_inv = den
            .invert()
            .expect("distinct non-zero indices give non-zero denominators");
        coeffs.push(num * den_inv);
    }
    Ok(coeffs)
}

/// The indices as field points, once they are known to be non-empty,
/// non-zero and distinct.
fn field_points(indices: impl Iterator<Item = u32>) -> Result<Vec<Fr>, Error> {
    let mut seen = std::collections::BTreeSet::new();
    let mut points = Vec::new();
    for i in indices {
        if i == 0 {
            return Err(Error::InvalidParameters("index 0 is reserved".into()));
        }
        if !seen.insert(i) {
            return Err(Error::DuplicateIndex(i));
        }
        points.push(Fr::from_index(i));
    }
    if points.is_empty() {
        return Err(Error::InvalidParameters("empty index set".into()));
    }
    Ok(points)
}

/// Reconstructs the secret from at least `t + 1` shares.
///
/// # Errors
///
/// [`Error::InsufficientShares`] when fewer than `t + 1` shares are given,
/// plus the index errors of [`lagrange_at_zero`].
pub fn reconstruct(shares: &[Share], t: usize) -> Result<Fr, Error> {
    if shares.len() < t + 1 {
        return Err(Error::InsufficientShares {
            got: shares.len(),
            need: t + 1,
        });
    }
    let indices: Vec<u32> = shares.iter().map(|s| s.index).collect();
    let coeffs = lagrange_at_zero(&indices)?;
    Ok(shares
        .iter()
        .zip(coeffs)
        .map(|(s, l)| s.value * l)
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use substrate::rng::{SeedableRng, StdRng};

    #[test]
    fn share_and_reconstruct() {
        let mut rng = StdRng::seed_from_u64(1);
        let secret = Fr::random(&mut rng);
        let (_, shares) = share_secret(secret, 2, 5, &mut rng);
        // Any 3 shares reconstruct.
        assert_eq!(reconstruct(&shares[..3], 2).unwrap(), secret);
        assert_eq!(reconstruct(&shares[2..], 2).unwrap(), secret);
        let subset = [shares[0], shares[2], shares[4]];
        assert_eq!(reconstruct(&subset, 2).unwrap(), secret);
    }

    #[test]
    fn too_few_shares_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let secret = Fr::random(&mut rng);
        let (_, shares) = share_secret(secret, 2, 5, &mut rng);
        assert!(matches!(
            reconstruct(&shares[..2], 2),
            Err(Error::InsufficientShares { got: 2, need: 3 })
        ));
    }

    #[test]
    fn wrong_share_changes_secret() {
        let mut rng = StdRng::seed_from_u64(3);
        let secret = Fr::random(&mut rng);
        let (_, mut shares) = share_secret(secret, 1, 3, &mut rng);
        shares[0].value += Fr::one();
        assert_ne!(reconstruct(&shares[..2], 1).unwrap(), secret);
    }

    #[test]
    fn polynomial_eval_horner() {
        // f(x) = 3 + 2x + x²  ⇒ f(5) = 3 + 10 + 25 = 38
        let poly = Polynomial::from_coeffs(vec![
            Fr::from_u64(3),
            Fr::from_u64(2),
            Fr::from_u64(1),
        ]);
        assert_eq!(poly.eval(Fr::from_u64(5)), Fr::from_u64(38));
        assert_eq!(poly.eval(Fr::zero()), Fr::from_u64(3));
        assert_eq!(poly.degree(), 2);
    }

    #[test]
    fn lagrange_rejects_bad_indices() {
        assert!(matches!(
            lagrange_at_zero(&[1, 2, 1]),
            Err(Error::DuplicateIndex(1))
        ));
        assert!(lagrange_at_zero(&[]).is_err());
        assert!(lagrange_at_zero(&[0, 1]).is_err());
    }

    #[test]
    fn lagrange_coefficients_sum_to_one() {
        // Interpolating the constant polynomial 1 at 0 gives Σ λ_i = 1.
        let coeffs = lagrange_at_zero(&[1, 3, 7, 9]).unwrap();
        let sum: Fr = coeffs.into_iter().sum();
        assert_eq!(sum, Fr::one());
    }

    #[test]
    fn any_threshold_subset_reconstructs() {
        substrate::forall!(cases = 16, |g| {
            let seed = g.u64();
            let t = g.usize_in(1..4);
            let extra = g.usize_in(0..3);
            let mut rng = StdRng::seed_from_u64(seed);
            let n = t + 1 + extra;
            let secret = Fr::random(&mut rng);
            let (_, shares) = share_secret(secret, t, n, &mut rng);
            assert_eq!(reconstruct(&shares[extra..], t).unwrap(), secret);
        });
    }

    #[test]
    fn interpolation_at_share_point_matches() {
        substrate::forall!(cases = 16, |g| {
            let mut rng = StdRng::seed_from_u64(g.u64());
            let secret = Fr::random(&mut rng);
            let (poly, shares) = share_secret(secret, 2, 5, &mut rng);
            // Interpolate at x = 4 using shares {1,2,3}; must equal f(4).
            let coeffs = lagrange_at(&[1, 2, 3], Fr::from_u64(4)).unwrap();
            let got: Fr = shares[..3]
                .iter()
                .zip(coeffs)
                .map(|(s, l)| s.value * l)
                .sum();
            assert_eq!(got, poly.eval(Fr::from_u64(4)));
        });
    }

    #[test]
    fn interpolation_recovers_the_dealt_polynomial() {
        substrate::forall!(cases = 16, |g| {
            let mut rng = StdRng::seed_from_u64(g.u64());
            let t = g.usize_in(0..4);
            let extra = g.usize_in(0..3);
            let (poly, shares) = share_secret(Fr::random(&mut rng), t, t + 1 + extra, &mut rng);
            let got = Polynomial::interpolate(&shares).unwrap();
            let (low, high) = got.coeffs().split_at(t + 1);
            assert_eq!(low, poly.coeffs());
            assert!(high.iter().all(Fr::is_zero), "degree {t} came back higher");
        });
        let share = |index| Share { index, value: Fr::one() };
        assert!(Polynomial::interpolate(&[]).is_err());
        assert!(Polynomial::interpolate(&[share(0)]).is_err());
        assert!(matches!(
            Polynomial::interpolate(&[share(2), share(2)]),
            Err(Error::DuplicateIndex(2))
        ));
    }
}
