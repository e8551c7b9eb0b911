//! Joint-Feldman distributed key generation (DKG).
//!
//! Every controller acts as a sub-dealer: it Shamir-shares a random secret
//! and broadcasts Feldman commitments. Shares that fail verification trigger
//! complaints; dealers with complaints are disqualified. Each participant's
//! final key share is the sum of the qualified sub-shares, the group public
//! key is the product of the qualified `A_0` commitments — and *no single
//! party ever learns the group secret* (paper §3.2).
//!
//! Each dealing is checked once, as a whole: its shares for participants
//! `1..=n` must interpolate (field work, no curve) to a polynomial whose
//! coefficients are what the commitment commits to
//! ([`Commitment::verify_shares`], `t + 1` fixed-base products). When it
//! passes, each of its `n` shares would pass its own Feldman check. Only a
//! dealing that fails it is checked share by share ([`verify_dealing`]),
//! to name who complains, so the complaints, the qualified set and every
//! key are what checking all `n²` shares gives.
//!
//! The module exposes the protocol as plain message types
//! ([`Dealing`], [`Complaint`]) so the controller runtime can carry them over
//! the (simulated) network, plus an in-memory driver
//! [`run_trusted_dealer_free`] for tests, examples and bootstrapping, which
//! checks every share in its complaint round and never again.

use crate::bls::{KeyShare, PublicKey};
use crate::feldman::Commitment;
use crate::fields::Fr;
use crate::shamir::{Polynomial, Share};
use crate::Error;
use std::collections::BTreeSet;

/// DKG parameters: `n` participants, polynomial degree `t`
/// (`t + 1` shares are needed to sign; Cicero uses `t = ⌊(n-1)/3⌋`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DkgConfig {
    /// Number of participants (indices `1..=n`).
    pub n: u32,
    /// Polynomial degree (maximum number of tolerated corruptions).
    pub t: u32,
}

impl DkgConfig {
    /// Creates a configuration, validating `n > t >= 0` and `n >= 1`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if the threshold cannot be met.
    pub fn new(n: u32, t: u32) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::InvalidParameters("n must be positive".into()));
        }
        if t >= n {
            return Err(Error::InvalidParameters(format!(
                "degree t={t} must be below n={n}"
            )));
        }
        Ok(DkgConfig { n, t })
    }

    /// The Byzantine-quorum configuration used by Cicero:
    /// `t = ⌊(n-1)/3⌋`, requiring `n >= 4` to tolerate one fault.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] when `n < 4`.
    pub fn byzantine(n: u32) -> Result<Self, Error> {
        if n < 4 {
            return Err(Error::InvalidParameters(format!(
                "Cicero requires n >= 4 controllers, got {n}"
            )));
        }
        DkgConfig::new(n, (n - 1) / 3)
    }

    /// Quorum size `t + 1` (signers needed).
    pub fn quorum(&self) -> u32 {
        self.t + 1
    }
}

/// One dealer's contribution: public commitment plus one private sub-share
/// per participant. (In a deployment the shares travel on encrypted
/// channels; the simulator models point-to-point delivery.)
#[derive(Clone, Debug)]
pub struct Dealing {
    /// The dealer's 1-based index.
    pub dealer: u32,
    /// Feldman commitment to the dealer's polynomial.
    pub commitment: Commitment,
    pub(crate) shares: Vec<Share>,
}

impl Dealing {
    /// The private sub-share destined for `index`.
    pub fn share_for(&self, index: u32) -> Option<Share> {
        self.shares.iter().copied().find(|s| s.index == index)
    }

    /// Creates a dealing with a *tampered* share for `victim` — test helper
    /// modelling a malicious dealer.
    pub fn corrupt_share_for(mut self, victim: u32) -> Self {
        for s in self.shares.iter_mut() {
            if s.index == victim {
                s.value += Fr::one();
            }
        }
        self
    }
}

/// A complaint lodged against a dealer whose share failed verification.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Complaint {
    /// Who complains.
    pub complainer: u32,
    /// The accused dealer.
    pub dealer: u32,
}

/// Produces dealer `dealer`'s contribution.
pub fn deal<R: substrate::rng::Rng + ?Sized>(cfg: DkgConfig, dealer: u32, rng: &mut R) -> Dealing {
    let poly = Polynomial::random(Fr::random(rng), cfg.t as usize, rng);
    let commitment = Commitment::commit(&poly);
    let shares = (1..=cfg.n)
        .map(|i| Share {
            index: i,
            value: poly.eval_at_index(i),
        })
        .collect();
    Dealing {
        dealer,
        commitment,
        shares,
    }
}

/// Verifies the sub-share addressed to `me` in `dealing`, returning a
/// complaint if it is missing, malformed, or fails the Feldman check. The
/// blame path of [`complaint_round`].
pub fn verify_dealing(cfg: DkgConfig, me: u32, dealing: &Dealing) -> Option<Complaint> {
    let complaint = Complaint {
        complainer: me,
        dealer: dealing.dealer,
    };
    if dealing.commitment.degree() != cfg.t as usize {
        return Some(complaint);
    }
    match dealing.share_for(me) {
        Some(share) if dealing.commitment.verify_share(&share) => None,
        _ => Some(complaint),
    }
}

/// `true` when the whole dealing checks out in one step: its commitment
/// has degree `t` and the shares of participants `1..=n` pass
/// [`Commitment::verify_shares`]. Then [`verify_dealing`] finds no fault
/// for any participant.
pub fn verify_whole_dealing(cfg: DkgConfig, dealing: &Dealing) -> bool {
    let shares: Option<Vec<Share>> = (1..=cfg.n).map(|i| dealing.share_for(i)).collect();
    dealing.commitment.degree() == cfg.t as usize
        && shares.is_some_and(|shares| dealing.commitment.verify_shares(&shares))
}

/// The complaint round: every participant's complaint against every
/// dealing. A dealing that passes [`verify_whole_dealing`] draws none; only
/// one that fails it is checked share by share ([`verify_dealing`]), which
/// names its complainers — the same complaints as checking each of the
/// n² shares.
pub fn complaint_round(cfg: DkgConfig, dealings: &[Dealing]) -> Vec<Complaint> {
    dealings
        .iter()
        .filter(|dealing| !verify_whole_dealing(cfg, dealing))
        .flat_map(|dealing| (1..=cfg.n).filter_map(move |me| verify_dealing(cfg, me, dealing)))
        .collect()
}

/// The public outcome of a DKG run.
#[derive(Clone, Debug)]
pub struct GroupPublic {
    /// The aggregated commitment (degree `t`).
    pub commitment: Commitment,
    /// The set of qualified dealers.
    pub qualified: BTreeSet<u32>,
    /// Protocol parameters.
    pub config: DkgConfig,
}

impl GroupPublic {
    /// The group public key that switches install.
    pub fn public_key(&self) -> PublicKey {
        self.commitment.public_key()
    }

    /// The public key of participant `index`'s share (for verifying partial
    /// signatures).
    pub fn member_public_key(&self, index: u32) -> PublicKey {
        self.commitment.share_public_key(index)
    }
}

/// Full DKG output for in-memory runs.
#[derive(Clone, Debug)]
pub struct DkgOutput {
    /// Public data (commitment, qualified set, config).
    pub group: GroupPublic,
    /// The group public key (convenience copy of `group.public_key()`).
    pub group_public_key: PublicKey,
    /// Every participant's private output.
    pub participants: Vec<ParticipantOutput>,
}

/// One participant's private DKG output.
#[derive(Clone, Debug)]
pub struct ParticipantOutput {
    /// 1-based participant index.
    pub index: u32,
    /// The participant's signing share.
    pub share: KeyShare,
}

/// Runs the complete DKG in memory (deal → complain → disqualify →
/// combine). `corrupt` lists dealer indices that hand participant 1 a bad
/// share, exercising the complaint path. Every share is checked once, in
/// the complaint round: each participant's key share is the sum of its
/// qualified sub-shares, and the group commitment the sum of the qualified
/// commitments, made once.
///
/// # Errors
///
/// [`Error::InvalidParameters`] on an invalid `(n, t)` or when every
/// dealer is disqualified.
pub fn run_with_faults<R: substrate::rng::Rng + ?Sized>(
    n: u32,
    t: u32,
    corrupt: &[u32],
    rng: &mut R,
) -> Result<DkgOutput, Error> {
    let cfg = DkgConfig::new(n, t)?;
    let mut dealings: Vec<Dealing> = (1..=n).map(|i| deal(cfg, i, rng)).collect();
    for dealing in dealings.iter_mut() {
        if corrupt.contains(&dealing.dealer) {
            *dealing = dealing.clone().corrupt_share_for(1);
        }
    }
    let accused: BTreeSet<u32> = complaint_round(cfg, &dealings).iter().map(|c| c.dealer).collect();
    let qualified: Vec<&Dealing> = dealings.iter().filter(|d| !accused.contains(&d.dealer)).collect();
    let Some((first, rest)) = qualified.split_first() else {
        return Err(Error::InvalidParameters("all dealers disqualified".into()));
    };
    let commitment = rest.iter().fold(first.commitment.clone(), |c, d| c.add(&d.commitment));
    let participants = (1..=n)
        .map(|me| {
            let share = qualified
                .iter()
                .map(|d| d.share_for(me).expect("a qualified dealing has every share").value)
                .fold(Fr::zero(), |sum, value| sum + value);
            ParticipantOutput { index: me, share: KeyShare::new(me, share) }
        })
        .collect();
    let group = GroupPublic {
        commitment,
        qualified: qualified.iter().map(|d| d.dealer).collect(),
        config: cfg,
    };
    Ok(DkgOutput {
        group_public_key: group.public_key(),
        group,
        participants,
    })
}

/// Runs an honest DKG in memory.
///
/// # Errors
///
/// As [`run_with_faults`].
pub fn run_trusted_dealer_free<R: substrate::rng::Rng + ?Sized>(
    n: u32,
    t: u32,
    rng: &mut R,
) -> Result<DkgOutput, Error> {
    run_with_faults(n, t, &[], rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bls;
    use crate::shamir::{reconstruct, Share};
    use substrate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xd1c6)
    }

    #[test]
    fn dkg_produces_consistent_threshold_key() {
        let mut rng = rng();
        let out = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let msg = b"network update";
        // Any 2 participants can sign (t = 1).
        let partials: Vec<_> = out.participants[..2]
            .iter()
            .map(|p| bls::sign_share(&p.share, msg))
            .collect();
        let sig = bls::aggregate(&partials).unwrap();
        assert!(bls::verify(&out.group_public_key, msg, &sig));
        // A single participant cannot.
        let partials: Vec<_> = out.participants[..1]
            .iter()
            .map(|p| bls::sign_share(&p.share, msg))
            .collect();
        let sig = bls::aggregate(&partials).unwrap();
        assert!(!bls::verify(&out.group_public_key, msg, &sig));
    }

    #[test]
    fn member_public_keys_verify_partials() {
        let mut rng = rng();
        let out = run_trusted_dealer_free(5, 1, &mut rng).unwrap();
        let msg = b"m";
        for p in &out.participants {
            let partial = bls::sign_share(&p.share, msg);
            let mpk = out.group.member_public_key(p.index);
            assert!(bls::verify_partial(&mpk, msg, &partial));
            // Wrong index fails.
            let other = out.group.member_public_key(p.index % 5 + 1);
            assert!(!bls::verify_partial(&other, msg, &partial));
        }
    }

    #[test]
    fn shares_reconstruct_to_committed_secret() {
        let mut rng = rng();
        let out = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let shares: Vec<Share> = out
            .participants
            .iter()
            .map(|p| Share {
                index: p.index,
                value: p.share.secret_fr(),
            })
            .collect();
        let secret = reconstruct(&shares, 1).unwrap();
        assert_eq!(
            crate::curves::g2_generator().mul_fr(secret).to_affine(),
            out.group_public_key.0
        );
    }

    #[test]
    fn corrupt_dealer_is_disqualified_but_key_still_works() {
        let mut rng = rng();
        let out = run_with_faults(4, 1, &[3], &mut rng).unwrap();
        assert!(!out.group.qualified.contains(&3));
        assert_eq!(out.group.qualified.len(), 3);
        let msg = b"still works";
        let partials: Vec<_> = out.participants[..2]
            .iter()
            .map(|p| bls::sign_share(&p.share, msg))
            .collect();
        let sig = bls::aggregate(&partials).unwrap();
        assert!(bls::verify(&out.group_public_key, msg, &sig));
    }

    #[test]
    fn byzantine_config() {
        assert!(DkgConfig::byzantine(3).is_err());
        let cfg = DkgConfig::byzantine(4).unwrap();
        assert_eq!(cfg.t, 1);
        assert_eq!(cfg.quorum(), 2);
        let cfg = DkgConfig::byzantine(10).unwrap();
        assert_eq!(cfg.t, 3);
        assert_eq!(cfg.quorum(), 4);
    }

    #[test]
    fn verify_dealing_flags_degree_mismatch() {
        let mut rng = rng();
        let cfg = DkgConfig::new(4, 1).unwrap();
        let bad_cfg = DkgConfig::new(4, 2).unwrap();
        let dealing = deal(bad_cfg, 1, &mut rng);
        assert!(verify_dealing(cfg, 2, &dealing).is_some());
    }

    #[test]
    fn invalid_parameters() {
        assert!(DkgConfig::new(0, 0).is_err());
        assert!(DkgConfig::new(3, 3).is_err());
        assert!(DkgConfig::new(4, 1).is_ok());
    }
}
