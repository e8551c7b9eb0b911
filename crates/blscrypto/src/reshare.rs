//! Share redistribution: re-keying the control plane **without changing the
//! group public key**.
//!
//! When a controller joins or leaves, Cicero re-runs the key-sharing so the
//! new membership (with its new quorum size) holds fresh shares of the *same*
//! group secret — switches keep their installed public key (paper §4.3).
//!
//! Protocol (classic share redistribution / proactive resharing): each old
//! shareholder `i` in a qualified set `B` (|B| ≥ old_t + 1) deals a Shamir
//! sharing of its *own share* `s_i` with the new degree `t'` and publishes a
//! Feldman commitment whose constant term must equal `g2·s_i` — verifiable
//! against the old group commitment. A new participant `j` combines the
//! sub-shares with the Lagrange coefficients of `B` at zero:
//! `s'_j = Σ_{i∈B} λ_i · f_i(j)`, an evaluation of the new joint polynomial
//! `F = Σ λ_i f_i` with `F(0) = Σ λ_i s_i = s`.
//!
//! The public side mirrors it: coefficient `k` of `F`'s commitment is
//! `Σ_{i∈B} λ_i · A_{i,k}`. For `k = 0` that sum is the old group key — every
//! dealing's `A_{i,0}` is checked to be old share key `i` before it counts,
//! and the `λ_i` interpolate those at zero — so it is copied, not
//! recomputed. Each other coefficient is one multi-scalar sum
//! ([`G2Projective::sum_of_products`]) whose terms share a single doubling
//! chain, rather than one full product per `λ_i` and a sum.
//!
//! Checking and combining are separate steps, so nothing is checked twice.
//! A member checks each dealing once, for itself ([`verify_reshare_dealing`],
//! as a controller does on arrival) or for every recipient at once
//! ([`verify_whole_reshare_dealing`]: the constant term, then all sub-shares
//! as one [`Commitment::verify_shares`], as [`run_reshare`] does);
//! [`combine_reshare`] then builds the new commitment once and each
//! member's share from dealings that passed.

use crate::bls::KeyShare;
use crate::curves::G2Projective;
use crate::dkg::{DkgConfig, DkgOutput, GroupPublic, ParticipantOutput};
use crate::feldman::Commitment;
use crate::fields::Fr;
use crate::shamir::{lagrange_at_zero, Polynomial, Share};
use crate::Error;
use std::collections::BTreeSet;

/// One old shareholder's redistribution contribution.
#[derive(Clone, Debug)]
pub struct ReshareDealing {
    /// The dealer's *old* index.
    pub dealer: u32,
    /// Feldman commitment to the dealer's resharing polynomial
    /// (constant term = the dealer's old share).
    pub commitment: Commitment,
    pub(crate) shares: Vec<Share>,
}

impl ReshareDealing {
    /// The sub-share destined for new participant `index`.
    pub fn share_for(&self, index: u32) -> Option<Share> {
        self.shares.iter().copied().find(|s| s.index == index)
    }

    /// Test helper: corrupts the commitment's constant term, simulating a
    /// dealer trying to change the group key.
    pub fn with_forged_constant(mut self) -> Self {
        let mut points = self.commitment.points().to_vec();
        points[0] = points[0].double();
        self.commitment = Commitment::from_points(points);
        self
    }
}

/// Old shareholder `share` deals sub-shares for the new membership
/// (`new_n` participants with indices `1..=new_n`, degree `new_t`).
pub fn deal_reshare<R: substrate::rng::Rng + ?Sized>(
    share: &KeyShare,
    new_cfg: DkgConfig,
    rng: &mut R,
) -> ReshareDealing {
    let recipients: Vec<u32> = (1..=new_cfg.n).collect();
    deal_reshare_to(share, new_cfg.t, &recipients, rng)
}

/// Old shareholder `share` deals sub-shares to an explicit recipient index
/// set (Cicero controller identifiers are never reused, so live memberships
/// are non-contiguous — e.g. `{1, 2, 4, 5}` after a removal).
///
/// # Panics
///
/// Panics if `recipients` is empty or contains index zero.
pub fn deal_reshare_to<R: substrate::rng::Rng + ?Sized>(
    share: &KeyShare,
    new_t: u32,
    recipients: &[u32],
    rng: &mut R,
) -> ReshareDealing {
    assert!(!recipients.is_empty(), "need at least one recipient");
    let poly = Polynomial::random(share.secret_fr(), new_t as usize, rng);
    let commitment = Commitment::commit(&poly);
    let shares = recipients
        .iter()
        .map(|&i| Share {
            index: i,
            value: poly.eval_at_index(i),
        })
        .collect();
    ReshareDealing {
        dealer: share.index,
        commitment,
        shares,
    }
}

/// Verifies a redistribution dealing:
///
/// 1. the commitment's constant term equals the dealer's *old* share public
///    key (so the group secret cannot drift), and
/// 2. the sub-share addressed to `me` matches the commitment.
pub fn verify_reshare_dealing(
    dealing: &ReshareDealing,
    old_group: &GroupPublic,
    new_cfg: DkgConfig,
    me: u32,
) -> bool {
    keeps_the_old_share(dealing, old_group, new_cfg)
        && dealing.share_for(me).is_some_and(|share| dealing.commitment.verify_share(&share))
}

/// [`verify_reshare_dealing`] for every member of `recipients` in one step:
/// the constant-term check once, and the sub-shares of all of them by
/// [`Commitment::verify_shares`]. `true` means each of them would pass.
pub fn verify_whole_reshare_dealing(
    dealing: &ReshareDealing,
    old_group: &GroupPublic,
    new_cfg: DkgConfig,
    recipients: &[u32],
) -> bool {
    let shares: Option<Vec<Share>> = recipients.iter().map(|&i| dealing.share_for(i)).collect();
    keeps_the_old_share(dealing, old_group, new_cfg)
        && shares.is_some_and(|shares| dealing.commitment.verify_shares(&shares))
}

/// The commitment has the new degree, and its constant term is the dealer's
/// old share key.
fn keeps_the_old_share(dealing: &ReshareDealing, old_group: &GroupPublic, new_cfg: DkgConfig) -> bool {
    dealing.commitment.degree() == new_cfg.t as usize
        && dealing.commitment.points()[0] == old_group.commitment.eval_in_exponent(dealing.dealer)
}

/// Combines dealings from the qualified old set `B`, each already verified
/// for every member of `members`, into the new group public data (its
/// commitment built once) and each member's new share. Nothing is checked
/// again here.
///
/// # Errors
///
/// [`Error::InsufficientShares`] if `|B| < old_t + 1`;
/// [`Error::InvalidShare`] if a dealing carries no share for a member;
/// index errors from the Lagrange computation.
pub fn combine_reshare(
    dealings: &[ReshareDealing],
    old_group: &GroupPublic,
    new_cfg: DkgConfig,
    members: &[u32],
) -> Result<(GroupPublic, Vec<KeyShare>), Error> {
    let need = old_group.config.t as usize + 1;
    if dealings.len() < need {
        return Err(Error::InsufficientShares {
            got: dealings.len(),
            need,
        });
    }
    let old_indices: Vec<u32> = dealings.iter().map(|d| d.dealer).collect();
    let lambdas = lagrange_at_zero(&old_indices)?;
    let shares = members
        .iter()
        .map(|&me| {
            let mut new_share = Fr::zero();
            for (dealing, lambda) in dealings.iter().zip(&lambdas) {
                let sub = dealing.share_for(me).ok_or(Error::InvalidShare {
                    dealer: dealing.dealer,
                    receiver: me,
                })?;
                new_share += sub.value * *lambda;
            }
            Ok(KeyShare::new(me, new_share))
        })
        .collect::<Result<Vec<_>, Error>>()?;
    // Σ_i λ_i · A_{i,k}: for k = 0 the old group key, since every A_{i,0}
    // was checked against old share key i (module doc).
    let limbs: Vec<[u64; 4]> = lambdas.iter().map(|l| l.to_raw()).collect();
    let mut points = vec![old_group.commitment.points()[0]];
    points.extend((1..=new_cfg.t as usize).map(|k| {
        let terms: Vec<(G2Projective, &[u64])> = dealings
            .iter()
            .zip(&limbs)
            .map(|(d, l)| (d.commitment.points()[k], &l[..]))
            .collect();
        G2Projective::sum_of_products(&terms)
    }));
    let group = GroupPublic {
        commitment: Commitment::from_points(points),
        qualified: old_indices.iter().copied().collect::<BTreeSet<u32>>(),
        config: new_cfg,
    };
    Ok((group, shares))
}

/// Runs a complete redistribution in memory: the first `old_t + 1`
/// participants of `old` re-deal to a fresh membership of `new_n` members
/// with degree `new_t`. Each dealing is checked once, for all new members
/// ([`verify_whole_reshare_dealing`]), and the new commitment is built
/// once.
///
/// # Errors
///
/// [`Error::InvalidShare`] for the first new member, and then the first
/// dealing, whose sub-share fails [`verify_reshare_dealing`]; as
/// [`combine_reshare`] otherwise.
pub fn run_reshare<R: substrate::rng::Rng + ?Sized>(
    old: &DkgOutput,
    new_cfg: DkgConfig,
    rng: &mut R,
) -> Result<DkgOutput, Error> {
    let quorum = old.group.config.t as usize + 1;
    let dealings: Vec<ReshareDealing> = old
        .participants
        .iter()
        .take(quorum)
        .map(|p| deal_reshare(&p.share, new_cfg, rng))
        .collect();
    let members: Vec<u32> = (1..=new_cfg.n).collect();
    if !dealings.iter().all(|d| verify_whole_reshare_dealing(d, &old.group, new_cfg, &members)) {
        let blamed = members.iter().find_map(|&me| {
            let bad = dealings.iter().find(|d| !verify_reshare_dealing(d, &old.group, new_cfg, me));
            bad.map(|d| Error::InvalidShare { dealer: d.dealer, receiver: me })
        });
        if let Some(err) = blamed {
            return Err(err);
        }
    }
    let (group, shares) = combine_reshare(&dealings, &old.group, new_cfg, &members)?;
    let participants = shares
        .into_iter()
        .map(|share| ParticipantOutput { index: share.index, share })
        .collect();
    Ok(DkgOutput {
        group_public_key: group.public_key(),
        group,
        participants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bls;
    use crate::dkg::run_trusted_dealer_free;
    use substrate::rng::{SeedableRng, StdRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x2e5a)
    }

    #[test]
    fn reshare_preserves_group_public_key() {
        let mut rng = rng();
        let old = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        // Grow the control plane 4 → 7 (t: 1 → 2).
        let new = run_reshare(&old, DkgConfig::byzantine(7).unwrap(), &mut rng).unwrap();
        assert_eq!(old.group_public_key, new.group_public_key);

        // New shares sign under the old public key.
        let msg = b"post-membership-change update";
        let partials: Vec<_> = new.participants[..3]
            .iter()
            .map(|p| bls::sign_share(&p.share, msg))
            .collect();
        let sig = bls::aggregate(&partials).unwrap();
        assert!(bls::verify(&old.group_public_key, msg, &sig));
    }

    #[test]
    fn reshare_shrinking_membership() {
        let mut rng = rng();
        let old = run_trusted_dealer_free(7, 2, &mut rng).unwrap();
        let new = run_reshare(&old, DkgConfig::byzantine(4).unwrap(), &mut rng).unwrap();
        assert_eq!(old.group_public_key, new.group_public_key);
        let msg = b"shrunk";
        let partials: Vec<_> = new.participants[..2]
            .iter()
            .map(|p| bls::sign_share(&p.share, msg))
            .collect();
        assert!(bls::verify(
            &new.group_public_key,
            msg,
            &bls::aggregate(&partials).unwrap()
        ));
    }

    #[test]
    fn old_shares_are_invalidated_by_design() {
        // Old and new shares must not be mixable: aggregation across
        // generations yields garbage.
        let mut rng = rng();
        let old = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let new = run_reshare(&old, DkgConfig::byzantine(4).unwrap(), &mut rng).unwrap();
        let msg = b"mixed generations";
        let p_old = bls::sign_share(&old.participants[0].share, msg);
        let p_new = bls::sign_share(&new.participants[1].share, msg);
        let sig = bls::aggregate(&[p_old, p_new]).unwrap();
        assert!(!bls::verify(&new.group_public_key, msg, &sig));
    }

    #[test]
    fn forged_constant_term_is_rejected() {
        let mut rng = rng();
        let old = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let new_cfg = DkgConfig::byzantine(4).unwrap();
        let dealings: Vec<_> = old
            .participants
            .iter()
            .take(2)
            .enumerate()
            .map(|(i, p)| {
                let d = deal_reshare(&p.share, new_cfg, &mut rng);
                if i == 0 {
                    d.with_forged_constant()
                } else {
                    d
                }
            })
            .collect();
        let members: Vec<u32> = (1..=new_cfg.n).collect();
        for &me in &members {
            assert!(!verify_reshare_dealing(&dealings[0], &old.group, new_cfg, me));
            assert!(verify_reshare_dealing(&dealings[1], &old.group, new_cfg, me));
        }
        assert!(!verify_whole_reshare_dealing(&dealings[0], &old.group, new_cfg, &members));
        assert!(verify_whole_reshare_dealing(&dealings[1], &old.group, new_cfg, &members));
    }

    #[test]
    fn insufficient_dealers_rejected() {
        let mut rng = rng();
        let old = run_trusted_dealer_free(7, 2, &mut rng).unwrap();
        let new_cfg = DkgConfig::byzantine(7).unwrap();
        let dealings: Vec<_> = old
            .participants
            .iter()
            .take(2) // need old_t + 1 = 3
            .map(|p| deal_reshare(&p.share, new_cfg, &mut rng))
            .collect();
        assert!(matches!(
            combine_reshare(&dealings, &old.group, new_cfg, &[1]),
            Err(Error::InsufficientShares { got: 2, need: 3 })
        ));
    }

    #[test]
    fn repeated_reshares_keep_key_stable() {
        let mut rng = rng();
        let mut out = run_trusted_dealer_free(4, 1, &mut rng).unwrap();
        let pk = out.group_public_key;
        for n in [5, 6, 4, 7, 4] {
            out = run_reshare(&out, DkgConfig::byzantine(n).unwrap(), &mut rng).unwrap();
            assert_eq!(out.group_public_key, pk, "pk drifted at n={n}");
        }
    }
}
