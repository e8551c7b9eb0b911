//! The optimistic threshold-share collector (paper Fig. 6b, generalized).
//!
//! Every place that turns `⌊(n−1)/3⌋+1` share-signed copies of one payload
//! into one group-key check runs the same policy: bucket shares per
//! `(key, phase)` and per *identical* payload; once a bucket holds a quorum
//! of distinct signers, aggregate **all** of them and verify the aggregate
//! once against the group public key; only if that fails, verify each share
//! against its Feldman-derived share key, evict the culprits, and wait for
//! honest replacements. A signer has one share per `(key, phase)`: its
//! second, for whatever payload, is refused, so it cannot open a payload
//! variant per share, nor replace a share once evicted. The switch
//! (updates, Segway bodies), the aggregator and the phase notice's
//! collector all collect through this one type, so a rogue share costs
//! every verifier the same and is handled the same.
//!
//! An update is collected as the [`crate::msg::UpdateSet`] its shares
//! sign — at a switch under the update's id, at the aggregator under the
//! set itself. The set's root binds each member's body at every crypto
//! level, so the share that completes a quorum carries a member of exactly
//! the certified set, and that member is what the collector's caller
//! delivers or relays.
//!
//! Per-share eviction derives share keys from the [`GroupPublic`] the
//! caller passes. Switches and remote domains only hold the *bootstrap*
//! commitment: after a reshare the aggregate check still holds (the group
//! key is invariant), eviction does not (DESIGN.md §3).

use crate::runtime::KeyMaterial;
use blscrypto::bls::{self, PartialSignature, PreparedKey, Signature};
use blscrypto::dkg::GroupPublic;
use southbound::codec::Wire;
use southbound::envelope::signing_digest;
use southbound::types::Phase;
use std::collections::{BTreeMap, BTreeSet};

/// Shares over one payload variant.
#[derive(Clone, Debug)]
struct Bucket<T> {
    payload: T,
    partials: BTreeMap<u32, PartialSignature>,
}

/// A verified quorum: the payload, who signed it, and the group signature.
#[derive(Clone, Debug)]
pub struct Certificate<T> {
    /// The certified payload.
    pub payload: T,
    /// The signers whose shares were aggregated, ascending.
    pub signers: Vec<u32>,
    /// The aggregate (a placeholder when the math is skipped).
    pub signature: Signature,
}

/// Outcome of [`QuorumCollector::try_quorum`].
#[derive(Clone, Debug)]
pub enum Quorum<T> {
    /// No payload variant holds `quorum` distinct signers yet.
    Below,
    /// The aggregate of `shares` shares did not verify; each share was then
    /// checked singly and the failing ones evicted; their signers stay
    /// seen. The bucket waits for honest replacements.
    Rejected {
        /// Shares aggregated, and afterwards verified one by one.
        shares: usize,
    },
    /// The aggregate verified; the whole `(key, phase)` entry is gone.
    Certified(Certificate<T>),
}

impl<T> Quorum<T> {
    /// The work behind this outcome, as `(shares aggregated, signature
    /// verifications)` — callers price it in their own cost model.
    pub fn work(&self) -> (u64, u64) {
        match self {
            Quorum::Below => (0, 0),
            Quorum::Rejected { shares } => (*shares as u64, 1 + *shares as u64),
            Quorum::Certified(cert) => (cert.signers.len() as u64, 1),
        }
    }
}

/// What a quorum is checked against.
#[derive(Clone, Copy)]
pub struct Check<'a> {
    /// Signing-envelope label of the payload.
    pub label: &'a str,
    /// Distinct signers required.
    pub quorum: usize,
    /// The signing domain's group public key and Feldman commitment;
    /// `None` skips the curve math (modeled crypto, unauthenticated
    /// baselines) and certifies on the count alone.
    pub keys: Option<(&'a PreparedKey, &'a GroupPublic)>,
}

/// The shares of one `(key, phase)`: every signer seen there (evicted ones
/// included), and one bucket per payload variant.
type Entry<T> = (BTreeSet<u32>, Vec<Bucket<T>>);

/// Share buckets keyed by `(K, phase)`, one bucket per distinct payload.
#[derive(Clone, Debug)]
pub struct QuorumCollector<K, T> {
    entries: BTreeMap<(K, Phase), Entry<T>>,
}

impl<K: Ord + Copy, T: Wire + Clone + Eq> QuorumCollector<K, T> {
    /// An empty collector.
    pub fn new() -> Self {
        QuorumCollector {
            entries: BTreeMap::new(),
        }
    }

    /// Buckets one share of `payload` under `(key, phase)`. `false` when it
    /// changed nothing: the signer already offered a share under `(key,
    /// phase)`, for this payload or another (the first one is kept), or was
    /// evicted there.
    pub fn offer(&mut self, key: K, phase: Phase, payload: T, partial: PartialSignature) -> bool {
        let (seen, buckets) = self.entries.entry((key, phase)).or_default();
        if !seen.insert(partial.index) {
            return false;
        }
        let bucket = match buckets.iter().position(|b| b.payload == payload) {
            Some(i) => &mut buckets[i],
            None => {
                buckets.push(Bucket {
                    payload,
                    partials: BTreeMap::new(),
                });
                buckets.last_mut().expect("just pushed")
            }
        };
        bucket.partials.insert(partial.index, partial);
        true
    }

    /// Most distinct signers any payload variant of `(key, phase)` holds.
    pub fn have(&self, key: K, phase: Phase) -> usize {
        self.entries
            .get(&(key, phase))
            .and_then(|(_, bs)| bs.iter().map(|b| b.partials.len()).max())
            .unwrap_or(0)
    }

    /// Every key that holds bucketed shares and no certificate yet.
    pub fn waiting(&self) -> impl Iterator<Item = K> + '_ {
        self.entries.keys().map(|(key, _)| *key)
    }

    /// Drops every entry of another phase (membership change).
    pub fn retain_phase(&mut self, phase: Phase) {
        self.entries.retain(|(_, p), _| *p == phase);
    }

    /// Aggregate → verify → evict on the first payload variant of
    /// `(key, phase)` holding a quorum.
    pub fn try_quorum(&mut self, key: K, phase: Phase, check: Check<'_>) -> Quorum<T> {
        let Some(bucket) = self
            .entries
            .get_mut(&(key, phase))
            .and_then(|(_, bs)| bs.iter_mut().find(|b| b.partials.len() >= check.quorum))
        else {
            return Quorum::Below;
        };
        let partials: Vec<PartialSignature> = bucket.partials.values().copied().collect();
        let signature = match check.keys {
            None => KeyMaterial::dummy_signature(),
            Some((group_pk, group)) => {
                let digest = signing_digest(check.label, phase, &bucket.payload);
                match bls::aggregate(&partials) {
                    Ok(sig) if group_pk.verify(&digest, &sig) => sig,
                    _ => {
                        // Some share is bad: find it, so the bucket can
                        // complete from honest replacements.
                        for p in &partials {
                            let share_pk = group.member_public_key(p.index);
                            if !bls::verify_partial(&share_pk, &digest, p) {
                                bucket.partials.remove(&p.index);
                            }
                        }
                        return Quorum::Rejected {
                            shares: partials.len(),
                        };
                    }
                }
            }
        };
        let payload = bucket.payload.clone();
        self.entries.remove(&(key, phase));
        Quorum::Certified(Certificate {
            payload,
            signers: partials.iter().map(|p| p.index).collect(),
            signature,
        })
    }
}

impl<K: Ord + Copy, T: Wire + Clone + Eq> Default for QuorumCollector<K, T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blscrypto::bls::KeyShare;
    use blscrypto::dkg::{self, DkgOutput};
    use southbound::envelope::{MsgId, ShareSigned};
    use southbound::types::{DomainId, FlowId};
    use substrate::rng::{SeedableRng, StdRng};

    const LABEL: &str = "TEST_COLLECTOR";
    const P0: Phase = Phase(0);

    fn group() -> DkgOutput {
        dkg::run_trusted_dealer_free(4, 1, &mut StdRng::seed_from_u64(0xc011)).expect("dkg")
    }

    fn share(out: &DkgOutput, signer: u32, phase: Phase, payload: FlowId) -> PartialSignature {
        let digest = signing_digest(LABEL, phase, &payload);
        bls::sign_share(&out.participants[(signer - 1) as usize].share, &digest)
    }

    /// Runs `try_quorum` with real keys at quorum 2.
    fn attempt(
        c: &mut QuorumCollector<u8, FlowId>,
        out: &DkgOutput,
        key: u8,
        phase: Phase,
    ) -> Quorum<FlowId> {
        c.try_quorum(
            key,
            phase,
            Check {
                label: LABEL,
                quorum: 2,
                keys: Some((&out.group_public_key.into(), &out.group)),
            },
        )
    }

    #[test]
    fn duplicate_index_keeps_the_first_share_and_never_counts_twice() {
        let out = group();
        let mut c = QuorumCollector::new();
        let honest = share(&out, 1, P0, FlowId(7));
        assert!(c.offer(1u8, P0, FlowId(7), honest));
        // Same signer again — even with different bytes — is a repeat.
        let other = PartialSignature {
            index: 1,
            sig: share(&out, 2, P0, FlowId(7)).sig,
        };
        assert!(!c.offer(1, P0, FlowId(7), other));
        assert_eq!(c.have(1, P0), 1);
        let q = attempt(&mut c, &out, 1, P0);
        assert!(matches!(q, Quorum::Below));
        assert_eq!(q.work(), (0, 0), "below quorum costs nothing");
        // The kept share is the first one: it completes with signer 2.
        c.offer(1, P0, FlowId(7), share(&out, 2, P0, FlowId(7)));
        let q = attempt(&mut c, &out, 1, P0);
        assert_eq!(q.work(), (2, 1), "two shares aggregated, one verification");
        let Quorum::Certified(cert) = q else {
            panic!("two honest shares certify");
        };
        assert_eq!(cert.signers, vec![1, 2]);
        assert_eq!(cert.payload, FlowId(7));
        let digest = signing_digest(LABEL, P0, &FlowId(7));
        assert!(bls::verify(&out.group_public_key, &digest, &cert.signature));
    }

    /// A signer's second share under the same `(key, phase)` is refused
    /// whatever its payload: one signer opens at most one variant there.
    #[test]
    fn a_signers_second_share_under_another_payload_is_refused() {
        let out = group();
        let mut c = QuorumCollector::new();
        assert!(c.offer(1u8, P0, FlowId(7), share(&out, 1, P0, FlowId(7))));
        assert!(!c.offer(1, P0, FlowId(8), share(&out, 1, P0, FlowId(8))));
        // Another key or another phase is an entry of its own.
        assert!(c.offer(2, P0, FlowId(8), share(&out, 1, P0, FlowId(8))));
        assert!(c.offer(1, Phase(1), FlowId(8), share(&out, 1, Phase(1), FlowId(8))));
        // The refused share holds no place: FlowId(8) needs two new signers.
        c.offer(1, P0, FlowId(8), share(&out, 2, P0, FlowId(8)));
        assert!(matches!(attempt(&mut c, &out, 1, P0), Quorum::Below));
        c.offer(1, P0, FlowId(8), share(&out, 3, P0, FlowId(8)));
        let Quorum::Certified(cert) = attempt(&mut c, &out, 1, P0) else {
            panic!("two fresh signers certify");
        };
        assert_eq!((cert.payload, cert.signers), (FlowId(8), vec![2, 3]));
    }

    #[test]
    fn below_quorum_and_split_payloads_never_certify() {
        let out = group();
        let mut c = QuorumCollector::new();
        // Two signers, two different payloads: one share each.
        c.offer(1u8, P0, FlowId(1), share(&out, 1, P0, FlowId(1)));
        c.offer(1, P0, FlowId(2), share(&out, 2, P0, FlowId(2)));
        assert_eq!(c.have(1, P0), 1);
        assert!(matches!(attempt(&mut c, &out, 1, P0), Quorum::Below));
        // Another key's shares do not help either.
        c.offer(2, P0, FlowId(1), share(&out, 3, P0, FlowId(1)));
        assert!(matches!(attempt(&mut c, &out, 1, P0), Quorum::Below));
        assert_eq!(c.have(9, P0), 0);
    }

    #[test]
    fn rogue_share_is_evicted_and_a_late_honest_share_completes() {
        let out = group();
        let mut c = QuorumCollector::new();
        // Signer 2 signs a different payload under the right index.
        let rogue = PartialSignature {
            index: 2,
            ..share(&out, 2, P0, FlowId(666))
        };
        c.offer(1u8, P0, FlowId(7), share(&out, 1, P0, FlowId(7)));
        c.offer(1, P0, FlowId(7), rogue);
        let q = attempt(&mut c, &out, 1, P0);
        assert!(matches!(q, Quorum::Rejected { shares: 2 }));
        assert_eq!(
            q.work(),
            (2, 3),
            "one aggregate check plus one fallback check per share"
        );
        assert_eq!(c.have(1, P0), 1, "only the honest share survives");
        // The evicted signer stays out, even with a now-honest share.
        assert!(!c.offer(1, P0, FlowId(7), share(&out, 2, P0, FlowId(7))));
        assert!(matches!(attempt(&mut c, &out, 1, P0), Quorum::Below));
        // A late honest share from someone else completes the quorum.
        assert!(c.offer(1, P0, FlowId(7), share(&out, 4, P0, FlowId(7))));
        let Quorum::Certified(cert) = attempt(&mut c, &out, 1, P0) else {
            panic!("honest quorum certifies after eviction");
        };
        assert_eq!(cert.signers, vec![1, 4]);
        assert_eq!(c.have(1, P0), 0, "certified entries are dropped");
    }

    /// Controller 1's seam over a bootstrap sharing of 4, and a reshare of
    /// that sharing to 5 members: same group key, new commitment and shares.
    fn reshare_fixture() -> (crate::auth::Authenticator, DomainId, DkgOutput, DkgOutput) {
        use crate::auth::{Authenticator, Peer};
        use crate::config::{CryptoMode, Mode};
        use crate::runtime::bootstrap_keys;
        use blscrypto::dkg::DkgConfig;
        use southbound::types::{ControllerId, SwitchId};

        let engine = crate::engine::default_pod_engine(Mode::CICERO, CryptoMode::Real, 1);
        let shared = std::sync::Arc::clone(engine.shared());
        let switches: Vec<SwitchId> = shared.topo.switches().iter().map(|s| s.id).collect();
        let (_, secrets) = bootstrap_keys(CryptoMode::Real, &switches, &shared.dir, shared.cfg.seed);
        let (&domain, old) = secrets.domain_dkg.iter().next().expect("one domain");
        let mut rng = StdRng::seed_from_u64(0x5e5a);
        let cfg5 = DkgConfig::byzantine(5).expect("n = 5");
        let new = blscrypto::reshare::run_reshare(old, cfg5, &mut rng).expect("reshare");
        assert_eq!(new.group_public_key, old.group_public_key);
        let me = Peer::Controller(domain, ControllerId(1));
        let auth = Authenticator::new(shared, me, None, Some(share_of(old, 1)));
        (auth, domain, old.clone(), new)
    }

    fn share_of(out: &DkgOutput, signer: usize) -> KeyShare {
        out.participants[signer - 1].share.clone()
    }

    /// `FlowId(7)` share-signed in `phase`.
    fn signed(share: &KeyShare, phase: Phase) -> ShareSigned<FlowId> {
        let id = MsgId {
            origin: share.index,
            seq: 1,
        };
        ShareSigned::sign(LABEL, FlowId(7), phase, id, share)
    }

    /// The group key survives a reshare and keeps its line table; the share
    /// keys do not survive it, and eviction must derive them from the
    /// commitment `Authenticator::rekey` installed, not from anything cached
    /// under the old one.
    #[test]
    fn rogue_share_is_evicted_after_rekey_under_the_same_prepared_group_key() {
        let (mut auth, domain, old, new) = reshare_fixture();
        let mut c: QuorumCollector<u8, FlowId> = QuorumCollector::new();
        // A first quorum builds the group key's table.
        for signer in [1, 2] {
            let q = auth.collect(&mut c, 1, signed(&share_of(&old, signer), P0), LABEL, 2, domain);
            assert_eq!(matches!(q, Quorum::Certified(_)), signer == 2);
        }
        auth.rekey(P0, Some(share_of(&new, 1)), new.group.clone());
        // Signer 2 keeps signing with its pre-reshare share: valid under the
        // old commitment, rogue under the new one.
        assert!(matches!(
            auth.collect(&mut c, 2, signed(&share_of(&new, 1), P0), LABEL, 2, domain),
            Quorum::Below
        ));
        assert!(matches!(
            auth.collect(&mut c, 2, signed(&share_of(&old, 2), P0), LABEL, 2, domain),
            Quorum::Rejected { shares: 2 }
        ));
        assert_eq!(c.have(2, P0), 1, "the honest new share stays, the stale one is evicted");
        let Quorum::Certified(cert) =
            auth.collect(&mut c, 2, signed(&share_of(&new, 3), P0), LABEL, 2, domain)
        else {
            panic!("two post-reshare shares certify under the unchanged group key");
        };
        assert_eq!(cert.signers, vec![1, 3]);
    }

    /// Shares of the phase being re-keyed for arrive before the new keys:
    /// judged under the old commitment, the honest new share would be
    /// evicted and the stale one kept. They wait unjudged, and the first
    /// share after the re-key judges them all — and, the stale one evicted,
    /// judges the quorum left at once.
    #[test]
    fn shares_ahead_of_the_rekey_wait_for_its_keys() {
        let (mut auth, domain, old, new) = reshare_fixture();
        let p1 = Phase(1);
        let mut c: QuorumCollector<u8, FlowId> = QuorumCollector::new();
        for early in [signed(&share_of(&old, 2), p1), signed(&share_of(&new, 3), p1)] {
            assert!(matches!(auth.collect(&mut c, 1, early, LABEL, 2, domain), Quorum::Below));
        }
        assert_eq!((c.have(1, p1), auth.checks()), (2, 0), "held, unjudged");
        auth.rekey(p1, Some(share_of(&new, 1)), new.group.clone());
        let Quorum::Certified(cert) =
            auth.collect(&mut c, 1, signed(&share_of(&new, 1), p1), LABEL, 2, domain)
        else {
            panic!("the honest shares left after the eviction certify");
        };
        assert_eq!(cert.signers, vec![1, 3]);
        assert_eq!(auth.checks(), 2, "the rejected aggregate, then the certified one");
    }

    #[test]
    fn phases_bucket_apart_and_prune() {
        let out = group();
        let mut c = QuorumCollector::new();
        c.offer(1u8, P0, FlowId(7), share(&out, 1, P0, FlowId(7)));
        c.offer(1, Phase(1), FlowId(7), share(&out, 2, Phase(1), FlowId(7)));
        assert!(matches!(attempt(&mut c, &out, 1, P0), Quorum::Below));
        assert!(matches!(
            attempt(&mut c, &out, 1, Phase(1)),
            Quorum::Below
        ));
        c.retain_phase(Phase(1));
        assert_eq!(c.have(1, P0), 0);
        assert_eq!(c.have(1, Phase(1)), 1);
        // A share signed for another phase does not verify in this one.
        c.offer(1, Phase(1), FlowId(7), share(&out, 3, P0, FlowId(7)));
        assert!(matches!(
            attempt(&mut c, &out, 1, Phase(1)),
            Quorum::Rejected { .. }
        ));
        assert_eq!(c.have(1, Phase(1)), 1);
    }

    #[test]
    fn skipped_math_certifies_on_the_count_and_reports_the_same_work() {
        let mut c: QuorumCollector<u8, FlowId> = QuorumCollector::new();
        let placeholder = |index| PartialSignature {
            index,
            sig: KeyMaterial::dummy_signature().0,
        };
        c.offer(1, P0, FlowId(7), placeholder(1));
        c.offer(1, P0, FlowId(7), placeholder(3));
        let check = Check {
            label: LABEL,
            quorum: 2,
            keys: None,
        };
        let q = c.try_quorum(1, P0, check);
        assert_eq!(q.work(), (2, 1));
        let Quorum::Certified(cert) = q else {
            panic!("count alone certifies when the math is skipped");
        };
        assert_eq!(cert.signers, vec![1, 3]);
    }
}
