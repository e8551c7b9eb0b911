//! Shared runtime context handed to every protocol actor: node directory,
//! public key material, topology, policies and configuration.

use crate::auth::Peer;
use crate::config::{CryptoMode, EngineConfig};
use crate::msg::Net;
use blscrypto::bls::{PreparedKey, PublicKey, SecretKey, Signature};
use blscrypto::curves::G1Affine;
use blscrypto::dkg::{DkgConfig, DkgOutput, GroupPublic};
use blscrypto::feldman::Commitment;
use blscrypto::curves::G2Projective;
use controller::policy::GlobalDomainPolicy;
use netmodel::routing::route;
use netmodel::topology::Topology;
use substrate::rng::{SeedableRng, StdRng};
use workload::gen::FlowSpec;
use simnet::node::NodeId;
use simnet::time::SimTime;
use southbound::types::{ControllerId, DomainId, SwitchId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Envelope labels (domain separation of signatures and tags).
pub mod labels {
    /// Switch-originated events.
    pub const EVENT: &str = "CICERO_EVENT_V1";
    /// Controller-forwarded cross-domain events.
    pub const FORWARD: &str = "CICERO_FORWARD_V1";
    /// Update bodies (threshold-signed: the update plus its gate/notify
    /// metadata, empty outside Segway).
    pub const UPDATE: &str = "CICERO_UPDATE_V1";
    /// Switch acknowledgements.
    pub const ACK: &str = "CICERO_ACK_V1";
    /// Switch negative acknowledgements (state re-sync requests).
    pub const NACK: &str = "CICERO_NACK_V1";
    /// Phase notices.
    pub const PHASE: &str = "CICERO_PHASE_V1";
    /// Cross-domain segment-applied reports.
    pub const SEGMENT: &str = "CICERO_SEGMENT_V1";
    /// Segway switch-to-switch ready messages (switch identity keys).
    pub const READY: &str = "CICERO_SEGWAY_READY_V1";
}

/// Who lives where in the simulation.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    /// Switch → simulation node.
    pub switch_node: BTreeMap<SwitchId, NodeId>,
    /// (domain, controller) → simulation node (includes standbys).
    pub controller_node: BTreeMap<(DomainId, ControllerId), NodeId>,
    /// Switch → its domain.
    pub domain_of_switch: BTreeMap<SwitchId, DomainId>,
    /// Initial (active) members per domain, ascending.
    pub initial_members: BTreeMap<DomainId, Vec<ControllerId>>,
    /// Simulation node → who sits there (the two maps above, reversed).
    pub node_peer: BTreeMap<NodeId, Peer>,
}

impl Directory {
    /// Who sits at `node`: how a handler learns its sender — from the
    /// transport, once, never from a field of the (unsigned) message.
    /// `None` for the environment and unknown nodes.
    pub fn peer(&self, node: NodeId) -> Option<Peer> {
        self.node_peer.get(&node).copied()
    }

    /// The node of a controller.
    ///
    /// # Panics
    ///
    /// Panics for unknown controllers (directory is complete by
    /// construction), naming the domain and controller id it was asked for.
    pub fn controller(&self, domain: DomainId, id: ControllerId) -> NodeId {
        match self.controller_node.get(&(domain, id)) {
            Some(&node) => node,
            None => panic!(
                "directory has no controller {id:?} in domain {domain:?} \
                 ({} controllers known)",
                self.controller_node.len()
            ),
        }
    }

    /// The node of a switch.
    pub fn switch(&self, id: SwitchId) -> NodeId {
        self.switch_node[&id]
    }

    /// All switch nodes of a domain, ascending by switch id.
    pub fn domain_switch_nodes(&self, domain: DomainId) -> Vec<NodeId> {
        self.domain_of_switch
            .iter()
            .filter(|(_, &d)| d == domain)
            .map(|(s, _)| self.switch_node[s])
            .collect()
    }
}

/// Public key material of one domain's control plane.
#[derive(Clone, Debug)]
pub struct DomainKeys {
    /// The DKG public output (commitment → member share public keys).
    pub group: GroupPublic,
    /// The group public key installed on switches.
    pub public_key: PreparedKey,
}

/// All public key material (secrets live inside their actors). A group key
/// is a [`PreparedKey`]: whichever node first verifies under it builds its
/// line table, once for the whole run — nothing is built at key ceremony
/// time, and nothing at all under [`CryptoMode::Modeled`]. An identity key
/// verifies nothing; it only derives pair keys ([`crate::auth::pair_key`]).
#[derive(Clone, Debug)]
pub struct KeyMaterial {
    /// Switch identity public keys.
    pub switch_pk: BTreeMap<SwitchId, PublicKey>,
    /// Controller identity public keys, standbys included.
    pub controller_pk: BTreeMap<(DomainId, ControllerId), PublicKey>,
    /// Per-domain threshold material.
    pub domains: BTreeMap<DomainId, DomainKeys>,
    /// Placeholder signature used in [`CryptoMode::Modeled`] envelopes.
    pub dummy: Signature,
}

impl KeyMaterial {
    /// A placeholder (identity-point) signature.
    pub fn dummy_signature() -> Signature {
        Signature(G1Affine::identity())
    }
}

/// Builds a fake `GroupPublic` (identity commitments) for
/// [`CryptoMode::Modeled`] runs where the curve math is skipped but the
/// protocol structure (quorums, member indices) must still exist.
pub fn fake_group(n: u32, t: u32) -> GroupPublic {
    GroupPublic {
        commitment: Commitment::from_points(vec![
            G2Projective::identity();
            t as usize + 1
        ]),
        qualified: (1..=n).collect(),
        config: DkgConfig::new(n, t).expect("valid parameters"),
    }
}

/// The immutable context shared by all actors of one engine run.
pub struct Shared {
    /// Engine configuration.
    pub cfg: EngineConfig,
    /// The network topology.
    pub topo: Arc<Topology>,
    /// Domain partition + global domain policy.
    pub policy: Arc<GlobalDomainPolicy>,
    /// Node directory.
    pub dir: Directory,
    /// Public key material.
    pub keys: KeyMaterial,
}

impl Shared {
    /// How a workload flow enters the network: the node of its source's
    /// ToR switch and the `FlowArrival` to deliver there, stamped `start`.
    /// The route transit latency is precomputed from the topology
    /// (data-plane forwarding is not what the protocol measures). `None`
    /// for an unroutable flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow's source host is not in the topology.
    pub fn flow_arrival(&self, f: &FlowSpec, start: SimTime) -> Option<(NodeId, Net)> {
        let r = route(&self.topo, f.src, f.dst)?;
        let ingress = self.topo.host(f.src).expect("known host").attached;
        let msg = Net::FlowArrival {
            flow: f.id,
            src: f.src,
            dst: f.dst,
            bytes: f.bytes,
            transit: r.latency,
            start,
        };
        Some((self.dir.switch(ingress), msg))
    }
}

/// Generates the per-actor secret material for a run.
#[derive(Default)]
pub struct SecretStore {
    /// Switch identity secret keys (moved into switch actors at build).
    pub switch_sk: BTreeMap<SwitchId, SecretKey>,
    /// Controller identity secret keys, standbys included.
    pub controller_sk: BTreeMap<(DomainId, ControllerId), SecretKey>,
    /// Per-domain DKG outputs (shares moved into controller actors).
    pub domain_dkg: BTreeMap<DomainId, DkgOutput>,
}

/// Runs the bootstrap key ceremony.
///
/// In `Real` mode this performs actual key generation and a DKG per domain
/// (what the paper's deployment does once at bootstrap); in `Modeled` mode
/// identity placeholders are produced so that large benchmark runs skip the
/// curve math entirely. `dir` names each domain's bootstrap members and its
/// standbys; a standby draws its identity secret after every other draw, so
/// no other key depends on how many there are. No MAC key is dealt: each
/// pair derives its own from the identity keys ([`crate::auth::pair_key`]).
pub fn bootstrap_keys(
    crypto: CryptoMode,
    switches: &[SwitchId],
    dir: &Directory,
    seed: u64,
) -> (KeyMaterial, SecretStore) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1ce_0cee);
    let mut material = KeyMaterial {
        switch_pk: BTreeMap::new(),
        controller_pk: BTreeMap::new(),
        domains: BTreeMap::new(),
        dummy: KeyMaterial::dummy_signature(),
    };
    let mut secrets = SecretStore::default();
    let real = crypto == CryptoMode::Real;
    for &s in switches {
        draw_identity(real, s, &mut material.switch_pk, &mut secrets.switch_sk, &mut rng);
    }
    let (pks, sks) = (&mut material.controller_pk, &mut secrets.controller_sk);
    for (&d, members) in &dir.initial_members {
        for &c in members {
            draw_identity(real, (d, c), pks, sks, &mut rng);
        }
        let n = members.len() as u32;
        let t = (n.saturating_sub(1)) / 3;
        if real && n >= 1 {
            let dkg = blscrypto::dkg::run_trusted_dealer_free(n, t.max(0), &mut rng)
                .expect("bootstrap DKG");
            material.domains.insert(
                d,
                DomainKeys {
                    public_key: dkg.group_public_key.into(),
                    group: dkg.group.clone(),
                },
            );
            secrets.domain_dkg.insert(d, dkg);
        } else {
            let group = fake_group(n.max(1), t);
            material.domains.insert(
                d,
                DomainKeys {
                    public_key: group.public_key().into(),
                    group,
                },
            );
        }
    }
    for &standby in dir.controller_node.keys() {
        if !material.controller_pk.contains_key(&standby) {
            let (pks, sks) = (&mut material.controller_pk, &mut secrets.controller_sk);
            draw_identity(real, standby, pks, sks, &mut rng);
        }
    }
    (material, secrets)
}

/// One identity key of `who`: a secret drawn under `Real`, a placeholder
/// public key (and no draw) otherwise.
fn draw_identity<K: Ord + Copy>(
    real: bool,
    who: K,
    pks: &mut BTreeMap<K, PublicKey>,
    sks: &mut BTreeMap<K, SecretKey>,
    rng: &mut StdRng,
) {
    if !real {
        pks.insert(who, PublicKey(blscrypto::curves::G2Affine::identity()));
        return;
    }
    let sk = SecretKey::generate(rng);
    pks.insert(who, sk.public_key());
    sks.insert(who, sk);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "no controller ControllerId(7) in domain DomainId(3)")]
    fn directory_controller_panic_names_the_lookup() {
        let mut dir = Directory::default();
        dir.controller_node
            .insert((DomainId(0), ControllerId(1)), NodeId(0));
        dir.controller(DomainId(3), ControllerId(7));
    }

    /// `switches` spread round-robin over `domains` domains of 4 members.
    fn directory(switches: &[SwitchId], domains: u16) -> Directory {
        let mut dir = Directory::default();
        for d in (0..domains).map(DomainId) {
            dir.initial_members.insert(d, (1..=4).map(ControllerId).collect());
        }
        for &s in switches {
            dir.domain_of_switch.insert(s, DomainId(s.0 as u16 % domains));
        }
        dir
    }

    #[test]
    fn modeled_bootstrap_is_cheap_and_complete() {
        let switches: Vec<SwitchId> = (0..10).map(SwitchId).collect();
        let dir = directory(&switches, 2);
        let (mat, sec) = bootstrap_keys(CryptoMode::Modeled, &switches, &dir, 7);
        assert_eq!(mat.switch_pk.len(), 10);
        assert_eq!(mat.domains.len(), 2);
        assert!(sec.switch_sk.is_empty() && sec.controller_sk.is_empty());
        assert_eq!(mat.domains[&DomainId(0)].group.config.quorum(), 2);
    }

    #[test]
    fn standbys_draw_their_identity_keys_last() {
        let switches: Vec<SwitchId> = (0..4).map(SwitchId).collect();
        let mut dir = directory(&switches, 2);
        let bootstrap_only = bootstrap_keys(CryptoMode::Real, &switches, &dir, 7);
        let standby = (DomainId(0), ControllerId(5));
        dir.controller_node.insert(standby, NodeId(99));
        let (mat, sec) = bootstrap_keys(CryptoMode::Real, &switches, &dir, 7);
        let (was, _) = &bootstrap_only;
        assert!(mat.switch_pk.iter().all(|(s, k)| *k == was.switch_pk[s]));
        for (who, k) in &was.controller_pk {
            assert_eq!(*k, mat.controller_pk[who], "{who:?} moved");
        }
        for (d, keys) in &was.domains {
            assert_eq!(keys.public_key.key(), mat.domains[d].public_key.key(), "{d:?} moved");
        }
        assert_eq!(sec.controller_sk[&standby].public_key(), mat.controller_pk[&standby]);
        let (mat, sec) = bootstrap_keys(CryptoMode::Modeled, &switches, &dir, 7);
        assert!(mat.controller_pk.contains_key(&standby) && sec.controller_sk.is_empty());
    }

    #[test]
    fn real_bootstrap_produces_working_threshold_keys() {
        let switches: Vec<SwitchId> = (0..2).map(SwitchId).collect();
        let dir = directory(&switches, 1);
        let (mat, sec) = bootstrap_keys(CryptoMode::Real, &switches, &dir, 7);
        let dkg = &sec.domain_dkg[&DomainId(0)];
        let msg = b"bootstrap check";
        let partials: Vec<_> = dkg.participants[..2]
            .iter()
            .map(|p| blscrypto::bls::sign_share(&p.share, msg))
            .collect();
        let sig = blscrypto::bls::aggregate(&partials).unwrap();
        assert!(mat.domains[&DomainId(0)].public_key.verify(msg, &sig));
    }
}
