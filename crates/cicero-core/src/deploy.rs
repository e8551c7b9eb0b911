//! The node lifecycle shared by every executor: node-id assignment, the
//! directory, the key ceremony, and the one function that boots any life
//! of any node.
//!
//! Both the discrete-event engine ([`crate::engine::Engine`]) and the
//! threaded runtime (`cicero-node`) consume a [`Deployment`]. The plan is a
//! pure function of `(cfg, topo, domain_map, standby_controllers)` and
//! keeps one [`NodeSeed`] per node id; [`Deployment::boot`] turns a seed
//! into a ready actor for its first life and for every life after a crash,
//! so the two executors stand up byte-identical protocol state and differ
//! only in how they schedule it.

use crate::auth::Peer;
use crate::config::{EngineConfig, Mode};
use crate::ctrl::ControllerActor;
use crate::msg::{Net, PhaseInfo};
use crate::obs::{Obs, RetransmitStats};
use crate::runtime::{bootstrap_keys, Directory, Shared};
use crate::switch::SwitchActor;
use blscrypto::bls::{KeyShare, SecretKey};
use controller::membership::ControlPlaneView;
use controller::policy::{DomainMap, GlobalDomainPolicy};
use netmodel::topology::Topology;
use simnet::node::{Actor, Host, NodeId, TimerToken};
use southbound::types::{ControllerId, DomainId, SwitchId};
use std::collections::BTreeMap;
use std::sync::Arc;
use substrate::storage::DiskHandle;

/// The actor occupying a node. Executors schedule it through its
/// [`Actor`] impl without caring which kind it is.
pub enum NodeRole {
    /// A domain controller (member or standby).
    Controller {
        /// Domain the controller belongs to.
        domain: DomainId,
        /// Controller id within the domain.
        id: ControllerId,
        /// The constructed actor.
        actor: Box<ControllerActor>,
    },
    /// A switch.
    Switch {
        /// Switch id.
        id: SwitchId,
        /// The constructed actor.
        actor: Box<SwitchActor>,
    },
}

/// Reliable-delivery work one node still owns: the probe both executors'
/// convergence watchdogs sum over their live nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outstanding {
    /// Updates sent but not yet acknowledged.
    pub unacked: usize,
    /// Updates still blocked on dependencies.
    pub waiting: usize,
    /// Updates abandoned after retry-budget exhaustion.
    pub failed: usize,
    /// Signed events a switch is still retransmitting. (A Segway body
    /// parked on a missing ready shows as its controllers' `unacked`.)
    pub events: usize,
    /// Controllers still state-syncing after a restart.
    pub recovering: usize,
}

impl Outstanding {
    /// Work that keeps a run from being complete. Abandoned updates are
    /// reported, not waited for: nothing will ever drain them.
    pub fn blocking(&self) -> usize {
        self.unacked + self.waiting + self.events + self.recovering
    }
}

impl std::ops::AddAssign for Outstanding {
    fn add_assign(&mut self, o: Outstanding) {
        self.unacked += o.unacked;
        self.waiting += o.waiting;
        self.failed += o.failed;
        self.events += o.events;
        self.recovering += o.recovering;
    }
}

/// How far a run has come and what it still owes: the body of both
/// executors' reports (`RunReport`, `cicero-node`'s `ThreadedReport`), with
/// the one completion predicate and the one `Display` they share. A
/// watchdog's poll fills in the flows and the outstanding work, which is all
/// [`Progress::complete`] reads; the counters are the final report's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Flows injected.
    pub injected_flows: usize,
    /// Flows that completed or were denied.
    pub resolved_flows: usize,
    /// Reliable-delivery work summed over the live nodes.
    pub outstanding: Outstanding,
    /// Messages lost on the way to each node, indexed by node id: dropped
    /// by the simulator's fault plan, or by a full mailbox on threads.
    pub dropped_per_node: Vec<u64>,
    /// Reliable-delivery activity counters for the whole run.
    pub stats: RetransmitStats,
}

impl Progress {
    /// The completion predicate of both watchdogs: every injected flow
    /// resolved and no live node owns blocking work.
    pub fn complete(&self) -> bool {
        self.resolved_flows >= self.injected_flows && self.outstanding.blocking() == 0
    }

    /// Total messages dropped before delivery, summed over nodes.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped_per_node.iter().sum()
    }
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (out, s) = (&self.outstanding, &self.stats);
        writeln!(f, "{}/{} flows resolved", self.resolved_flows, self.injected_flows)?;
        writeln!(
            f,
            "  outstanding: {} unacked, {} waiting, {} failed updates; {} pending events; {} recovering; {} msgs dropped",
            out.unacked,
            out.waiting,
            out.failed,
            out.events,
            out.recovering,
            self.dropped_messages()
        )?;
        write!(
            f,
            "  recoveries: {} update rtx, {} ack rtx, {} event rtx, {} segment rtx, {} fwd rtx, {} ready rtx, {} nacks, {} resyncs, {} updates / {} events exhausted",
            s.update_retransmits,
            s.ack_retransmits,
            s.event_retransmits,
            s.segment_retransmits,
            s.forward_retransmits,
            s.ready_retransmits,
            s.nacks,
            s.resyncs,
            s.updates_exhausted,
            s.events_exhausted
        )
    }
}

impl NodeRole {
    fn actor(&mut self) -> &mut dyn Actor<Net, Obs> {
        match self {
            NodeRole::Controller { actor, .. } => actor.as_mut(),
            NodeRole::Switch { actor, .. } => actor.as_mut(),
        }
    }

    /// The reliable-delivery work this node still owns.
    pub fn outstanding(&self) -> Outstanding {
        match self {
            NodeRole::Controller { actor, .. } => {
                let p = actor.pending();
                Outstanding {
                    unacked: p.in_flight_count(),
                    waiting: p.waiting_count(),
                    failed: p.failed_count(),
                    recovering: usize::from(actor.is_recovering()),
                    ..Outstanding::default()
                }
            }
            NodeRole::Switch { actor, .. } => Outstanding {
                events: actor.outstanding_event_count(),
                ..Outstanding::default()
            },
        }
    }
}

impl Actor<Net, Obs> for NodeRole {
    fn on_start(&mut self, ctx: &mut dyn Host<Net, Obs>) {
        self.actor().on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Host<Net, Obs>, from: NodeId, msg: Net) {
        self.actor().on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Host<Net, Obs>, token: TimerToken) {
        self.actor().on_timer(ctx, token);
    }
}

/// Which life of a node [`Deployment::boot`] is asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Life {
    /// The life the deployment starts with: empty disk, nothing to recover.
    First,
    /// A life after a crash. The actor replays its WAL before rejoining
    /// (a controller then state-syncs the gap from a peer). With
    /// `disk_lost` the disk is wiped first — a replacement machine: a
    /// controller recovers from its peers alone, a switch comes back with
    /// an empty table.
    Restart {
        /// Wipe the node's disk before booting.
        disk_lost: bool,
    },
}

/// What the plan keeps of one node so that any of its lives can be booted:
/// who it is, its secret key material, and its disk once provisioned.
pub struct NodeSeed {
    /// The node id the executor must assign to this node's actor.
    pub node: NodeId,
    who: Identity,
    disk: Option<DiskHandle>,
}

enum Identity {
    Controller {
        domain: DomainId,
        id: ControllerId,
        /// Per-controller signing identity (real-crypto modes).
        identity: Option<SecretKey>,
        /// Threshold signature share (Cicero modes).
        share: Option<KeyShare>,
        /// Member (`true`) or standby (`false`) at plan time.
        active: bool,
    },
    Switch {
        id: SwitchId,
        /// Per-switch signing identity (real-crypto modes).
        key: Option<SecretKey>,
    },
}

/// A post-build change to every controller (see
/// [`Deployment::customize_controllers`]).
type Customize = Box<dyn Fn(&mut ControllerActor) + Send + Sync>;

/// A fully planned deployment: shared runtime context plus one seed per
/// node, from which an executor boots and re-boots the actors it schedules.
pub struct Deployment {
    /// Shared immutable runtime context (config, topology, directory, keys).
    pub shared: Arc<Shared>,
    /// `(dc, pod)` location per node id, for latency models.
    pub locations: Vec<(u16, u16)>,
    /// One seed per node, indexed by node id (controllers first, then
    /// switches).
    pub nodes: Vec<NodeSeed>,
    /// The bootstrap controller's node in each domain (membership commands
    /// are injected here).
    pub bootstrap_nodes: BTreeMap<DomainId, NodeId>,
    customize: Vec<Customize>,
}

impl Deployment {
    /// Provisions per-controller durable storage: one disk from `factory`
    /// per controller, attached to every life [`Deployment::boot`] builds.
    pub fn provision_storage<F: FnMut(DomainId, ControllerId) -> DiskHandle>(
        &mut self,
        mut factory: F,
    ) {
        for seed in &mut self.nodes {
            if let Identity::Controller { domain, id, .. } = seed.who {
                seed.disk = Some(factory(domain, id));
            }
        }
    }

    /// Provisions per-switch durable storage: one disk from `factory` per
    /// switch, attached to every life [`Deployment::boot`] builds.
    pub fn provision_switch_storage<F: FnMut(SwitchId) -> DiskHandle>(&mut self, mut factory: F) {
        for seed in &mut self.nodes {
            if let Identity::Switch { id, .. } = seed.who {
                seed.disk = Some(factory(id));
            }
        }
    }

    /// `true` once `node` has a disk, i.e. it can be restarted.
    pub fn has_storage(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].disk.is_some()
    }

    /// Registers a change made to every controller actor of every life —
    /// a non-default update scheduler, extra firewall entries. It runs
    /// after construction and before WAL replay, so a restarted controller
    /// re-derives the same schedules its peers committed to.
    pub fn customize_controllers(
        &mut self,
        f: impl Fn(&mut ControllerActor) + Send + Sync + 'static,
    ) {
        self.customize.push(Box::new(f));
    }

    /// Boots one life of `node`: constructs its actor from the seed,
    /// applies the registered customizations, and attaches its disk. A
    /// [`Life::Restart`] comes up recovering (and, with `disk_lost`, on a
    /// wiped disk).
    ///
    /// # Panics
    ///
    /// Panics on a restart of a node whose storage was never provisioned.
    pub fn boot(&self, node: NodeId, life: Life) -> NodeRole {
        let seed = &self.nodes[node.0 as usize];
        let recovering = life != Life::First;
        assert!(
            !recovering || seed.disk.is_some(),
            "restarting {node} needs provisioned storage"
        );
        if let (Life::Restart { disk_lost: true }, Some(disk)) = (life, &seed.disk) {
            disk.lock().wipe();
        }
        let shared = Arc::clone(&self.shared);
        let domain = match seed.who {
            Identity::Controller { domain, .. } => domain,
            Identity::Switch { id, .. } => shared.dir.domain_of_switch[&id],
        };
        let view = ControlPlaneView::initial(shared.dir.initial_members[&domain].len() as u32);
        match &seed.who {
            Identity::Controller {
                id,
                identity,
                share,
                active,
                ..
            } => {
                let mut actor = Box::new(ControllerActor::new(
                    shared,
                    domain,
                    *id,
                    identity.clone(),
                    share.clone(),
                    view,
                    *active,
                ));
                for f in &self.customize {
                    f(&mut actor);
                }
                if let Some(disk) = &seed.disk {
                    actor.attach_disk(disk.clone(), recovering);
                }
                NodeRole::Controller {
                    domain,
                    id: *id,
                    actor,
                }
            }
            Identity::Switch { id, key } => {
                let phase = PhaseInfo::of(&view);
                let mut actor = Box::new(SwitchActor::new(shared, *id, domain, key.clone(), phase));
                if let Some(disk) = &seed.disk {
                    actor.attach_disk(disk.clone(), recovering);
                }
                NodeRole::Switch { id: *id, actor }
            }
        }
    }
}

/// Plans a deployment: assigns node ids (controllers domain-asc/id-asc with
/// standbys after members, then switches id-asc), runs the key ceremony and
/// keeps one seed per node.
///
/// `standby_controllers` extra controllers per domain are planned inactive,
/// ready to be admitted by membership commands.
///
/// # Panics
///
/// Panics on structurally impossible configurations (e.g. Cicero with fewer
/// than 4 controllers per domain).
pub fn plan(
    cfg: EngineConfig,
    topo: Topology,
    domain_map: DomainMap,
    standby_controllers: u32,
) -> Deployment {
    let domain_map = if cfg.mode == Mode::Centralized {
        DomainMap::single(&topo)
    } else {
        domain_map
    };
    let controllers_per_domain = match cfg.mode {
        Mode::Centralized => 1,
        _ => cfg.controllers_per_domain,
    };
    if cfg.mode.is_signed() {
        assert!(
            controllers_per_domain >= 4,
            "threshold-signed modes (Cicero, Segway) require at least 4 \
             controllers per domain (paper §3.2)"
        );
    }
    let topo = Arc::new(topo);
    let domains: Vec<DomainId> = domain_map.domains();

    // ---- plan node ids deterministically -----------------------------
    let mut next_node = 0u32;
    let mut dir = Directory::default();
    for &d in &domains {
        let members: Vec<ControllerId> =
            (1..=controllers_per_domain).map(ControllerId).collect();
        for c in (1..=controllers_per_domain + standby_controllers).map(ControllerId) {
            dir.controller_node.insert((d, c), NodeId(next_node));
            dir.node_peer.insert(NodeId(next_node), Peer::Controller(d, c));
            next_node += 1;
        }
        dir.initial_members.insert(d, members);
    }
    for s in topo.switches() {
        dir.switch_node.insert(s.id, NodeId(next_node));
        dir.node_peer.insert(NodeId(next_node), Peer::Switch(s.id));
        next_node += 1;
        let d = domain_map
            .domain_of(s.id)
            .expect("every switch is assigned a domain");
        dir.domain_of_switch.insert(s.id, d);
    }

    // ---- key ceremony ------------------------------------------------
    let switch_ids: Vec<SwitchId> = topo.switches().iter().map(|s| s.id).collect();
    let (keys, mut secrets) = bootstrap_keys(cfg.crypto, &switch_ids, &dir, cfg.seed);

    // ---- locations (controllers sit with their domain) ---------------
    let mut locations: Vec<(u16, u16)> = vec![(0, 0); next_node as usize];
    for (&(d, _), &node) in &dir.controller_node {
        let first_switch = domain_map.switches_of(d).first().copied();
        let l = first_switch
            .and_then(|s| topo.switch(s))
            .map(|s| (s.loc.dc, s.loc.pod))
            .unwrap_or((0, 0));
        locations[node.0 as usize] = l;
    }
    for s in topo.switches() {
        let node = dir.switch_node[&s.id];
        locations[node.0 as usize] = (s.loc.dc, s.loc.pod);
    }

    // ---- one seed per node, in node-id order -------------------------
    let mut nodes = Vec::with_capacity(next_node as usize);
    let mut bootstrap_nodes = BTreeMap::new();
    for &d in &domains {
        let bootstrap = ControlPlaneView::initial(controllers_per_domain).bootstrap();
        bootstrap_nodes.insert(d, dir.controller(d, bootstrap));
        for c in (1..=controllers_per_domain + standby_controllers).map(ControllerId) {
            // Standbys hold no key material until a membership change
            // deals them a share.
            let active = c.0 <= controllers_per_domain;
            let share = secrets.domain_dkg.get(&d).filter(|_| active);
            nodes.push(NodeSeed {
                node: dir.controller(d, c),
                who: Identity::Controller {
                    domain: d,
                    id: c,
                    identity: secrets.controller_sk.remove(&(d, c)),
                    share: share.map(|dkg| dkg.participants[(c.0 - 1) as usize].share.clone()),
                    active,
                },
                disk: None,
            });
        }
    }
    for s in topo.switches() {
        nodes.push(NodeSeed {
            node: dir.switch(s.id),
            who: Identity::Switch {
                id: s.id,
                key: secrets.switch_sk.remove(&s.id),
            },
            disk: None,
        });
    }

    let policy = Arc::new(GlobalDomainPolicy::new(domain_map));
    let shared = Arc::new(Shared {
        cfg,
        topo,
        policy,
        dir,
        keys,
    });
    Deployment {
        shared,
        locations,
        nodes,
        bootstrap_nodes,
        customize: Vec::new(),
    }
}
