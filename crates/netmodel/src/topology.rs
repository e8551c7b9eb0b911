//! Network topologies.
//!
//! * [`Topology::single_pod`] — one Facebook-fabric server pod (paper
//!   Fig. 10): `racks` top-of-rack switches, each connected to all four edge
//!   switches, each ToR serving `hosts_per_rack` hosts.
//! * [`Topology::multi_pod`] — several pods joined by spine switches.
//! * [`Topology::multi_dc`] — several multi-pod data centers joined by an
//!   inter-DC WAN with per-site-pair latencies (see [`crate::telekom`]).

use simnet::time::SimDuration;
use southbound::types::{HostId, SwitchId};
use std::collections::BTreeMap;

/// Physical placement of a switch or host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Location {
    /// Data-center index.
    pub dc: u16,
    /// Pod index within the data center.
    pub pod: u16,
    /// Rack index within the pod (0 for non-ToR tiers).
    pub rack: u16,
}

/// Switch tier in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SwitchRole {
    /// Top-of-rack switch with attached hosts.
    TopOfRack,
    /// Pod edge (fabric) switch.
    Edge,
    /// Spine switch interconnecting pods within a data center.
    Spine,
    /// WAN gateway interconnecting data centers.
    Gateway,
}

/// Static description of one switch.
#[derive(Clone, Copy, Debug)]
pub struct SwitchInfo {
    /// The switch.
    pub id: SwitchId,
    /// Its tier.
    pub role: SwitchRole,
    /// Its placement.
    pub loc: Location,
}

/// Static description of one host.
#[derive(Clone, Copy, Debug)]
pub struct HostInfo {
    /// The host.
    pub id: HostId,
    /// The ToR switch it hangs off.
    pub attached: SwitchId,
    /// Its placement.
    pub loc: Location,
}

/// An undirected switch-to-switch link.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: SwitchId,
    /// Other endpoint.
    pub b: SwitchId,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Capacity in abstract bandwidth units (used by the congestion-freedom
    /// scenario of paper Fig. 3).
    pub capacity: u64,
}

/// Default intra-rack (host–ToR) latency.
pub const LAT_HOST: SimDuration = SimDuration::from_micros(20);
/// Default ToR–edge latency.
pub const LAT_POD: SimDuration = SimDuration::from_micros(50);
/// Default edge–spine latency.
pub const LAT_SPINE: SimDuration = SimDuration::from_micros(200);
/// Default spine–gateway latency.
pub const LAT_GATEWAY: SimDuration = SimDuration::from_micros(300);
/// Default link capacity (abstract units).
pub const DEFAULT_CAPACITY: u64 = 100;

/// An immutable network topology: switches, hosts, links.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    switches: Vec<SwitchInfo>,
    hosts: Vec<HostInfo>,
    links: Vec<Link>,
    adjacency: BTreeMap<SwitchId, Vec<(SwitchId, SimDuration)>>,
    host_index: BTreeMap<HostId, usize>,
    switch_index: BTreeMap<SwitchId, usize>,
}

impl Topology {
    /// An empty topology to build manually (used by the paper's Figs. 1–3
    /// five-switch examples).
    pub fn empty() -> Self {
        Topology::default()
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, id: SwitchId, role: SwitchRole, loc: Location) {
        assert!(
            !self.switch_index.contains_key(&id),
            "duplicate switch {id:?}"
        );
        self.switch_index.insert(id, self.switches.len());
        self.switches.push(SwitchInfo { id, role, loc });
    }

    /// Adds a host attached to `tor`.
    ///
    /// # Panics
    ///
    /// Panics if `tor` is unknown.
    pub fn add_host(&mut self, id: HostId, tor: SwitchId) {
        let loc = self.switch(tor).expect("attach host to known switch").loc;
        assert!(!self.host_index.contains_key(&id), "duplicate host {id:?}");
        self.host_index.insert(id, self.hosts.len());
        self.hosts.push(HostInfo {
            id,
            attached: tor,
            loc,
        });
    }

    /// Adds an undirected link.
    pub fn add_link(&mut self, a: SwitchId, b: SwitchId, latency: SimDuration, capacity: u64) {
        assert!(self.switch_index.contains_key(&a), "unknown switch {a:?}");
        assert!(self.switch_index.contains_key(&b), "unknown switch {b:?}");
        self.links.push(Link {
            a,
            b,
            latency,
            capacity,
        });
        self.adjacency.entry(a).or_default().push((b, latency));
        self.adjacency.entry(b).or_default().push((a, latency));
    }

    /// All switches.
    pub fn switches(&self) -> &[SwitchInfo] {
        &self.switches
    }

    /// All hosts.
    pub fn hosts(&self) -> &[HostInfo] {
        &self.hosts
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a switch.
    pub fn switch(&self, id: SwitchId) -> Option<&SwitchInfo> {
        self.switch_index.get(&id).map(|&i| &self.switches[i])
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> Option<&HostInfo> {
        self.host_index.get(&id).map(|&i| &self.hosts[i])
    }

    /// Neighbours of a switch with link latencies (sorted by id for
    /// determinism).
    pub fn neighbours(&self, id: SwitchId) -> Vec<(SwitchId, SimDuration)> {
        let mut n = self.adjacency.get(&id).cloned().unwrap_or_default();
        n.sort_by_key(|(s, _)| *s);
        n
    }

    /// The latency of the direct link `a`–`b`, if any.
    pub fn link_latency(&self, a: SwitchId, b: SwitchId) -> Option<SimDuration> {
        self.adjacency
            .get(&a)?
            .iter()
            .find(|(s, _)| *s == b)
            .map(|(_, l)| *l)
    }

    /// The capacity of the direct link `a`–`b`, if any.
    pub fn link_capacity(&self, a: SwitchId, b: SwitchId) -> Option<u64> {
        self.links
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .map(|l| l.capacity)
    }

    /// Hosts attached to `tor` (sorted).
    pub fn hosts_on(&self, tor: SwitchId) -> Vec<HostId> {
        let mut hs: Vec<HostId> = self
            .hosts
            .iter()
            .filter(|h| h.attached == tor)
            .map(|h| h.id)
            .collect();
        hs.sort();
        hs
    }

    /// Groups switches by `(dc, pod)` — the granularity Cicero's update
    /// domains use (sorted map for determinism).
    pub fn switches_by_pod(&self) -> BTreeMap<(u16, u16), Vec<SwitchId>> {
        let mut map: BTreeMap<(u16, u16), Vec<SwitchId>> = BTreeMap::new();
        for s in &self.switches {
            map.entry((s.loc.dc, s.loc.pod)).or_default().push(s.id);
        }
        for v in map.values_mut() {
            v.sort();
        }
        map
    }

    // ---- builders ----------------------------------------------------

    /// One Facebook-fabric server pod: `racks` ToR switches each linked to
    /// all `edges` edge switches; `hosts_per_rack` hosts per ToR.
    ///
    /// The paper's pod has 40 racks and 4 edge switches; scaled-down pods
    /// are used by tests.
    pub fn single_pod(racks: u16, edges: u16, hosts_per_rack: u16) -> Self {
        let mut b = TopologyBuilder::new();
        b.pod(0, 0, racks, edges, hosts_per_rack);
        b.into_topology()
    }

    /// `pods` pods joined by `spines` spine switches within one data center.
    pub fn multi_pod(pods: u16, racks: u16, edges: u16, hosts_per_rack: u16, spines: u16) -> Self {
        let mut b = TopologyBuilder::new();
        for p in 0..pods {
            b.pod(0, p, racks, edges, hosts_per_rack);
        }
        b.spines(0, spines);
        b.into_topology()
    }

    /// Several data centers (each `pods` pods + spines + one WAN gateway),
    /// joined according to `wan_latency(dc_a, dc_b) -> Option<SimDuration>`.
    pub fn multi_dc(
        dcs: u16,
        pods: u16,
        racks: u16,
        edges: u16,
        hosts_per_rack: u16,
        spines: u16,
        wan_latency: impl Fn(u16, u16) -> Option<SimDuration>,
    ) -> Self {
        let mut b = TopologyBuilder::new();
        for dc in 0..dcs {
            for p in 0..pods {
                b.pod(dc, p, racks, edges, hosts_per_rack);
            }
            b.spines(dc, spines);
            b.gateway(dc);
        }
        for a in 0..dcs {
            for bb in (a + 1)..dcs {
                if let Some(lat) = wan_latency(a, bb) {
                    b.wan_link(a, bb, lat);
                }
            }
        }
        b.into_topology()
    }
}

/// Incremental topology construction with automatic id assignment.
pub struct TopologyBuilder {
    topo: Topology,
    next_switch: u32,
    next_host: u32,
    edges_of_dc: BTreeMap<u16, Vec<SwitchId>>,
    spines_of_dc: BTreeMap<u16, Vec<SwitchId>>,
    gateway_of_dc: BTreeMap<u16, SwitchId>,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            topo: Topology::empty(),
            next_switch: 0,
            next_host: 0,
            edges_of_dc: BTreeMap::new(),
            spines_of_dc: BTreeMap::new(),
            gateway_of_dc: BTreeMap::new(),
        }
    }

    fn fresh_switch(&mut self, role: SwitchRole, loc: Location) -> SwitchId {
        let id = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.topo.add_switch(id, role, loc);
        id
    }

    fn fresh_host(&mut self, tor: SwitchId) -> HostId {
        let id = HostId(self.next_host);
        self.next_host += 1;
        self.topo.add_host(id, tor);
        id
    }

    /// Adds a pod.
    pub fn pod(&mut self, dc: u16, pod: u16, racks: u16, edges: u16, hosts_per_rack: u16) {
        let mut edge_ids = Vec::new();
        for _ in 0..edges {
            let loc = Location { dc, pod, rack: 0 };
            edge_ids.push(self.fresh_switch(SwitchRole::Edge, loc));
        }
        for rack in 0..racks {
            let loc = Location { dc, pod, rack };
            let tor = self.fresh_switch(SwitchRole::TopOfRack, loc);
            for &e in &edge_ids {
                self.topo.add_link(tor, e, LAT_POD, DEFAULT_CAPACITY);
            }
            for _ in 0..hosts_per_rack {
                let h = self.fresh_host(tor);
                let _ = h;
            }
        }
        self.edges_of_dc.entry(dc).or_default().extend(edge_ids);
    }

    /// Adds spine switches linking every edge switch in `dc`.
    pub fn spines(&mut self, dc: u16, spines: u16) {
        let edges = self.edges_of_dc.get(&dc).cloned().unwrap_or_default();
        let mut spine_ids = Vec::new();
        for _ in 0..spines {
            let loc = Location {
                dc,
                pod: u16::MAX,
                rack: 0,
            };
            let s = self.fresh_switch(SwitchRole::Spine, loc);
            for &e in &edges {
                self.topo.add_link(s, e, LAT_SPINE, DEFAULT_CAPACITY);
            }
            spine_ids.push(s);
        }
        self.spines_of_dc.entry(dc).or_default().extend(spine_ids);
    }

    /// Adds the WAN gateway of `dc`, linked to all its spines.
    pub fn gateway(&mut self, dc: u16) {
        let loc = Location {
            dc,
            pod: u16::MAX,
            rack: 0,
        };
        let g = self.fresh_switch(SwitchRole::Gateway, loc);
        for &s in self.spines_of_dc.get(&dc).cloned().unwrap_or_default().iter() {
            self.topo.add_link(g, s, LAT_GATEWAY, DEFAULT_CAPACITY);
        }
        self.gateway_of_dc.insert(dc, g);
    }

    /// Links the gateways of two data centers.
    ///
    /// # Panics
    ///
    /// Panics if either DC has no gateway yet.
    pub fn wan_link(&mut self, dc_a: u16, dc_b: u16, latency: SimDuration) {
        let a = self.gateway_of_dc[&dc_a];
        let b = self.gateway_of_dc[&dc_b];
        self.topo.add_link(a, b, latency, DEFAULT_CAPACITY);
    }

    /// Finishes construction.
    pub fn into_topology(self) -> Topology {
        self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pod_shape() {
        let t = Topology::single_pod(40, 4, 2);
        assert_eq!(t.switches().len(), 44);
        assert_eq!(t.hosts().len(), 80);
        // Every ToR links to all 4 edges.
        let tors: Vec<_> = t
            .switches()
            .iter()
            .filter(|s| s.role == SwitchRole::TopOfRack)
            .collect();
        assert_eq!(tors.len(), 40);
        for tor in tors {
            assert_eq!(t.neighbours(tor.id).len(), 4);
        }
        // Links: 40 racks * 4 edges.
        assert_eq!(t.links().len(), 160);
    }

    #[test]
    fn multi_pod_connects_edges_via_spines() {
        let t = Topology::multi_pod(2, 4, 2, 1, 2);
        // 2 pods * (2 edges + 4 ToR) + 2 spines
        assert_eq!(t.switches().len(), 14);
        let spines: Vec<_> = t
            .switches()
            .iter()
            .filter(|s| s.role == SwitchRole::Spine)
            .collect();
        assert_eq!(spines.len(), 2);
        for s in spines {
            assert_eq!(t.neighbours(s.id).len(), 4, "spine sees all edges");
        }
    }

    #[test]
    fn multi_dc_wires_gateways() {
        let t = Topology::multi_dc(3, 1, 2, 2, 1, 1, |a, b| {
            (a + 1 == b).then(|| SimDuration::from_millis(5))
        });
        let gws: Vec<_> = t
            .switches()
            .iter()
            .filter(|s| s.role == SwitchRole::Gateway)
            .map(|s| s.id)
            .collect();
        assert_eq!(gws.len(), 3);
        // Chain topology: gw0-gw1, gw1-gw2.
        assert!(t.link_latency(gws[0], gws[1]).is_some());
        assert!(t.link_latency(gws[1], gws[2]).is_some());
        assert!(t.link_latency(gws[0], gws[2]).is_none());
    }

    #[test]
    fn pod_grouping() {
        let t = Topology::multi_pod(3, 2, 2, 1, 1);
        let pods = t.switches_by_pod();
        // 3 pods + the spine pseudo-pod (u16::MAX).
        assert_eq!(pods.len(), 4);
        assert_eq!(pods[&(0, 0)].len(), 4);
    }

    #[test]
    fn host_attachment() {
        let t = Topology::single_pod(2, 2, 3);
        for h in t.hosts() {
            let tor = t.switch(h.attached).unwrap();
            assert_eq!(tor.role, SwitchRole::TopOfRack);
            assert!(t.hosts_on(h.attached).contains(&h.id));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate switch")]
    fn duplicate_switch_panics() {
        let mut t = Topology::empty();
        let loc = Location {
            dc: 0,
            pod: 0,
            rack: 0,
        };
        t.add_switch(SwitchId(1), SwitchRole::TopOfRack, loc);
        t.add_switch(SwitchId(1), SwitchRole::Edge, loc);
    }
}
