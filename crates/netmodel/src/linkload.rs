//! Link bandwidth accounting for the congestion-freedom scenario
//! (paper Fig. 3 / Table 1).

use crate::topology::Topology;
use southbound::types::SwitchId;
use std::collections::BTreeMap;

/// Tracks reserved bandwidth per (undirected) link.
#[derive(Clone, Debug, Default)]
pub struct LinkLoad {
    reserved: BTreeMap<(SwitchId, SwitchId), u64>,
}

fn key(a: SwitchId, b: SwitchId) -> (SwitchId, SwitchId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl LinkLoad {
    /// Empty accounting.
    pub fn new() -> Self {
        LinkLoad::default()
    }

    /// Currently reserved bandwidth on `a`–`b`.
    pub fn reserved(&self, a: SwitchId, b: SwitchId) -> u64 {
        self.reserved.get(&key(a, b)).copied().unwrap_or(0)
    }

    /// Reserves `bw` units along `path`.
    pub fn reserve_path(&mut self, path: &[SwitchId], bw: u64) {
        for pair in path.windows(2) {
            *self.reserved.entry(key(pair[0], pair[1])).or_insert(0) += bw;
        }
    }

    /// Releases `bw` units along `path` (saturating).
    pub fn release_path(&mut self, path: &[SwitchId], bw: u64) {
        for pair in path.windows(2) {
            let e = self.reserved.entry(key(pair[0], pair[1])).or_insert(0);
            *e = e.saturating_sub(bw);
        }
    }

    /// Returns every link whose reservation exceeds its capacity in `topo` —
    /// the over-provisioning the paper's Fig. 3 guards against.
    pub fn overloaded_links(&self, topo: &Topology) -> Vec<(SwitchId, SwitchId, u64, u64)> {
        let mut out = Vec::new();
        for (&(a, b), &res) in &self.reserved {
            let cap = topo.link_capacity(a, b).unwrap_or(0);
            if res > cap {
                out.push((a, b, res, cap));
            }
        }
        out.sort();
        out
    }

    /// `true` iff adding `bw` along `path` would overload any link.
    pub fn would_overload(&self, topo: &Topology, path: &[SwitchId], bw: u64) -> bool {
        path.windows(2).any(|pair| {
            let cap = topo.link_capacity(pair[0], pair[1]).unwrap_or(0);
            self.reserved(pair[0], pair[1]) + bw > cap
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Location, SwitchRole};
    use simnet::time::SimDuration;

    fn line() -> Topology {
        let mut t = Topology::empty();
        let loc = Location {
            dc: 0,
            pod: 0,
            rack: 0,
        };
        for i in 0..3 {
            t.add_switch(SwitchId(i), SwitchRole::TopOfRack, loc);
        }
        t.add_link(SwitchId(0), SwitchId(1), SimDuration::from_micros(1), 5);
        t.add_link(SwitchId(1), SwitchId(2), SimDuration::from_micros(1), 5);
        t
    }

    #[test]
    fn reserve_release_round_trip() {
        let t = line();
        let mut load = LinkLoad::new();
        let path = [SwitchId(0), SwitchId(1), SwitchId(2)];
        load.reserve_path(&path, 3);
        assert_eq!(load.reserved(SwitchId(0), SwitchId(1)), 3);
        assert_eq!(load.reserved(SwitchId(1), SwitchId(0)), 3, "undirected");
        assert!(!load.would_overload(&t, &path, 2));
        assert!(load.would_overload(&t, &path, 3));
        load.release_path(&path, 3);
        assert_eq!(load.reserved(SwitchId(0), SwitchId(1)), 0);
    }

    #[test]
    fn overload_detection() {
        let t = line();
        let mut load = LinkLoad::new();
        let path = [SwitchId(0), SwitchId(1)];
        load.reserve_path(&path, 5);
        assert!(load.overloaded_links(&t).is_empty());
        load.reserve_path(&path, 5);
        let over = load.overloaded_links(&t);
        assert_eq!(over, vec![(SwitchId(0), SwitchId(1), 10, 5)]);
    }
}
