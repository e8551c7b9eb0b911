//! Workload profiles.
//!
//! The paper runs "Hadoop MapReduce and web server traffic workloads \[37\]"
//! with Poisson arrivals and per-locality size distributions, and quotes
//! these locality fractions from the Facebook study:
//!
//! * Hadoop: 5.8 % of flows leave their (rack-scale) domain; in the
//!   multi-DC topology 3.3 % cross pods and 2.5 % cross data centers.
//! * Web server: 31.6 % leave their domain; 15.7 % cross pods and 15.9 %
//!   cross data centers.
//!
//! Sizes are log-normal approximations of the study's heavy-tailed CDFs,
//! calibrated so the Hadoop mean flow duration lands near the paper's
//! ≈33.6 ms at the default host bandwidth (see DESIGN.md).

use crate::dist::{Exponential, LogNormal};

/// Where a flow's destination sits relative to its source.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalityClass {
    /// Same rack (same ToR).
    IntraRack,
    /// Same pod, different rack.
    IntraPod,
    /// Same data center, different pod.
    IntraDc,
    /// Different data center.
    InterDc,
}

/// Probability mass over the four locality classes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityMix {
    /// P(same rack).
    pub intra_rack: f64,
    /// P(same pod, different rack).
    pub intra_pod: f64,
    /// P(same DC, different pod).
    pub intra_dc: f64,
    /// P(different DC).
    pub inter_dc: f64,
}

impl LocalityMix {
    /// Validates that the mix is a distribution (within rounding).
    ///
    /// # Panics
    ///
    /// Panics if any component is negative or the sum is not ≈ 1.
    pub fn validate(&self) {
        for p in [self.intra_rack, self.intra_pod, self.intra_dc, self.inter_dc] {
            assert!(p >= 0.0, "negative probability");
        }
        let sum = self.intra_rack + self.intra_pod + self.intra_dc + self.inter_dc;
        assert!((sum - 1.0).abs() < 1e-6, "locality mix sums to {sum}");
    }

    /// The mass as an array ordered like [`LocalityClass`] variants.
    pub fn weights(&self) -> [f64; 4] {
        [self.intra_rack, self.intra_pod, self.intra_dc, self.inter_dc]
    }
}

/// A complete workload profile.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Locality mix.
    pub locality: LocalityMix,
    /// Flow-size distribution (bytes).
    pub size_bytes: LogNormal,
    /// Poisson inter-arrival time distribution (seconds).
    pub interarrival_s: Exponential,
    /// Number of flows per run (the paper uses 5000).
    pub flows: usize,
}

/// Default flow count per run.
pub const DEFAULT_FLOWS: usize = 5000;

/// The Hadoop MapReduce profile.
///
/// 94.2 % of traffic is rack-local (99.8 % of Hadoop bytes stay inside the
/// cluster per the study; the paper's 5.8 % multi-domain figure fixes the
/// domain-crossing mass). Sizes: median 100 kB, σ = 1.7 ⇒ mean ≈ 425 kB ⇒
/// ≈ 34 ms at the default 100 Mb/s host link — the paper's ≈33.6 ms.
pub fn hadoop() -> WorkloadSpec {
    WorkloadSpec {
        name: "hadoop",
        locality: LocalityMix {
            intra_rack: 0.942,
            intra_pod: 0.058 - 0.033 - 0.0,
            intra_dc: 0.033,
            inter_dc: 0.0,
        },
        size_bytes: LogNormal::from_median(100_000.0, 1.7),
        interarrival_s: Exponential::new(0.005),
        flows: DEFAULT_FLOWS,
    }
}

/// The Hadoop profile for multi-DC topologies (2.5 % inter-DC mass).
pub fn hadoop_multi_dc() -> WorkloadSpec {
    let mut w = hadoop();
    w.locality = LocalityMix {
        intra_rack: 0.942,
        intra_pod: 0.0,
        intra_dc: 0.033,
        inter_dc: 0.025,
    };
    w
}

/// The web-server profile.
///
/// 68.4 % rack-local; 15.7 % crosses pods and (in multi-DC setups) 15.9 %
/// crosses data centers. Sizes: median 30 kB, σ = 1.5 ⇒ mean ≈ 92 kB.
pub fn web_server() -> WorkloadSpec {
    WorkloadSpec {
        name: "web-server",
        locality: LocalityMix {
            intra_rack: 0.684,
            intra_pod: 0.316 - 0.157,
            intra_dc: 0.157,
            inter_dc: 0.0,
        },
        size_bytes: LogNormal::from_median(30_000.0, 1.5),
        interarrival_s: Exponential::new(0.005),
        flows: DEFAULT_FLOWS,
    }
}

/// The web-server profile for multi-DC topologies.
pub fn web_server_multi_dc() -> WorkloadSpec {
    let mut w = web_server();
    w.locality = LocalityMix {
        intra_rack: 0.684,
        intra_pod: 0.0,
        intra_dc: 0.157,
        inter_dc: 0.159,
    };
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_are_valid_distributions() {
        for spec in [hadoop(), hadoop_multi_dc(), web_server(), web_server_multi_dc()] {
            spec.locality.validate();
            assert!(spec.flows > 0);
        }
    }

    #[test]
    fn hadoop_mean_duration_matches_paper_anchor() {
        // mean size / 100 Mb/s ≈ 33.6 ms
        let mean_bytes = hadoop().size_bytes.mean();
        let secs = mean_bytes * 8.0 / 100_000_000.0;
        assert!(
            (secs * 1000.0 - 33.6).abs() < 5.0,
            "mean duration {:.1} ms should be near 33.6 ms",
            secs * 1000.0
        );
    }

    #[test]
    fn paper_locality_fractions() {
        let h = hadoop();
        let multi_domain = 1.0 - h.locality.intra_rack;
        assert!((multi_domain - 0.058).abs() < 1e-9);
        let w = web_server_multi_dc();
        assert!((w.locality.intra_dc - 0.157).abs() < 1e-9);
        assert!((w.locality.inter_dc - 0.159).abs() < 1e-9);
    }
}
