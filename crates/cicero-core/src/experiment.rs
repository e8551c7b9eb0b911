//! Experiment drivers: one function per figure of the paper's evaluation
//! (§6). The `bench` crate's `figures` binary and the integration tests are
//! thin wrappers over these.

use crate::config::{tx_time, Aggregation, CryptoMode, EngineConfig, Mode};
use crate::engine::Engine;
use crate::msg::Net;
use crate::obs::{events_per_domain, flow_latencies, Cdf, Obs};
use controller::policy::DomainMap;
use netmodel::telekom;
use netmodel::topology::Topology;
use substrate::rng::StdRng;
use substrate::rng::SeedableRng;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{DomainId, FlowId};
use std::collections::BTreeMap;
use workload::spec::WorkloadSpec;

/// The four protocol modes compared throughout the evaluation.
pub const ALL_MODES: [Mode; 4] = {
    let [centralized, crash_tolerant, cicero, cicero_agg, _segway] = Mode::ALL;
    [centralized, crash_tolerant, cicero, cicero_agg]
};

/// Result of one flow-completion run.
#[derive(Clone, Debug)]
pub struct FlowRun {
    /// Series label (paper legend): the mode's, unless the figure names
    /// its series itself.
    pub label: &'static str,
    /// Flow-completion CDF.
    pub cdf: Cdf,
    /// Events processed per domain.
    pub events_per_domain: BTreeMap<DomainId, usize>,
    /// Distinct events processed network-wide.
    pub unique_events: usize,
    /// Mean switch CPU utilization series (per CPU bucket).
    pub mean_switch_cpu: Vec<f64>,
    /// Control-plane messages delivered over the whole run (including
    /// retransmissions).
    pub messages: u64,
}

/// Runs one workload on the given topology/domain split under `cfg` (mode,
/// seed, rule reuse, cross-domain handshake and cost model are all the
/// caller's; `cfg.seed` also seeds the workload generator).
pub fn run_flow_completion(
    cfg: EngineConfig,
    topo: &Topology,
    domain_map: DomainMap,
    spec: &WorkloadSpec,
) -> FlowRun {
    let label = cfg.mode.label();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let flows = workload::gen::generate(topo, spec, &mut rng);
    let mut engine = Engine::build(cfg, topo.clone(), domain_map, 0);
    engine.inject_flows(&flows);
    let horizon = flows
        .last()
        .map(|f| f.start + SimDuration::from_secs(30))
        .unwrap_or(SimTime::ZERO + SimDuration::from_secs(60));
    engine.run(horizon);
    let obs = engine.observations();
    FlowRun {
        label,
        cdf: Cdf::from_latencies(&flow_latencies(obs)),
        events_per_domain: events_per_domain(obs),
        unique_events: crate::obs::unique_events(obs),
        mean_switch_cpu: engine.mean_switch_cpu(),
        messages: engine.delivered_messages(),
    }
}

/// Fig. 11a/11b/11c: single-pod (40 racks), single domain, 4 controllers.
pub fn fig11_flow_completion(spec: &WorkloadSpec, rule_reuse: bool, seed: u64) -> Vec<FlowRun> {
    let topo = Topology::single_pod(40, 4, 4);
    ALL_MODES
        .iter()
        .map(|&mode| {
            let cfg = EngineConfig {
                rule_reuse,
                seed,
                ..EngineConfig::for_mode(mode)
            };
            run_flow_completion(cfg, &topo, DomainMap::single(&topo), spec)
        })
        .collect()
}

/// Fig. 12a: average time to apply a single switch update as a function of
/// the control-plane size (1 = centralized).
pub fn fig12a_update_time(sizes: &[u32], reps: u32, seed: u64) -> Vec<(Mode, u32, f64)> {
    let mut out = Vec::new();
    for &n in sizes {
        let modes: &[Mode] = if n == 1 {
            &[Mode::Centralized]
        } else {
            &[
                Mode::CrashTolerant,
                Mode::Cicero {
                    aggregation: Aggregation::Switch,
                },
                Mode::Cicero {
                    aggregation: Aggregation::Controller,
                },
            ]
        };
        for &mode in modes {
            let avg_ms = single_update_time(mode, n, reps, seed);
            out.push((mode, n, avg_ms));
        }
    }
    out
}

/// Measures the mean latency from event injection to update application for
/// a one-switch route (same-ToR hosts ⇒ a single update, isolating protocol
/// cost from reverse-path sequencing).
pub fn single_update_time(mode: Mode, controllers: u32, reps: u32, seed: u64) -> f64 {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.controllers_per_domain = controllers;
    cfg.seed = seed;
    let topo = Topology::single_pod(2, 2, 4);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);

    let mut total_ms = 0.0;
    let mut count = 0u32;
    let tors: Vec<_> = topo
        .switches()
        .iter()
        .filter(|s| s.role == netmodel::topology::SwitchRole::TopOfRack)
        .map(|s| s.id)
        .collect();
    for rep in 0..reps {
        let tor = tors[(rep as usize) % tors.len()];
        let hosts = topo.hosts_on(tor);
        // Distinct same-rack pair per repetition: one-switch route.
        let (src, dst) = (
            hosts[(2 * rep as usize) % hosts.len()],
            hosts[(2 * rep as usize + 1) % hosts.len()],
        );
        if src == dst {
            continue;
        }
        let start = engine.now() + SimDuration::from_millis(50);
        let node = engine.switch_node(tor);
        let applied_before = count_applied(engine.observations());
        engine.inject_raw(
            start,
            simnet::sim::ENVIRONMENT,
            node,
            Net::FlowArrival {
                flow: FlowId(1000 + rep as u64),
                src,
                dst,
                bytes: 1000,
                transit: SimDuration::from_micros(20),
                start,
            },
        );
        engine.run(start + SimDuration::from_secs(5));
        let obs = engine.observations();
        if count_applied(obs) > applied_before {
            if let Some(o) = obs
                .iter()
                .rev()
                .find(|o| matches!(o.value, Obs::UpdateApplied { .. }))
            {
                total_ms += o.at.since(start).as_millis_f64();
                count += 1;
            }
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        total_ms / count as f64
    }
}

fn count_applied(obs: &[simnet::sim::Observation<Obs>]) -> usize {
    obs.iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count()
}

/// Fig. 12b: percentage of total events handled by each control plane when
/// one pod is split into `k` rack-range domains.
pub fn fig12b_event_locality(spec: &WorkloadSpec, k: u16, seed: u64) -> Vec<f64> {
    let topo = Topology::single_pod(40, 4, 4);
    let dm = DomainMap::split_racks(&topo, k);
    let cfg = EngineConfig {
        seed,
        ..EngineConfig::for_mode(Mode::Cicero {
            aggregation: Aggregation::Switch,
        })
    };
    let run = run_flow_completion(cfg, &topo, dm, spec);
    let total = run.unique_events;
    if total == 0 {
        return vec![0.0; k as usize];
    }
    // Share of all (distinct) events each control plane had to process; the
    // shares exceed 100/k exactly by the multi-domain event tax.
    (0..k)
        .map(|d| {
            100.0 * run.events_per_domain.get(&DomainId(d)).copied().unwrap_or(0) as f64
                / total as f64
        })
        .collect()
}

/// Fig. 12c topology: two server pods plus an interconnect, either as one
/// domain with `12` controllers or three domains with 4 each.
pub fn fig12c_runs(spec: &WorkloadSpec, seed: u64) -> Vec<(String, Cdf)> {
    let topo = Topology::multi_pod(2, 8, 4, 4, 4);
    let mut out = Vec::new();
    for (label, dm, per_domain, agg) in [
        (
            "Cicero (single domain, 12 ctrl)",
            DomainMap::single(&topo),
            12,
            Aggregation::Switch,
        ),
        (
            "Cicero Agg (single domain, 12 ctrl)",
            DomainMap::single(&topo),
            12,
            Aggregation::Controller,
        ),
        (
            "Cicero MD (3 domains x 4 ctrl)",
            DomainMap::by_pod(&topo),
            4,
            Aggregation::Switch,
        ),
        (
            "Cicero Agg MD (3 domains x 4 ctrl)",
            DomainMap::by_pod(&topo),
            4,
            Aggregation::Controller,
        ),
    ] {
        let cfg = EngineConfig {
            controllers_per_domain: per_domain,
            seed,
            ..EngineConfig::for_mode(Mode::Cicero { aggregation: agg })
        };
        out.push((label.to_string(), run_flow_completion(cfg, &topo, dm, spec).cdf));
    }
    out
}

/// Fig. 12d topology: several Deutsche-Telekom-sited data centers, four
/// pods each, one domain per pod — centralized vs Cicero multi-domain.
///
/// Two Cicero MD series are produced: "Cicero MD unordered" reproduces the
/// paper's measurement (domains install their path segments independently,
/// which is what Fig. 12d actually benchmarked), and "Cicero MD" runs the
/// default consistency-preserving protocol, whose cross-domain handshake
/// serializes boundary-crossing installs destination-first (DESIGN.md §3)
/// and therefore pays an ordering tax on multi-domain flows.
pub fn fig12d_runs(spec: &WorkloadSpec, dcs: u16, seed: u64) -> Vec<(String, Cdf)> {
    let topo = Topology::multi_dc(dcs, 4, 6, 4, 2, 2, telekom::wan(dcs));
    let mut out = Vec::new();
    for (label, mode, handshake) in [
        ("Centralized", Mode::Centralized, true),
        (
            "Cicero MD",
            Mode::Cicero {
                aggregation: Aggregation::Switch,
            },
            true,
        ),
        (
            "Cicero MD unordered",
            Mode::Cicero {
                aggregation: Aggregation::Switch,
            },
            false,
        ),
        (
            "Cicero Agg MD",
            Mode::Cicero {
                aggregation: Aggregation::Controller,
            },
            true,
        ),
    ] {
        let dm = DomainMap::by_pod(&topo);
        let cfg = EngineConfig {
            seed,
            cross_domain_handshake: handshake,
            ..EngineConfig::for_mode(mode)
        };
        out.push((label.to_string(), run_flow_completion(cfg, &topo, dm, spec).cdf));
    }
    out
}

/// The decentralized-execution comparison (ez-Segway-style mode vs the
/// paper's protocol), on the Fig. 12d WAN fabric at *equal consistency*:
/// both series order boundary-crossing installs destination-first —
/// Cicero MD via the controller-to-controller handshake, Segway via
/// switch-to-switch tagged readies. One controller round per update in
/// Segway (all segments pushed at once, gated locally) versus a
/// round-trip per dependency edge through the control plane, so Segway
/// completes flows faster; the message counts expose each mode's total
/// control-plane cost alongside ([`FlowRun::messages`]).
pub fn segway_vs_cicero_md(spec: &WorkloadSpec, dcs: u16, seed: u64) -> Vec<FlowRun> {
    let topo = Topology::multi_dc(dcs, 4, 6, 4, 2, 2, telekom::wan(dcs));
    let series = [
        (
            "Cicero MD",
            Mode::Cicero {
                aggregation: Aggregation::Switch,
            },
        ),
        ("Segway MD", Mode::Segway),
    ];
    series
        .into_iter()
        .map(|(label, mode)| {
            let cfg = EngineConfig {
                rule_reuse: true,
                seed,
                crypto: CryptoMode::Modeled,
                ..EngineConfig::for_mode(mode)
            };
            let run = run_flow_completion(cfg, &topo, DomainMap::by_pod(&topo), spec);
            FlowRun { label, ..run }
        })
        .collect()
}

/// The mean flow *setup* latency of a mode under the paper's protocol: first-flow
/// completion minus the pure data-plane time. Used by the calibration test
/// against the paper's §6.2 anchors (≈2.9 / 4.3 / 8.3 / 11.6 ms), which were
/// measured on a Cicero that signs an update once its dependencies are
/// acknowledged ([`EngineConfig::release_by_tag`] off); what this code's
/// protocol takes on the calibrated model is [`flow_setup_latency_with`].
pub fn flow_setup_latency_ms(mode: Mode, seed: u64) -> f64 {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.release_by_tag = false;
    flow_setup_latency_with(cfg, seed)
}

/// [`flow_setup_latency_ms`] under `cfg` (its mode, protocol and costs).
pub fn flow_setup_latency_with(mut cfg: EngineConfig, seed: u64) -> f64 {
    cfg.seed = seed;
    let topo = Topology::single_pod(4, 4, 4);
    let dm = DomainMap::single(&topo);
    let mut engine = Engine::build(cfg.clone(), topo.clone(), dm, 0);
    let hosts = topo.hosts();
    let mut total = 0.0;
    let mut n = 0;
    for i in 0..20usize {
        // Cross-rack pair: 3-switch route (ToR -> edge -> ToR).
        let src = hosts[i % hosts.len()].id;
        let dst = hosts
            .iter()
            .map(|h| h.id)
            .find(|&h| {
                let a = topo.host(src).unwrap().attached;
                let b = topo.host(h).unwrap().attached;
                h != src && a != b
            })
            .unwrap_or(hosts[(i + 1) % hosts.len()].id);
        let start = engine.now() + SimDuration::from_millis(20);
        let r = netmodel::routing::route(&topo, src, dst).expect("connected");
        let node = engine.switch_node(r.path[0]);
        let bytes = 100u64;
        engine.inject_raw(
            start,
            simnet::sim::ENVIRONMENT,
            node,
            Net::FlowArrival {
                flow: FlowId(i as u64 + 1),
                src,
                dst,
                bytes,
                transit: r.latency,
                start,
            },
        );
        engine.run(start + SimDuration::from_secs(5));
        // setup = completion latency - data-plane part.
        let data_plane = r.latency + tx_time(bytes);
        if let Some(o) = engine
            .observations()
            .iter()
            .rev()
            .find(|o| matches!(o.value, Obs::FlowCompleted { flow, .. } if flow == FlowId(i as u64 + 1)))
        {
            if let Obs::FlowCompleted { start: s, .. } = o.value {
                let lat = o.at.since(s);
                total += lat.as_millis_f64() - data_plane.as_millis_f64();
                n += 1;
            }
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        total / n as f64
    }
}
