//! Experiment drivers: one function per figure of the paper's evaluation
//! (§6). The `bench` crate's `figures` binary and the integration tests are
//! thin wrappers over these.

use crate::config::{tx_time, Aggregation, CostModel, CryptoMode, EngineConfig, Mode};
use crate::engine::Engine;
use crate::obs::{events_per_domain, flow_latencies, Cdf, Obs};
use controller::policy::DomainMap;
use netmodel::routing::Route;
use netmodel::telekom;
use netmodel::topology::Topology;
use substrate::rng::StdRng;
use substrate::rng::SeedableRng;
use simnet::sim::Observation;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{DomainId, FlowId, HostId};
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

/// Fig. 11: single-pod (40 racks), single domain, 4 controllers, every
/// mode under `costs` (Fig. 11d prints its switch CPU under the calibrated
/// and the measured model).
pub fn fig11_flow_completion(
    spec: &WorkloadSpec,
    rule_reuse: bool,
    costs: CostModel,
    seed: u64,
) -> Vec<FlowRun> {
    let topo = Topology::single_pod(40, 4, 4);
    ALL_MODES
        .iter()
        .map(|&mode| {
            let cfg = EngineConfig {
                rule_reuse,
                costs,
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
    let tors: Vec<_> = topo
        .switches()
        .iter()
        .filter(|s| s.role == netmodel::topology::SwitchRole::TopOfRack)
        .map(|s| s.id)
        .collect();
    mean((0..reps).filter_map(|rep| {
        let hosts = topo.hosts_on(tors[(rep as usize) % tors.len()]);
        // Distinct same-rack pair per repetition: one-switch route.
        let (src, dst) = (
            hosts[(2 * rep as usize) % hosts.len()],
            hosts[(2 * rep as usize + 1) % hosts.len()],
        );
        if src == dst {
            return None;
        }
        let start = engine.now() + SimDuration::from_millis(50);
        let flow = FlowId(1000 + rep as u64);
        let (_, obs) = run_one_flow(&mut engine, flow, src, dst, 1000, start);
        let applied = obs.iter().rev().find(|o| matches!(o.value, Obs::UpdateApplied { .. }));
        applied.map(|o| o.at.since(start).as_millis_f64())
    }))
}

/// The step every single-flow measurement repeats: injects one flow of
/// `bytes` from `src` to `dst` at `start` ([`Engine::inject_flow`]), runs
/// for up to 5 s of simulated time, and returns the flow's route and the
/// observations that run added.
///
/// # Panics
///
/// Panics if the flow has no route.
pub fn run_one_flow(
    engine: &mut Engine,
    flow: FlowId,
    src: HostId,
    dst: HostId,
    bytes: u64,
    start: SimTime,
) -> (Route, &[Observation<Obs>]) {
    let seen = engine.observations().len();
    let r = engine.inject_flow(flow, src, dst, bytes, start).expect("routable");
    engine.run(start + SimDuration::from_secs(5));
    (r, &engine.observations()[seen..])
}

/// The mean of `samples`, NaN when there are none.
fn mean(samples: impl Iterator<Item = f64>) -> f64 {
    let (total, n) = samples.fold((0.0, 0u32), |(t, n), x| (t + x, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        total / n as f64
    }
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
    let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
    let hosts = topo.hosts();
    mean((0..20usize).filter_map(|i| {
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
        let (flow, bytes) = (FlowId(i as u64 + 1), 100);
        let (r, obs) = run_one_flow(&mut engine, flow, src, dst, bytes, start);
        // setup = completion latency - data-plane part.
        let data_plane = r.latency + tx_time(bytes);
        obs.iter().rev().find_map(|o| match o.value {
            Obs::FlowCompleted { flow: f, start: s, .. } if f == flow => {
                Some(o.at.since(s).as_millis_f64() - data_plane.as_millis_f64())
            }
            _ => None,
        })
    }))
}
