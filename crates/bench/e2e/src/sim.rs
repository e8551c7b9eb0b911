//! The two single-threaded workloads: the discrete-event engine on the
//! WAN fabric (`sim_fabric`) and the fuzzer's own throughput
//! (`fuzz_sweep`). Neither runs real crypto or real threads, so a change
//! to `blscrypto` or `cicero-node` predicts no change here.

use crate::calib::{HostSpeed, SIM_MUL_SHARE};
use crate::metrics::Outcome;
use crate::node::process_cpu_ms;
use crate::reduce::{mean, median, percentile, timings, Slice, SLICE_SECONDS};
use crate::trace::Tracer;
use crate::window::Window;
use crate::RunCfg;
use cicero_core::config::{Aggregation, CryptoMode, EngineConfig, Mode};
use cicero_core::engine::Engine;
use cicero_core::obs::{flow_latencies, Obs};
use controller::policy::DomainMap;
use netmodel::telekom;
use netmodel::topology::Topology;
use simcheck::{oracle, run_scenario, run_scenario_traced, RunOutcome, Scenario};
use simnet::time::SimDuration;
use std::time::Instant;
use substrate::rng::{SeedableRng, StdRng};
use workload::gen::FlowSpec;

/// Flows per engine run. The Fig. S set-up uses 5000; a run is sliced so
/// that a measuring window of some ten seconds holds several runs of each
/// mode and the reported latency has a sample.
const SIM_FLOWS: usize = 1000;
/// Scenarios generated per class in one `fuzz_sweep` set-up.
const SETUP_SCENARIOS: u64 = 1024;
/// Scenarios per class replayed after the sweep to check the verdicts
/// repeat.
const REPLAYED: usize = 8;

/// The Fig. 12d / Fig. S fabric: 4 data centers on the Telekom backbone.
fn wan_fabric() -> Topology {
    Topology::multi_dc(4, 4, 6, 4, 2, 2, telekom::wan(4))
}

const SIM_MODES: [Mode; 2] = [
    Mode::Cicero {
        aggregation: Aggregation::Switch,
    },
    Mode::Segway,
];

fn sim_flows(topo: &Topology, n: usize, seed: u64) -> Vec<FlowSpec> {
    let mut spec = workload::spec::web_server_multi_dc();
    spec.flows = n;
    workload::gen::generate(topo, &spec, &mut StdRng::seed_from_u64(seed))
}

fn sim_engine(topo: &Topology, mode: Mode, seed: u64) -> Engine {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = seed;
    Engine::build(cfg, topo.clone(), DomainMap::by_pod(topo), 0)
}

/// Accumulates ops into slices of [`SLICE_SECONDS`] of busy time; at each
/// slice boundary it samples process CPU and times the calibration kernels
/// (on this thread: the workload has no other).
struct Slicer {
    slices: Vec<Slice>,
    open: Slice,
    cpu_mark: f64,
}

impl Slicer {
    fn new() -> Slicer {
        Slicer {
            slices: Vec::new(),
            open: Slice::default(),
            cpu_mark: process_cpu_ms(),
        }
    }

    /// Runs work that belongs to no op (a set-up, input generation) and
    /// keeps its CPU out of the open slice.
    fn outside<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.open.cpu_ms += process_cpu_ms() - self.cpu_mark;
        let r = f();
        self.cpu_mark = process_cpu_ms();
        r
    }

    fn push(&mut self, op_ms: f64, units: f64) {
        self.open.op_ms.push(op_ms);
        self.open.busy_s += op_ms / 1e3;
        self.open.units += units;
    }

    /// Closes the open slice if it has covered enough busy time.
    fn close_if_full(&mut self) {
        if self.open.busy_s >= SLICE_SECONDS {
            self.close();
        }
    }

    fn close(&mut self) {
        self.open.cpu_ms += process_cpu_ms() - self.cpu_mark;
        self.open.host = HostSpeed::measure();
        self.cpu_mark = process_cpu_ms();
        self.slices.push(std::mem::take(&mut self.open));
    }
}

/// Fills in the end-to-end metrics (at reference speed) and their raw
/// whole-window counterparts from the slices of a single-threaded run.
fn report(out: &mut Outcome, mut slicer: Slicer, window: &Window) {
    // The last ops, and a window too short for one full slice.
    if !slicer.open.op_ms.is_empty() {
        slicer.close();
    }
    let slices = &slicer.slices;
    if let Some(t) = timings(slices, |s| s.host.factor(SIM_MUL_SHARE)) {
        out.e2e.insert("op_ms_p50", t.op_ms_p50);
        out.e2e.insert("units_per_s", t.units_per_s);
        out.e2e.insert("cpu_ms_per_unit", t.cpu_ms_per_unit);
    }
    out.e2e.insert("setup_s", window.setup_s());
    let mut all_ms: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.op_ms.iter().copied())
        .collect();
    all_ms.sort_by(f64::total_cmp);
    let l = &mut out.layers;
    if let Some(raw) = timings(slices, |_| 1.0) {
        l.insert("bench.window_op_ms_p50", raw.op_ms_p50);
        l.insert("bench.window_units_per_s", raw.units_per_s);
        l.insert("bench.window_cpu_ms_per_unit", raw.cpu_ms_per_unit);
    }
    l.insert(
        "bench.window_op_ms_p90",
        percentile(&all_ms, 90).unwrap_or(0.0),
    );
    l.insert("bench.window_setup_s", window.raw_setup_s());
    let kernel = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    l.insert("bench.kernel_mul_ms_p50", kernel(|s| s.host.mul_ms));
    l.insert("bench.kernel_general_ms_p50", kernel(|s| s.host.general_ms));
    l.insert("bench.slices", slices.len() as f64);
    l.insert("bench.samples", all_ms.len() as f64);
    l.insert("bench.measured_s", window.elapsed_s());
}

/// `sim_fabric`: rounds of two engine runs (Cicero, then Segway) over
/// [`SIM_FLOWS`] web-server flows, each round on a fresh seeded workload.
/// One op is one round, so the two modes always stay paired.
pub fn run_sim_fabric(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let root = tr.enter("workload");
    let mut out = Outcome::default();
    let n = if cfg.quick { 200 } else { SIM_FLOWS };
    let set_up = |tr: &mut Tracer| {
        let span = tr.enter("setup");
        let topo = tr.span("netmodel.topology", wan_fabric);
        let flows = tr.span("workload.generate", || sim_flows(&topo, n, cfg.seed));
        for mode in SIM_MODES {
            let mut e = tr.span("core.engine_build", || sim_engine(&topo, mode, cfg.seed));
            e.inject_flows(&flows);
        }
        tr.exit(span);
        topo
    };

    let mut window = Window::open(cfg.seconds, cfg.quick, SIM_MUL_SHARE);
    let topo = window.time_setup(|| set_up(tr));
    let mut slicer = Slicer::new();
    let (mut msgs, mut flows_done, mut sim_flow_ms) = (0u64, 0usize, Vec::new());
    let mut round = 0u64;
    while round == 0 || (!cfg.quick && window.is_open()) {
        let seed = cfg.seed.wrapping_add(round);
        let flows = slicer.outside(|| {
            if window.setup_due() {
                window.time_setup(|| set_up(tr));
            }
            tr.span("workload.generate", || sim_flows(&topo, n, seed))
        });
        let span = tr.enter("op");
        let (mut round_ms, mut round_msgs) = (0.0, 0u64);
        for mode in SIM_MODES {
            let mut e = tr.span("core.engine_build", || sim_engine(&topo, mode, seed));
            e.inject_flows(&flows);
            let horizon = flows
                .last()
                .map_or(simnet::time::SimTime::ZERO, |f| f.start)
                + SimDuration::from_secs(30);
            let t = Instant::now();
            tr.span("core.engine_run", || e.run(horizon));
            round_ms += t.elapsed().as_secs_f64() * 1e3;
            round_msgs += e.delivered_messages();
            let resolved = e
                .observations()
                .iter()
                .filter(|o| matches!(o.value, Obs::FlowCompleted { .. } | Obs::FlowDenied { .. }))
                .count();
            if resolved != flows.len() {
                out.faults.push(format!(
                    "{} seed {seed}: {resolved}/{} flows resolved",
                    mode.label(),
                    flows.len()
                ));
            }
            flows_done += resolved;
            sim_flow_ms.extend(
                flow_latencies(e.observations())
                    .iter()
                    .map(|d| d.as_millis_f64()),
            );
        }
        tr.exit(span);
        out.attempted += 1;
        msgs += round_msgs;
        slicer.push(round_ms, round_msgs as f64);
        slicer.close_if_full();
        round += 1;
    }
    out.failed = out.faults.len() as u64;

    report(&mut out, slicer, &window);
    let l = &mut out.layers;
    l.insert(
        "core.sim_msgs_per_flow",
        msgs as f64 / flows_done.max(1) as f64,
    );
    l.insert("core.sim_flow_ms_mean", mean(&sim_flow_ms));
    tr.exit(root);
    out
}

type Generator = fn(u64) -> Scenario;

/// The four seed classes `scripts/verify.sh` sweeps.
const CLASSES: [(&str, Generator); 4] = [
    ("run", Scenario::generate),
    ("secure", Scenario::generate_secure),
    ("recover", Scenario::generate_recovery),
    ("segway", Scenario::generate_segway),
];

/// `fuzz_sweep`: `simcheck::run_scenario` (no shrinking) over seeds
/// `S, S+1, ...` of each class in turn until the window closes.
///
/// An oracle violation is a *finding* — the fuzzer doing its job on a
/// system with known open bugs — and is printed and counted in
/// `simcheck.violations`, not in `failed`. A failed op is a scenario whose
/// verdict does not repeat on replay.
pub fn run_fuzz_sweep(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let root = tr.enter("workload");
    let mut out = Outcome::default();
    let set_up = |tr: &mut Tracer| {
        tr.span("setup", || {
            for (_, generate) in CLASSES {
                for i in 0..if cfg.quick { 16 } else { SETUP_SCENARIOS } {
                    std::hint::black_box(generate(cfg.seed.wrapping_add(i)));
                }
            }
        });
    };

    let cap = if cfg.quick { 64 } else { usize::MAX };
    let mut first: Vec<(Generator, u64, RunOutcome)> = Vec::new();
    let (mut gen_us, mut run_us, mut oracle_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut violations = 0u64;
    let mut window = Window::open(cfg.seconds, cfg.quick, SIM_MUL_SHARE);
    let mut slicer = Slicer::new();
    let mut i = 0u64;
    'sweep: loop {
        let seed = cfg.seed.wrapping_add(i);
        for (class, generate) in CLASSES {
            if out.attempted as usize >= cap || !window.is_open() {
                break 'sweep;
            }
            if window.setup_due() {
                slicer.outside(|| window.time_setup(|| set_up(tr)));
            }
            let span = tr.enter("op");
            let t = Instant::now();
            let scenario = tr.span("simcheck.generate", || generate(seed));
            let generated = t.elapsed().as_secs_f64();
            let (outcome, ran) = if tr.enabled() {
                let (outcome, trace) =
                    tr.span("simcheck.run_scenario", || run_scenario_traced(&scenario));
                let ran = t.elapsed().as_secs_f64();
                // A second, separately timed judgement of the same trace:
                // the oracles' share of a scenario's cost.
                let t = Instant::now();
                let topo = scenario.topology();
                let flows = scenario.flow_specs(&topo);
                std::hint::black_box(tr.span("simcheck.oracle", || {
                    oracle::check_all(&scenario, &topo, &flows, &trace, &outcome.report)
                }));
                oracle_us.push(t.elapsed().as_secs_f64() * 1e6);
                (outcome, ran)
            } else {
                let outcome = run_scenario(&scenario);
                (outcome, t.elapsed().as_secs_f64())
            };
            tr.exit(span);
            out.attempted += 1;
            slicer.push(ran * 1e3, 1.0);
            slicer.close_if_full();
            gen_us.push(generated * 1e6);
            run_us.push((ran - generated) * 1e6);
            if let Some(v) = outcome.violations.first() {
                violations += 1;
                out.findings.push(format!("{class} seed {seed:#x}: {v}"));
            }
            if (i as usize) < REPLAYED {
                first.push((generate, seed, outcome));
            }
        }
        i += 1;
    }
    while window.setup_due() {
        window.time_setup(|| set_up(tr));
    }

    // Same scenario, same verdict: the fuzzer's output contract.
    for (generate, seed, before) in &first {
        let again = run_scenario(&generate(*seed));
        if again.report != before.report || again.violations != before.violations {
            out.failed += 1;
            out.faults
                .push(format!("seed {seed:#x}: verdict changed on replay"));
        }
    }

    report(&mut out, slicer, &window);
    let l = &mut out.layers;
    l.insert("simcheck.generate_us_per_seed", mean(&gen_us));
    l.insert("simcheck.run_us_per_seed", mean(&run_us));
    l.insert("simcheck.oracle_us_per_seed", mean(&oracle_us));
    l.insert("simcheck.violations", violations as f64);
    tr.exit(root);
    out
}
