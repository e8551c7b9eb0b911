//! The node workloads: `cicero-node` on real threads with real crypto,
//! driven in a closed loop by one generator thread (this one).
//!
//! A batch of `w` flows is injected, then the deployment runs to
//! convergence, then the next batch. `run_to_convergence` polls every
//! 25 ms and wants two clean polls, so nothing here is timed around it:
//! latencies and busy time come from the timestamps in the returned `Obs`
//! log, all on the deployment's own clock. In-process links add no delay,
//! so every latency is processor and scheduling time only.

use crate::calib::{HostSpeed, NODE_MUL_SHARE};
use crate::flows::{matcher, unique_pair_flows, Pairs};
use crate::metrics::Outcome;
use crate::reduce::{
    busy_seconds, flow_stages, mean, median, percentile, supported_tail, timings, Slice,
};
use crate::trace::{SpanId, Tracer};
use crate::window::Window;
use crate::RunCfg;
use cicero_core::audit::audit_flow;
use cicero_core::config::{CryptoMode, EngineConfig, Mode};
use cicero_core::deploy;
use cicero_core::obs::{retransmit_stats, Obs};
use cicero_node::exec::ThreadedDeployment;
use controller::policy::DomainMap;
use netmodel::topology::Topology;
use simnet::time::{SimDuration, SimTime};
use southbound::types::{FlowMatch, UpdateKind};
use std::collections::BTreeMap;
use std::time::Instant;

/// Warm-up flows (pairs disjoint from the measured ones).
const WARMUP_FLOWS: usize = 8;
/// Wall budget for one batch to converge before the run is failed.
const CONVERGE_BUDGET: SimDuration = SimDuration::from_secs(30);
/// The stage names, in the order of [`crate::reduce::FlowStages::stage_ms`].
const STAGES: [&str; 4] = [
    "core.intake_order",
    "core.first_apply",
    "core.ordered_chain",
    "core.dataplane_tail",
];

/// One node workload: a mode, a class of host pairs, a closed-loop width.
#[derive(Clone, Copy, Debug)]
pub struct NodeWorkload {
    /// Protocol mode.
    pub mode: Mode,
    /// Where flows go.
    pub pairs: Pairs,
    /// Flows in flight at once.
    pub w: usize,
}

/// The smallest fabric that still crosses domains: 2 pods x 2 racks x 8
/// hosts under 2 spines; by pod that is 3 domains x 4 controllers + 10
/// switches = 22 node threads.
pub fn fabric() -> Topology {
    Topology::multi_pod(2, 2, 2, 8, 2)
}

/// The engine configuration of every node workload: the mode's defaults
/// with real crypto and the run's seed.
pub fn engine_config(mode: Mode, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = CryptoMode::Real;
    cfg.seed = seed;
    cfg
}

/// Process CPU time (user + system) in ms, from `/proc/self/stat`. The
/// kernel reports clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 10.0
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Batch {
    span: SpanId,
    returned_ms: f64,
    /// Process CPU over the batch, ms.
    cpu_ms: f64,
    /// The calibration kernels' times right after the batch.
    host: HostSpeed,
}

/// A launched deployment and what the run needs to know about it.
struct Stood {
    d: ThreadedDeployment,
    flows: Vec<workload::gen::FlowSpec>,
    /// The deployment's clock epoch, to within microseconds.
    epoch: Instant,
    threads: usize,
    launch_ms: f64,
}

/// One full set-up: inputs, key ceremony and planning, in-memory disks,
/// one thread per node.
fn stand_up(wl: &NodeWorkload, seed: u64, tr: &mut Tracer) -> Stood {
    let span = tr.enter("setup");
    let topo = fabric();
    let flows = unique_pair_flows(&topo, wl.pairs, seed);
    let domains = DomainMap::by_pod(&topo);
    let ecfg = engine_config(wl.mode, seed);
    let mut dep = tr.span("core.plan", || deploy::plan(ecfg, topo, domains, 0));
    dep.provision_storage(|_, _| substrate::storage::mem_disk());
    let threads = dep.nodes.len();
    // The deployment starts its clock first thing in `launch`.
    let epoch = Instant::now();
    let d = tr.span("node.launch", || ThreadedDeployment::launch(dep));
    let launch_ms = ms_since(epoch);
    tr.exit(span);
    Stood {
        d,
        flows,
        epoch,
        threads,
        launch_ms,
    }
}

/// Executor timings collected over every set-up of a run.
#[derive(Default)]
struct ExecutorMs {
    launch: Vec<f64>,
    shutdown: Vec<f64>,
}

/// One of the spaced set-ups: stood up, timed, torn down again.
fn spare_setup(
    window: &mut Window,
    wl: &NodeWorkload,
    seed: u64,
    tr: &mut Tracer,
    exec: &mut ExecutorMs,
) {
    let spare = window.time_setup(|| stand_up(wl, seed, tr));
    exec.launch.push(spare.launch_ms);
    let t = Instant::now();
    drop(tr.span("node.shutdown", || spare.d.shutdown()));
    exec.shutdown.push(ms_since(t));
}

/// Runs one node workload and reduces its `Obs` log.
pub fn run(wl: &NodeWorkload, cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let root = tr.enter("workload");
    let mut out = Outcome::default();
    let mut window = Window::open(cfg.seconds, cfg.quick, NODE_MUL_SHARE);
    let mut exec = ExecutorMs::default();

    // The first set-up is the deployment that gets measured; the others
    // are spaced across the window, between batches, and torn down again.
    let Stood {
        mut d,
        flows,
        epoch,
        threads,
        launch_ms: first_launch,
    } = window.time_setup(|| stand_up(wl, cfg.seed, tr));
    exec.launch.push(first_launch);

    // ---- warm-up -------------------------------------------------------
    let warm_n = if cfg.quick { 2 } else { WARMUP_FLOWS };
    let (warm, measured) = flows.split_at(warm_n);
    let span = tr.enter("warmup");
    let mut converged = true;
    for batch in warm.chunks(wl.w) {
        d.inject_flows(batch);
        converged &= d.run_to_convergence(CONVERGE_BUDGET).completed;
    }
    tr.exit(span);
    if !converged {
        out.faults.push("warm-up did not converge".to_string());
    }

    // ---- measured closed loop -----------------------------------------
    let cap = if cfg.quick { 8 } else { measured.len() };
    let mut batches: Vec<Batch> = Vec::new();
    let (mut next, mut inject_us, mut dropped) = (0usize, 0.0f64, 0u64);
    let (mut cpu_ms, mut loop_s) = (0.0f64, 0.0f64);
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    while converged && next < cap && window.is_open() {
        if window.setup_due() {
            spare_setup(&mut window, wl, cfg.seed, tr, &mut exec);
        }
        let batch = &measured[next..(next + wl.w).min(cap)];
        let span = tr.enter("batch");
        let cpu0 = process_cpu_ms();
        let t = Instant::now();
        tr.span("node.inject_flows", || d.inject_flows(batch));
        inject_us += t.elapsed().as_secs_f64() * 1e6;
        let report = tr.span("node.run_to_convergence", || {
            d.run_to_convergence(CONVERGE_BUDGET)
        });
        loop_s += t.elapsed().as_secs_f64();
        let batch_cpu = process_cpu_ms() - cpu0;
        cpu_ms += batch_cpu;
        tr.exit(span);
        // The deployment is quiescent now: every CPU is free for the kernels.
        let host = HostSpeed::measure_on(cpus);
        converged = report.completed;
        dropped = report.dropped_messages;
        batches.push(Batch {
            span,
            returned_ms: report.wall_ms,
            cpu_ms: batch_cpu,
            host,
        });
        next += batch.len();
    }
    while window.setup_due() {
        spare_setup(&mut window, wl, cfg.seed, tr, &mut exec);
    }
    if !converged && out.faults.is_empty() {
        out.faults
            .push(format!("batch {} did not converge", batches.len()));
    }

    let shared = d.shared().clone();
    let t = Instant::now();
    let obs = tr.span("node.shutdown", || d.shutdown());
    exec.shutdown.push(ms_since(t));

    // ---- reduce --------------------------------------------------------
    let span = tr.enter("reduce");
    let attempted = &measured[..next];
    let stages = flow_stages(&obs, attempted);
    let mut lat: Vec<f64> = stages.iter().map(|s| s.flow_ms()).collect();
    lat.sort_by(f64::total_cmp);
    let updates: u64 = stages.iter().map(|s| u64::from(s.updates)).sum();
    let flows_n = stages.len().max(1) as f64;
    let units = updates.max(1) as f64;
    // One slice per batch: its flows, its busy time, its CPU, and the
    // host's speed right after it.
    let slices: Vec<Slice> = batches
        .iter()
        .zip(stages.chunks(wl.w))
        .map(|(b, flows)| Slice {
            op_ms: flows.iter().map(|s| s.flow_ms()).collect(),
            busy_s: busy_seconds(flows, wl.w),
            units: flows.iter().map(|s| f64::from(s.updates)).sum(),
            cpu_ms: b.cpu_ms,
            host: b.host,
        })
        .collect();

    // ---- correctness gate ---------------------------------------------
    let quorum = (shared.cfg.controllers_per_domain - 1) / 3 + 1;
    let (mut rejected, mut exhausted, mut weak) = (0u64, 0u64, 0u64);
    for o in &obs {
        match o.value {
            Obs::UpdateRejected { .. } => rejected += 1,
            Obs::UpdateRetryExhausted { .. } | Obs::EventRetryExhausted { .. } => exhausted += 1,
            Obs::UpdateApplied { signers, .. } if wl.mode.is_signed() && signers < quorum => {
                weak += 1;
            }
            _ => {}
        }
    }
    for (n, what) in [
        (rejected, "updates rejected"),
        (exhausted, "retry budgets exhausted"),
        (weak, "updates applied below the signing quorum"),
    ] {
        if n > 0 {
            out.faults.push(format!("{n} {what}"));
        }
    }
    let completed: BTreeMap<_, _> = stages.iter().map(|s| (s.flow, s)).collect();
    out.attempted = attempted.len() as u64;
    for f in attempted {
        let ingress = shared.topo.host(f.src).map(|h| h.attached);
        let clean = completed.contains_key(&f.id)
            && ingress.is_some_and(|s| audit_flow(&obs, s, matcher(f), false).is_empty());
        if !clean {
            out.failed += 1;
        }
    }

    // ---- end-to-end, at reference speed --------------------------------
    if let Some(t) = timings(&slices, |s| s.host.factor(NODE_MUL_SHARE)) {
        out.e2e.insert("op_ms_p50", t.op_ms_p50);
        out.e2e.insert("units_per_s", t.units_per_s);
        out.e2e.insert("cpu_ms_per_unit", t.cpu_ms_per_unit);
    }
    out.e2e.insert("setup_s", window.setup_s());

    // ---- per layer -----------------------------------------------------
    let l = &mut out.layers;
    let stage_means: Vec<f64> = (0..STAGES.len())
        .map(|i| mean(&stages.iter().map(|s| s.stage_ms()[i]).collect::<Vec<_>>()))
        .collect();
    l.insert("core.flow_ms_mean", mean(&lat));
    l.insert("core.intake_order_ms_mean", stage_means[0]);
    l.insert("core.first_apply_ms_mean", stage_means[1]);
    l.insert("core.ordered_chain_ms_mean", stage_means[2]);
    l.insert("core.dataplane_tail_ms_mean", stage_means[3]);
    if let Some(p) = supported_tail(lat.len()) {
        l.insert("core.flow_tail_pct", f64::from(p));
        l.insert("core.flow_ms_tail", percentile(&lat, p).unwrap_or(0.0));
    }

    // Inject -> each applied update, for the updates of measured flows.
    let starts: BTreeMap<FlowMatch, SimTime> = attempted
        .iter()
        .filter_map(|f| completed.get(&f.id).map(|s| (matcher(f), s.start)))
        .collect();
    let measure_start = stages
        .iter()
        .map(|s| s.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    // The measured part of the log: everything from the first measured
    // injection on (the log is in append order).
    let first = obs
        .iter()
        .position(|o| o.at >= measure_start)
        .unwrap_or(obs.len());
    let measured_obs = &obs[first..];
    let mut upd: Vec<f64> = Vec::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for o in measured_obs {
        let key = match o.value {
            Obs::UpdateApplied {
                kind: UpdateKind::Install(rule),
                ..
            } => {
                if let Some(&start) = starts.get(&rule.matcher) {
                    upd.push(o.at.since(start).as_millis_f64());
                }
                continue;
            }
            Obs::SegmentReported { .. } => "core.segment_reports_per_flow",
            Obs::BoundaryReleased { .. } => "core.boundary_releases_per_flow",
            Obs::ReadySent { .. } => "core.readies_per_flow",
            Obs::SnapshotTaken { .. } => "core.snapshots_per_flow",
            _ => continue,
        };
        *counts.entry(key).or_insert(0.0) += 1.0 / flows_n;
    }
    upd.sort_by(f64::total_cmp);
    l.insert("core.update_ms_p50", percentile(&upd, 50).unwrap_or(0.0));
    l.insert("core.update_ms_p95", percentile(&upd, 95).unwrap_or(0.0));
    l.insert("core.updates_per_flow", updates as f64 / flows_n);
    let events: u64 = stages.iter().map(|s| u64::from(s.events)).sum();
    l.insert("core.events_per_flow", events as f64 / flows_n);
    l.extend(counts);

    let rtx = retransmit_stats(measured_obs);
    l.insert("core.rtx_per_update", rtx.total_recoveries() as f64 / units);
    l.insert("core.rtx_update", rtx.update_retransmits as f64);
    l.insert("core.rtx_ack", rtx.ack_retransmits as f64);
    l.insert("core.rtx_event", rtx.event_retransmits as f64);
    l.insert("core.rtx_segment", rtx.segment_retransmits as f64);
    l.insert("core.rtx_forward", rtx.forward_retransmits as f64);
    l.insert("core.rtx_ready", rtx.ready_retransmits as f64);
    l.insert("core.nacks", rtx.nacks as f64);
    l.insert("core.rejected_updates", rejected as f64);
    l.insert("core.exhausted", exhausted as f64);

    let tails: Vec<f64> = batches
        .iter()
        .zip(stages.chunks(wl.w))
        .map(|(b, flows)| {
            let last = flows.iter().map(|s| s.done).max().unwrap_or(SimTime::ZERO);
            b.returned_ms - last.as_millis_f64()
        })
        .collect();
    l.insert("node.launch_ms", median(&exec.launch));
    l.insert("node.inject_us_per_flow", inject_us / next.max(1) as f64);
    l.insert("node.converge_tail_ms_per_batch", mean(&tails));
    l.insert("node.shutdown_ms", median(&exec.shutdown));
    l.insert("node.dropped_msgs", dropped as f64);
    l.insert("node.cores_busy", cpu_ms / (loop_s * 1e3).max(1e-9));
    l.insert("node.threads", threads as f64);
    l.insert("bench.samples", lat.len() as f64);
    l.insert("bench.measured_s", window.elapsed_s());
    // The same timings as the clock read them.
    if let Some(raw) = timings(&slices, |_| 1.0) {
        l.insert("bench.window_op_ms_p50", raw.op_ms_p50);
        l.insert("bench.window_units_per_s", raw.units_per_s);
        l.insert("bench.window_cpu_ms_per_unit", raw.cpu_ms_per_unit);
    }
    l.insert(
        "bench.window_op_ms_p90",
        percentile(&lat, 90).unwrap_or(0.0),
    );
    l.insert("bench.window_setup_s", window.raw_setup_s());
    let kernel = |f: fn(&Slice) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
    l.insert("bench.kernel_mul_ms_p50", kernel(|s| s.host.mul_ms));
    l.insert("bench.kernel_general_ms_p50", kernel(|s| s.host.general_ms));
    l.insert("bench.slices", slices.len() as f64);

    // ---- per-flow stage spans, on the tracer's clock --------------------
    if tr.enabled() {
        let base = tr.us_at(epoch);
        let us = |t: SimTime| base + t.as_nanos() as f64 / 1e3;
        for (b, flows) in batches.iter().zip(stages.chunks(wl.w)) {
            for s in flows {
                let marks = [s.start, s.ordered, s.first_apply, s.last_apply, s.done];
                for (i, name) in STAGES.iter().enumerate() {
                    tr.record(name, us(marks[i]), us(marks[i + 1]), b.span, s.flow.0);
                }
            }
        }
    }
    tr.exit(span);
    tr.exit(root);
    out
}
