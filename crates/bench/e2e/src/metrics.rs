//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test keeps the two in step) and adds the bounds.

use std::collections::BTreeMap;

/// Metric values by catalogue name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// One catalogue entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricDef {
    /// The printed name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Reported by every workload; what an
/// *op* and a *unit* are on each workload is in [`crate::Kind::op`] and
/// [`crate::Kind::unit`]. All four are times *at reference speed* (see
/// [`crate::calib`]); `bench.window_*` are the same as the clock read them.
pub const END_TO_END: &[MetricDef] = &[
    lower("op_ms_p50", "ms"),
    higher("units_per_s", "1/s"),
    lower("cpu_ms_per_unit", "ms"),
    lower("setup_s", "s"),
];

/// Single-layer metrics, layer = crate name. A metric a workload does not
/// exercise is reported as 0 on that workload.
pub const PER_LAYER: &[MetricDef] = &[
    // Unit-cost replays: direct calls into one layer, same on every
    // workload.
    lower("blscrypto.sign_share_us", "us"),
    lower("blscrypto.verify_partial_us", "us"),
    lower("blscrypto.aggregate_q2_us", "us"),
    lower("blscrypto.verify_us", "us"),
    lower("blscrypto.batch_verify_item_us", "us"),
    lower("blscrypto.dkg_n4_ms", "ms"),
    lower("southbound.envelope_sign_us", "us"),
    lower("southbound.envelope_verify_us", "us"),
    lower("southbound.encode_update_ns", "ns"),
    lower("southbound.decode_update_ns", "ns"),
    lower("bft.order_us_per_payload", "us"),
    lower("bft.msgs_per_payload", "count"),
    lower("controller.schedule_us", "us"),
    lower("netmodel.route_us", "us"),
    lower("netmodel.flowtable_apply_ns", "ns"),
    lower("substrate.wal_append_us", "us"),
    higher("simnet.raw_events_per_s", "1/s"),
    lower("workload.generate_us_per_flow", "us"),
    lower("core.plan_ms", "ms"),
    // Stage budget of a flow on the node workloads, reduced from `Obs`.
    lower("core.flow_ms_mean", "ms"),
    lower("core.intake_order_ms_mean", "ms"),
    lower("core.first_apply_ms_mean", "ms"),
    lower("core.ordered_chain_ms_mean", "ms"),
    lower("core.dataplane_tail_ms_mean", "ms"),
    higher("core.flow_tail_pct", "%"),
    lower("core.flow_ms_tail", "ms"),
    lower("core.update_ms_p50", "ms"),
    lower("core.update_ms_p95", "ms"),
    // Protocol counts per flow: a change here changed the protocol.
    lower("core.updates_per_flow", "count"),
    lower("core.events_per_flow", "count"),
    lower("core.segment_reports_per_flow", "count"),
    lower("core.boundary_releases_per_flow", "count"),
    lower("core.readies_per_flow", "count"),
    lower("core.snapshots_per_flow", "count"),
    // Wasted work: recoveries per useful update, and their kinds.
    lower("core.rtx_per_update", "count"),
    lower("core.rtx_update", "count"),
    lower("core.rtx_ack", "count"),
    lower("core.rtx_event", "count"),
    lower("core.rtx_segment", "count"),
    lower("core.rtx_forward", "count"),
    lower("core.rtx_ready", "count"),
    lower("core.nacks", "count"),
    lower("core.rejected_updates", "count"),
    lower("core.exhausted", "count"),
    lower("core.verify_equiv_per_update", "count"),
    // Simulator runs (`sim_fabric`): exact for one seed.
    lower("core.sim_msgs_per_flow", "count"),
    lower("core.sim_flow_ms_mean", "ms"),
    // Threaded executor.
    lower("node.launch_ms", "ms"),
    lower("node.inject_us_per_flow", "us"),
    lower("node.converge_tail_ms_per_batch", "ms"),
    lower("node.shutdown_ms", "ms"),
    lower("node.dropped_msgs", "count"),
    higher("node.cores_busy", "count"),
    lower("node.threads", "count"),
    // Fuzzer.
    lower("simcheck.generate_us_per_seed", "us"),
    lower("simcheck.run_us_per_seed", "us"),
    lower("simcheck.oracle_us_per_seed", "us"),
    lower("simcheck.violations", "count"),
    // The benchmark itself: sample sizes, the host's speed during the
    // run, and the end-to-end timings as the clock read them.
    higher("bench.samples", "count"),
    lower("bench.measured_s", "s"),
    higher("bench.slices", "count"),
    lower("bench.kernel_mul_ms_p50", "ms"),
    lower("bench.kernel_general_ms_p50", "ms"),
    lower("bench.window_op_ms_p50", "ms"),
    lower("bench.window_op_ms_p90", "ms"),
    higher("bench.window_units_per_s", "1/s"),
    lower("bench.window_cpu_ms_per_unit", "ms"),
    lower("bench.window_setup_s", "s"),
];

/// What one run of one workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Operations attempted (flows, engine runs, scenarios).
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// Gate failures not tied to one operation (e.g. a rejected update).
    pub faults: Vec<String>,
    /// Findings that are not failures (fuzzer violations), printed.
    pub findings: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
}

impl Outcome {
    /// Every op passed the gate and nothing else was flagged.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.faults.is_empty() && self.attempted > 0
    }
}
