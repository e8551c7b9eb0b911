//! Pure reducers: everything the benchmark reports about a node workload
//! is computed here from the `Obs` log the program returns, never from the
//! watchdog's own timing (its 25 ms poll would otherwise sit inside every
//! number).

use crate::calib::HostSpeed;
use crate::flows::matcher;
use cicero_core::obs::Obs;
use simnet::sim::Observation;
use simnet::time::SimTime;
use southbound::types::{EventId, FlowId, FlowMatch, UpdateKind};
use std::collections::BTreeMap;
use workload::gen::FlowSpec;

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Percentiles the tail selector may pick from, ascending.
const TAIL_LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (sorted.len() * pct as usize).div_ceil(100).max(1);
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it in a sample of `n`; `None` when even the median has fewer.
pub fn supported_tail(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n * (100 - p as usize) >= MIN_BEYOND * 100)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The five timestamps of one flow's life, all on the deployment's clock.
/// Consecutive differences are the four stages of the budget, so the
/// stage means sum to the mean flow latency by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowStages {
    /// The flow.
    pub flow: FlowId,
    /// Injection (`FlowCompleted.start`).
    pub start: SimTime,
    /// First `EventProcessed` of the flow's event.
    pub ordered: SimTime,
    /// First `UpdateApplied` of the flow.
    pub first_apply: SimTime,
    /// Last `UpdateApplied` of the flow.
    pub last_apply: SimTime,
    /// `FlowCompleted`.
    pub done: SimTime,
    /// `UpdateApplied` observations carrying this flow's match.
    pub updates: u32,
    /// `EventProcessed` observations of this flow's event (one per domain).
    pub events: u32,
}

impl FlowStages {
    /// The four stage durations in ms: intake+order, first apply, ordered
    /// chain, data-plane tail.
    pub fn stage_ms(&self) -> [f64; 4] {
        let ms = |a: SimTime, b: SimTime| b.since(a).as_millis_f64();
        [
            ms(self.start, self.ordered),
            ms(self.ordered, self.first_apply),
            ms(self.first_apply, self.last_apply),
            ms(self.last_apply, self.done),
        ]
    }

    /// Injection to completion in ms.
    pub fn flow_ms(&self) -> f64 {
        self.done.since(self.start).as_millis_f64()
    }
}

/// Joins flows to their event and updates and returns one [`FlowStages`]
/// per *completed* flow of `flows`, in `flows` order.
///
/// The join runs through the data the log already carries: an update names
/// its flow by the `FlowMatch` in its `UpdateKind` and its event by
/// `UpdateId.event`. With real threads the lowest-id controller (the one
/// that emits `EventProcessed`) can be overtaken by its peers, and a
/// Segway switch may apply a non-gating update after the ingress rule, so
/// the interior timestamps are clamped into `start <= ordered <=
/// first_apply <= last_apply <= done`.
pub fn flow_stages(obs: &[Observation<Obs>], flows: &[FlowSpec]) -> Vec<FlowStages> {
    struct Acc {
        event: Option<EventId>,
        first: SimTime,
        last: SimTime,
        updates: u32,
    }
    let mut by_match: BTreeMap<FlowMatch, Acc> = BTreeMap::new();
    let mut done: BTreeMap<FlowId, (SimTime, SimTime)> = BTreeMap::new();
    let mut processed: BTreeMap<EventId, (SimTime, u32)> = BTreeMap::new();
    for o in obs {
        match o.value {
            Obs::UpdateApplied { update, kind, .. } => {
                let m = match kind {
                    UpdateKind::Install(rule) => rule.matcher,
                    UpdateKind::Remove(m) => m,
                };
                let acc = by_match.entry(m).or_insert(Acc {
                    event: None,
                    first: o.at,
                    last: o.at,
                    updates: 0,
                });
                acc.event.get_or_insert(update.event);
                acc.first = acc.first.min(o.at);
                acc.last = acc.last.max(o.at);
                acc.updates += 1;
            }
            Obs::FlowCompleted { flow, start } => {
                done.insert(flow, (start, o.at));
            }
            Obs::EventProcessed { event, .. } => {
                let e = processed.entry(event).or_insert((o.at, 0));
                e.0 = e.0.min(o.at);
                e.1 += 1;
            }
            _ => {}
        }
    }
    flows
        .iter()
        .filter_map(|f| {
            let &(start, end) = done.get(&f.id)?;
            let acc = by_match.get(&matcher(f))?;
            let (ordered, events) = acc
                .event
                .and_then(|e| processed.get(&e).copied())
                .unwrap_or((acc.first, 0));
            let first_apply = acc.first.clamp(start, end);
            let last_apply = acc.last.clamp(first_apply, end);
            Some(FlowStages {
                flow: f.id,
                start,
                ordered: ordered.clamp(start, first_apply),
                first_apply,
                last_apply,
                done: end,
                updates: acc.updates,
                events,
            })
        })
        .collect()
}

/// Summed busy time of closed-loop batches in seconds: for each batch of
/// `w` consecutive flows, last completion minus first injection. The idle
/// gap between batches (the watchdog confirming convergence) is excluded.
pub fn busy_seconds(stages: &[FlowStages], w: usize) -> f64 {
    stages
        .chunks(w.max(1))
        .map(|batch| {
            let start = batch.iter().map(|s| s.start).min().unwrap_or(SimTime::ZERO);
            let end = batch.iter().map(|s| s.done).max().unwrap_or(SimTime::ZERO);
            end.since(start).as_secs_f64()
        })
        .sum()
}

/// Busy time a slice of a single-threaded workload must cover before it
/// is closed and the kernel is timed. The host's speed changes over
/// seconds, so a slice is short enough to sit inside one of its moods and
/// long enough that the kernel (some 3 ms) costs a few percent.
pub const SLICE_SECONDS: f64 = 0.2;

/// Consecutive ops and the host-speed sample taken right after them: a
/// closed-loop batch of a node workload, or some [`SLICE_SECONDS`] of ops
/// of a single-threaded one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Slice {
    /// Wall time of each op, ms.
    pub op_ms: Vec<f64>,
    /// Time the slice kept the program busy, s (ops may overlap).
    pub busy_s: f64,
    /// Work units the ops completed.
    pub units: f64,
    /// Process CPU time over the slice, ms.
    pub cpu_ms: f64,
    /// The calibration kernels' times right after the slice.
    pub host: HostSpeed,
}

/// The three timings of a window, raw or at reference speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timings {
    /// Median op latency, ms.
    pub op_ms_p50: f64,
    /// Units per busy second.
    pub units_per_s: f64,
    /// Process CPU ms per unit.
    pub cpu_ms_per_unit: f64,
}

/// Reduces the slices of a window to its three timings, every slice's
/// times divided by `factor(slice)` first: `|_| 1.0` gives the raw
/// whole-window values, [`HostSpeed::factor`] of the slice's kernel sample
/// gives them at reference speed. `None` without a completed op.
pub fn timings(slices: &[Slice], factor: impl Fn(&Slice) -> f64) -> Option<Timings> {
    let mut op_ms: Vec<f64> = Vec::new();
    let (mut busy_s, mut units, mut cpu_ms) = (0.0, 0.0, 0.0);
    for s in slices {
        let f = factor(s);
        op_ms.extend(s.op_ms.iter().map(|ms| ms / f));
        busy_s += s.busy_s / f;
        cpu_ms += s.cpu_ms / f;
        units += s.units;
    }
    op_ms.sort_by(f64::total_cmp);
    Some(Timings {
        op_ms_p50: percentile(&op_ms, 50)?,
        units_per_s: units / busy_s.max(1e-9),
        cpu_ms_per_unit: cpu_ms / units.max(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::node::NodeId;
    use simnet::time::SimDuration;
    use southbound::types::{DomainId, FlowAction, FlowRule, HostId, NextHop, SwitchId, UpdateId};
    use workload::spec::LocalityClass;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn o(ms: u64, value: Obs) -> Observation<Obs> {
        Observation {
            at: at(ms),
            node: NodeId(0),
            value,
        }
    }

    fn applied(ms: u64, event: u64, seq: u32, src: u32, dst: u32) -> Observation<Obs> {
        o(
            ms,
            Obs::UpdateApplied {
                switch: SwitchId(seq),
                update: UpdateId {
                    event: EventId(event),
                    seq,
                },
                kind: UpdateKind::Install(FlowRule {
                    matcher: FlowMatch {
                        src: HostId(src),
                        dst: HostId(dst),
                    },
                    action: FlowAction::Forward(NextHop::Host(HostId(dst))),
                }),
                signers: 2,
            },
        )
    }

    fn processed(ms: u64, domain: u16, event: u64) -> Observation<Obs> {
        o(
            ms,
            Obs::EventProcessed {
                domain: DomainId(domain),
                event: EventId(event),
            },
        )
    }

    fn completed(ms: u64, flow: u64, start_ms: u64) -> Observation<Obs> {
        o(
            ms,
            Obs::FlowCompleted {
                flow: FlowId(flow),
                start: at(start_ms),
            },
        )
    }

    fn flow(id: u64, src: u32, dst: u32) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            bytes: 1000,
            start: SimTime::ZERO,
            locality: LocalityClass::IntraDc,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50));
        assert_eq!(supported_tail(40), Some(75));
        assert_eq!(supported_tail(99), Some(75));
        assert_eq!(supported_tail(100), Some(90));
        assert_eq!(supported_tail(128), Some(90));
        assert_eq!(supported_tail(200), Some(95));
        assert_eq!(supported_tail(1000), Some(99));
    }

    #[test]
    fn stages_join_two_interleaved_flows() {
        // Flow 1 (hosts 1->2, event 10) and flow 2 (hosts 3->4, event 20)
        // run at the same time; their observations interleave in the log.
        let obs = vec![
            processed(4, 0, 20),
            processed(5, 0, 10),
            processed(6, 1, 20),
            applied(9, 20, 0, 3, 4),
            processed(7, 1, 10),
            applied(12, 10, 0, 1, 2),
            applied(15, 20, 1, 3, 4),
            applied(20, 10, 1, 1, 2),
            applied(21, 10, 2, 1, 2),
            completed(23, 2, 1),
            completed(30, 1, 0),
        ];
        let flows = [flow(1, 1, 2), flow(2, 3, 4)];
        let st = flow_stages(&obs, &flows);
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].flow, FlowId(1));
        assert_eq!(st[0].stage_ms(), [5.0, 7.0, 9.0, 9.0]);
        assert_eq!((st[0].updates, st[0].events), (3, 2));
        assert_eq!(st[1].stage_ms(), [3.0, 5.0, 6.0, 8.0]);
        assert_eq!((st[1].updates, st[1].events), (2, 2));
        for s in &st {
            let sum: f64 = s.stage_ms().iter().sum();
            assert!((sum - s.flow_ms()).abs() < 1e-9);
        }
    }

    #[test]
    fn stages_clamp_an_overtaken_leader_and_skip_unfinished_flows() {
        // The EventProcessed emitter was overtaken: its stamp (14) is later
        // than the first apply (12). Flow 2 never completed.
        let obs = vec![
            applied(12, 10, 0, 1, 2),
            processed(14, 0, 10),
            applied(20, 10, 1, 1, 2),
            completed(25, 1, 2),
            applied(30, 20, 0, 3, 4),
        ];
        let st = flow_stages(&obs, &[flow(1, 1, 2), flow(2, 3, 4)]);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].stage_ms(), [10.0, 0.0, 8.0, 5.0]);
    }

    #[test]
    fn busy_time_excludes_the_gap_between_batches() {
        let mk = |id: u64, start: u64, done: u64| FlowStages {
            flow: FlowId(id),
            start: at(start),
            ordered: at(start),
            first_apply: at(start),
            last_apply: at(done),
            done: at(done),
            updates: 5,
            events: 3,
        };
        // Two batches of two; 50 ms of watchdog idle between them.
        let st = [
            mk(1, 0, 100),
            mk(2, 1, 120),
            mk(3, 170, 260),
            mk(4, 171, 250),
        ];
        let busy = busy_seconds(&st, 2);
        assert!((busy - 0.210).abs() < 1e-9, "{busy}");
        // 20 updates over 0.21 s of busy time.
        assert!((20.0 / busy - 95.238).abs() < 0.01);
        assert!((busy_seconds(&st, 1) - 0.388).abs() < 1e-9);
    }

    #[test]
    fn timings_divide_every_slice_by_its_own_factor() {
        let slice = |op_ms: &[f64], units: f64, cpu_ms: f64, mul_ms: f64| Slice {
            op_ms: op_ms.to_vec(),
            busy_s: op_ms.iter().sum::<f64>() / 1e3,
            units,
            cpu_ms,
            host: HostSpeed {
                mul_ms,
                general_ms: 1.0,
            },
        };
        // The same work three times; the host ran at half speed during the
        // second slice and its kernel sample says so.
        let slices = [
            slice(&[100.0, 100.0], 10.0, 300.0, 3.0),
            slice(&[200.0, 200.0], 10.0, 600.0, 6.0),
            slice(&[100.0, 100.0], 10.0, 300.0, 3.0),
        ];
        let raw = timings(&slices, |_| 1.0).expect("ops");
        assert_eq!(raw.op_ms_p50, 100.0);
        assert!((raw.units_per_s - 37.5).abs() < 1e-9);
        assert!((raw.cpu_ms_per_unit - 40.0).abs() < 1e-9);
        let at_ref = timings(&slices, |s| s.host.mul_ms / 3.0).expect("ops");
        assert_eq!(at_ref.op_ms_p50, 100.0);
        assert!((at_ref.units_per_s - 50.0).abs() < 1e-9);
        assert!((at_ref.cpu_ms_per_unit - 30.0).abs() < 1e-9);
        assert_eq!(timings(&[], |_| 1.0), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
