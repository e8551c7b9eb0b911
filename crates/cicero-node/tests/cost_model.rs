//! The cost model is inert on threads: `CostModel`'s latency terms are the
//! simulator's stand-ins for work a node thread does for real, so blowing
//! every one of them up to a second must change neither what a threaded run
//! applies nor the wall budget it converges in.

use cicero_core::obs::Obs;
use cicero_core::prelude::Mode;
use cicero_node::exec::ThreadedDeployment;
use cicero_node::NodeSpec;
use simnet::time::SimDuration;
use southbound::types::{SwitchId, UpdateId};
use std::collections::BTreeSet;

/// Far above what the default run takes (tens of milliseconds), far below
/// what one cross-pod flow would take if a single 1 s term were slept.
const BUDGET: SimDuration = SimDuration::from_secs(5);

/// Runs the two-domain example under `mode` with `costs` edited by `edit`
/// and returns the applied-update set.
fn applied(mode: Mode, edit: impl FnOnce(&mut cicero_core::prelude::CostModel)) -> BTreeSet<(SwitchId, UpdateId)> {
    let mut spec = NodeSpec::from_json(include_str!("../../../examples/node_two_domains.json"))
        .expect("valid spec");
    spec.mode = mode;
    let topo = spec.topology();
    let mut cfg = spec.engine_config();
    edit(&mut cfg.costs);
    let dep = cicero_core::deploy::plan(cfg, spec.topology(), spec.domain_map(&topo), 0);
    let mut threaded = ThreadedDeployment::launch(dep);
    threaded.inject_flows(&spec.workload(&topo));
    let report = threaded.run_to_convergence(BUDGET);
    let obs = threaded.shutdown();
    assert!(report.completed, "{mode:?} must converge inside {BUDGET}: {report}");
    obs.iter()
        .filter_map(|o| match o.value {
            Obs::UpdateApplied { switch, update, .. } => Some((switch, update)),
            _ => None,
        })
        .collect()
}

#[test]
fn one_second_latency_terms_change_nothing_on_threads() {
    for mode in [Mode::CICERO, Mode::CICERO_AGG] {
        let default = applied(mode, |_| {});
        assert!(!default.is_empty(), "{mode:?}: cross-pod flows install rules");
        let slow = applied(mode, |costs| {
            let second = SimDuration::from_secs(1);
            costs.event_pipeline = second;
            costs.consensus_wire = second;
            costs.aggregator_delay = second;
            costs.bls_verify = second;
            costs.update_sign = second;
        });
        assert_eq!(default, slow, "{mode:?}: the applied-update set moved with the cost model");
    }
}
