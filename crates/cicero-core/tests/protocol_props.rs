//! Property-based end-to-end tests: under arbitrary small workloads, seeds
//! and fault rates, the protocol completes every flow, never applies an
//! update twice, and never exposes a hazardous intermediate state.

use cicero_core::audit::audit_flow;
use cicero_core::prelude::*;
use controller::policy::DomainMap;
use netmodel::topology::Topology;
use southbound::types::{FlowId, FlowMatch};
use std::collections::BTreeSet;

#[test]
fn random_workloads_complete_and_stay_consistent() {
    substrate::forall!(cases = 12, |g| {
        let seed = g.u64();
        let n_flows = g.usize_in(1..10);
        let agg = g.bool();
        let drop_pct = g.u32_in(0..4);
        let mut cfg = EngineConfig::for_mode(Mode::Cicero {
            aggregation: if agg { Aggregation::Controller } else { Aggregation::Switch },
        });
        cfg.crypto = CryptoMode::Modeled;
        cfg.seed = seed;
        let topo = Topology::single_pod(4, 2, 3);
        let dm = DomainMap::single(&topo);
        let mut engine = Engine::build(cfg, topo.clone(), dm, 0);
        if drop_pct > 0 && !agg {
            // Loss only in switch-aggregation mode: the aggregator path has
            // single points on the message path by design (the paper notes
            // the aggregator must be failure-handled; loss there only delays).
            engine.set_faults(
                simnet::fault::FaultPlan::none().with_drop_probability(drop_pct as f64 / 100.0),
            );
        }
        let hosts = topo.hosts();
        let mut pairs = Vec::new();
        for i in 0..n_flows {
            let src = hosts[(seed as usize + i * 3) % hosts.len()].id;
            let dst = hosts[(seed as usize + i * 7 + 1) % hosts.len()].id;
            if src == dst {
                continue;
            }
            let start = SimTime::ZERO + SimDuration::from_millis(1 + i as u64);
            let r = engine.inject_flow(FlowId(i as u64 + 1), src, dst, 500, start).unwrap();
            pairs.push((FlowId(i as u64 + 1), r.path[0], FlowMatch { src, dst }));
        }
        engine.run(SimTime::ZERO + SimDuration::from_secs(60));

        // Every injected flow completed exactly once.
        let mut completed = BTreeSet::new();
        for o in engine.observations() {
            if let Obs::FlowCompleted { flow, .. } = o.value {
                assert!(completed.insert(flow), "flow {flow:?} completed twice");
            }
        }
        for (flow, _, _) in &pairs {
            assert!(completed.contains(flow), "flow {flow:?} never completed");
        }

        // No update applied twice at any switch.
        let mut seen = BTreeSet::new();
        for o in engine.observations() {
            if let Obs::UpdateApplied { switch, update, .. } = o.value {
                assert!(seen.insert((switch, update)), "duplicate application");
            }
        }

        // No transient hazard for any flow.
        for (_, ingress, m) in &pairs {
            let hazards = audit_flow(engine.observations(), *ingress, *m, false);
            assert!(hazards.is_empty(), "hazards for {m:?}: {hazards:?}");
        }
    });
}
