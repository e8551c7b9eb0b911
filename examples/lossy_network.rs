//! Reliable delivery under loss: the full Cicero protocol runs over a
//! network that drops 20% of all messages *and* severs the ingress
//! rack's uplink to every controller for the first two seconds. The
//! retransmission layer (signed-event retries, update retries with
//! exponential backoff, NACK-driven state re-sync, ack re-sends) carries
//! every flow to completion once the partition heals; the liveness
//! watchdog's report shows exactly which recovery paths fired.
//!
//! Run with: `cargo run --example lossy_network`

use cicero::prelude::*;
use simnet::fault::FaultPlan;

const DROP: f64 = 0.20;
const PARTITION_SECS: u64 = 2;

fn build() -> (Engine, Topology) {
    let mut cfg = EngineConfig::for_mode(Mode::Cicero {
        aggregation: Aggregation::Switch,
    });
    cfg.crypto = CryptoMode::Modeled;
    cfg.seed = 42;
    let topo = Topology::single_pod(4, 2, 2);
    let dm = DomainMap::single(&topo);
    let engine = Engine::build(cfg, topo.clone(), dm, 0);
    (engine, topo)
}

/// 20% uniform loss everywhere, plus a severed window between the first
/// host's ToR switch and all four controllers.
fn inject_faults_and_flows(engine: &mut Engine, topo: &Topology) {
    let hosts = topo.hosts();
    let src = hosts[0].id;
    let ingress = topo.host(src).unwrap().attached;
    let sw = engine.switch_node(ingress);
    let until = SimTime::ZERO + SimDuration::from_secs(PARTITION_SECS);
    let mut plan = FaultPlan::none().with_drop_probability(DROP);
    let n = engine.shared().cfg.controllers_per_domain;
    for c in 1..=n {
        let cn = engine.controller_node(DomainId(0), ControllerId(c));
        plan = plan.with_severed_window(sw, cn, SimTime::ZERO, until);
    }
    engine.set_faults(plan);

    // Three cross-rack flows, the first from inside the partitioned rack.
    let mut id = 0u64;
    for h in hosts {
        if h.attached == ingress {
            continue;
        }
        id += 1;
        let start = SimTime::ZERO + SimDuration::from_millis(id);
        engine.inject_flow(FlowId(id), src, h.id, 1_000, start);
        if id == 3 {
            break;
        }
    }
}

fn main() {
    let horizon = SimTime::ZERO + SimDuration::from_secs(60);

    println!("== {:.0}% drop + {PARTITION_SECS}s partition ==", DROP * 100.0);
    let (mut engine, topo) = build();
    inject_faults_and_flows(&mut engine, &topo);
    let report = engine.run_reporting(horizon);
    println!("{report}");
    assert!(report.completed, "flows must survive the faults");

    let first_recovery = engine
        .observations()
        .iter()
        .find(|o| {
            matches!(
                o.value,
                Obs::EventRetransmitted { .. } | Obs::UpdateRetransmitted { .. }
            )
        })
        .map(|o| o.at);
    if let Some(at) = first_recovery {
        println!("first retransmission fired at {at:?}");
    }
}
