//! Shared engine-setup helpers for every integration suite (and for the
//! fuzzer itself): topology fixtures, engine construction, scheduler and
//! firewall configuration, flow injection, and observation counters.
//!
//! The root `tests/*.rs` suites used to each carry a private copy of this
//! boilerplate; scenario construction now lives here, once.

use cicero_core::prelude::*;
use controller::policy::DomainMap;
use controller::scheduler::UpdateScheduler;
use netmodel::topology::{Location, SwitchRole, Topology};
use southbound::types::{FlowMatch, HostId, SwitchId};
use substrate::rng::{SeedableRng, StdRng};
use workload::gen::generate;
use workload::spec::hadoop;

/// The paper's five-switch example fabric (Figs. 1–3): hosts 1, 2 and 5
/// hang off switches 1, 2 and 5; the s3–s4–s5 triangle gives the reroute
/// experiments their detour.
pub fn paper_topology() -> Topology {
    let mut t = Topology::empty();
    let loc = Location {
        dc: 0,
        pod: 0,
        rack: 0,
    };
    for i in 1..=5 {
        t.add_switch(SwitchId(i), SwitchRole::TopOfRack, loc);
    }
    let lat = SimDuration::from_micros(20);
    t.add_link(SwitchId(1), SwitchId(3), lat, 5);
    t.add_link(SwitchId(2), SwitchId(3), lat, 5);
    t.add_link(SwitchId(3), SwitchId(4), lat, 5);
    t.add_link(SwitchId(3), SwitchId(5), lat, 5);
    t.add_link(SwitchId(4), SwitchId(5), lat, 5);
    t.add_host(HostId(1), SwitchId(1));
    t.add_host(HostId(2), SwitchId(2));
    t.add_host(HostId(5), SwitchId(5));
    t
}

/// A single-domain engine over `topo` for `mode`/`crypto`, defaults
/// otherwise.
pub fn build_engine(mode: Mode, crypto: CryptoMode, topo: &Topology) -> Engine {
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    build_engine_cfg(cfg, topo, 0)
}

/// A single-domain engine with an explicit config and standby controllers.
pub fn build_engine_cfg(cfg: EngineConfig, topo: &Topology, standby: u32) -> Engine {
    let dm = DomainMap::single(topo);
    Engine::build(cfg, topo.clone(), dm, standby)
}

/// Installs a fresh scheduler from `make` on every controller, in every
/// life (a controller restarted later gets one too).
pub fn set_schedulers(
    engine: &mut Engine,
    make: impl Fn() -> Box<dyn UpdateScheduler> + Send + Sync + 'static,
) {
    engine.customize_controllers(move |ctrl| ctrl.set_scheduler(make()));
}

/// Installs a firewall deny for `m` on every controller, in every life
/// (the policy is replicated state, so all controllers must agree).
pub fn deny_pair(engine: &mut Engine, m: FlowMatch) {
    engine.customize_controllers(move |ctrl| {
        ctrl.app_mut().firewall.deny(m);
    });
}

/// Injects `n` Poisson-arrival hadoop-mix flows starting 100 ms from the
/// engine's current time (the membership suite's workload helper).
pub fn inject_poisson_flows(engine: &mut Engine, topo: &Topology, seed: u64, n: usize) {
    let mut spec = hadoop();
    spec.flows = n;
    let mut flows = generate(topo, &spec, &mut StdRng::seed_from_u64(seed));
    let offset = engine.now() + SimDuration::from_millis(100);
    for f in flows.iter_mut() {
        f.start = offset + SimDuration::from_nanos(f.start.as_nanos());
    }
    engine.inject_flows(&flows);
}

/// Number of `FlowCompleted` observations.
pub fn completed_count(engine: &Engine) -> usize {
    engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::FlowCompleted { .. }))
        .count()
}

/// Number of `FlowDenied` observations.
pub fn denied_count(engine: &Engine) -> usize {
    engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::FlowDenied { .. }))
        .count()
}

/// Number of `UpdateApplied` observations.
pub fn applied_count(engine: &Engine) -> usize {
    engine
        .observations()
        .iter()
        .filter(|o| matches!(o.value, Obs::UpdateApplied { .. }))
        .count()
}
