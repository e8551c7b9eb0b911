//! Acceptance sweep for the cross-domain ordering handshake: 256 seeded
//! multi-domain, zero-fault scenarios with a boundary-crossing flow. The
//! end-to-end consistency oracle (which replays every applied update and
//! walks the full path — no stopping at domain boundaries) must report
//! zero violations across the whole sweep, and the handshake must
//! demonstrably be what ordered the boundary (a `BoundaryReleased`
//! observation in every run).

use cicero_core::{Mode, Obs};
use simcheck::{run_scenario_traced, FlowPlan, Scenario, SchedTag};

/// Derives a multi-domain, zero-fault scenario from a sweep index: varied
/// fabric shape (via the generic generator), 2–3 domains, and a first flow
/// pinned to cross the rack-range boundary (first rack -> last rack under
/// `split_racks`).
fn multi_domain_scenario(i: u64) -> Scenario {
    let mut s = Scenario::generate(0xCD0_5EED ^ (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    // This sweep is specifically about the *handshake*: Segway (which the
    // generator biases a quarter of all seeds into) orders boundaries with
    // switch-to-switch readies instead and never emits BoundaryReleased.
    if s.mode == Mode::Centralized || s.mode == Mode::Segway {
        s.mode = if i.is_multiple_of(2) { Mode::CICERO } else { Mode::CICERO_AGG };
        s.controllers_per_domain = s.controllers_per_domain.max(4);
    }
    s.domains = 2 + (i % 2) as u16;
    s.racks = s.racks.max(s.domains);
    s.scheduler = SchedTag::ReversePath;
    s.faults.clear();
    s.denied.clear();
    let last_rack_host = (s.racks as u32 - 1) * s.hosts_per_rack as u32;
    s.flows.insert(
        0,
        FlowPlan {
            src: 0,
            dst: last_rack_host,
            bytes: 10_000 + 37 * i,
            start_ms: i % 25,
        },
    );
    s
}

#[test]
fn sweep_256_multi_domain_zero_fault_scenarios_are_consistent() {
    let mut failures = Vec::new();
    for i in 0..256u64 {
        let s = multi_domain_scenario(i);
        let (out, obs) = run_scenario_traced(&s);
        if !out.violations.is_empty() || !out.report.completed {
            failures.push(format!(
                "case {i} (seed {:#x}): completed={} violations={:?}",
                s.seed, out.report.completed, out.violations
            ));
            continue;
        }
        let released = obs
            .iter()
            .any(|o| matches!(o.value, Obs::BoundaryReleased { .. }));
        if !released {
            failures.push(format!(
                "case {i} (seed {:#x}): no BoundaryReleased — handshake never fired",
                s.seed
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of 256 multi-domain scenarios failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
