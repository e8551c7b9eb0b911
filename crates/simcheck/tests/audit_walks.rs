//! Edge cases of the replay audit (`cicero_core::audit`) that the
//! hand-written consistency suite never reached: domain-boundary crossings
//! mid-update, deny rules shadowed by later allows, and the
//! `NotForwarded`-vs-`BlackHole` distinction at the ingress.

use cicero_core::audit::{audit_flow, ReplayState, WalkOutcome};
use cicero_core::prelude::*;
use simnet::{NodeId, Observation};
use southbound::types::{
    EventId, FlowAction, FlowMatch, FlowRule, HostId, NextHop, SwitchId, UpdateId, UpdateKind,
};

fn m() -> FlowMatch {
    FlowMatch {
        src: HostId(1),
        dst: HostId(2),
    }
}

fn install(action: FlowAction) -> UpdateKind {
    UpdateKind::Install(FlowRule {
        matcher: m(),
        action,
    })
}

/// A synthetic `UpdateApplied` observation stream entry.
fn applied(step: u64, sw: u32, kind: UpdateKind) -> Observation<Obs> {
    Observation {
        at: SimTime::ZERO + SimDuration::from_millis(step),
        node: NodeId(0),
        value: Obs::UpdateApplied {
            switch: SwitchId(sw),
            update: UpdateId {
                event: EventId(1),
                seq: step as u32,
            },
            kind,
            signers: 2,
        },
    }
}

// ---- NotForwarded vs BlackHole at the ingress -------------------------

/// Downstream-first installation (the reverse-path order): while only the
/// downstream rule exists, the ingress has no rule — the packet is
/// *buffered* (`NotForwarded`), which is not a hazard.
#[test]
fn missing_ingress_rule_is_not_forwarded_not_a_black_hole() {
    let obs = vec![
        applied(0, 2, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
        applied(1, 1, install(FlowAction::Forward(NextHop::Switch(SwitchId(2))))),
    ];
    assert!(audit_flow(&obs, SwitchId(1), m(), false).is_empty());

    let mut state = ReplayState::new();
    state.apply(SwitchId(2), install(FlowAction::Forward(NextHop::Host(HostId(2)))));
    assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::NotForwarded);
}

/// Ingress-first installation: the ingress forwards into a switch with no
/// rule — a genuine transient black hole, flagged at exactly that step.
#[test]
fn ingress_first_installation_is_a_black_hole() {
    let obs = vec![
        applied(0, 1, install(FlowAction::Forward(NextHop::Switch(SwitchId(2))))),
        applied(1, 2, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
    ];
    let hazards = audit_flow(&obs, SwitchId(1), m(), false);
    assert_eq!(hazards.len(), 1);
    assert_eq!(hazards[0].step, 0);
    assert_eq!(hazards[0].outcome, WalkOutcome::BlackHole(SwitchId(2)));

    let mut state = ReplayState::new();
    state.apply(SwitchId(1), install(FlowAction::Forward(NextHop::Switch(SwitchId(2)))));
    assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::BlackHole(SwitchId(2)));
}

// ---- deny shadowed by a later allow -----------------------------------

/// A deny rule later replaced by a forward ("allow") rule: for a flow the
/// policy *denies*, the moment the allow lands and the walk delivers, that
/// is a policy-violation hazard.
#[test]
fn denied_flow_delivered_after_allow_shadows_deny_is_a_hazard() {
    let obs = vec![
        applied(0, 1, install(FlowAction::Deny)),
        // Misconfigured/compromised later update overwrites the deny.
        applied(1, 1, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
    ];
    let hazards = audit_flow(&obs, SwitchId(1), m(), true);
    assert_eq!(hazards.len(), 1);
    assert_eq!(hazards[0].step, 1);
    assert_eq!(hazards[0].outcome, WalkOutcome::Delivered(HostId(2)));
}

/// The same transition for a flow the policy *allows* is harmless: the
/// transient `Denied` state buffers (drops to policy), never misdelivers.
#[test]
fn allowed_flow_transiently_denied_is_not_a_hazard() {
    let obs = vec![
        applied(0, 1, install(FlowAction::Deny)),
        applied(1, 1, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
    ];
    assert!(audit_flow(&obs, SwitchId(1), m(), false).is_empty());
}

/// Removing a deny re-exposes the no-rule state: back to `NotForwarded`,
/// not a hazard, and not `BlackHole` (the ingress is where the packet is).
#[test]
fn deny_removal_returns_to_not_forwarded() {
    let obs = vec![
        applied(0, 1, install(FlowAction::Deny)),
        applied(1, 1, UpdateKind::Remove(m())),
    ];
    assert!(audit_flow(&obs, SwitchId(1), m(), true).is_empty());
    let mut state = ReplayState::new();
    state.apply(SwitchId(1), install(FlowAction::Deny));
    state.apply(SwitchId(1), UpdateKind::Remove(m()));
    assert_eq!(state.walk(SwitchId(1), m()), WalkOutcome::NotForwarded);
}

// ---- misdelivery ------------------------------------------------------

/// Delivery to a host other than the flow's destination is flagged even
/// though the walk "succeeded".
#[test]
fn delivery_to_the_wrong_host_is_a_hazard() {
    let obs = vec![applied(
        0,
        1,
        install(FlowAction::Forward(NextHop::Host(HostId(9)))),
    )];
    let hazards = audit_flow(&obs, SwitchId(1), m(), false);
    assert_eq!(hazards.len(), 1);
    assert_eq!(hazards[0].outcome, WalkOutcome::Delivered(HostId(9)));
}

// ---- domain boundary crossings mid-update -----------------------------

/// A flow whose route crosses an update-domain boundary, with the two
/// domains installing their segments independently (the pre-handshake
/// behavior). The full-path walk black-holes while the ingress forwards
/// into a domain with no rule yet — and since the consistency oracle now
/// audits end-to-end (DESIGN.md §5), those transients are enforced
/// violations, not a tolerated "known gap". The handshake-ordered stream
/// (downstream segment strictly first) audits clean.
#[test]
fn independent_per_domain_installation_black_holes_end_to_end() {
    // Path 1 → 2 → 3; switch 1 in domain 0, switches 2 and 3 in domain 1.
    // Domain 0 (just the ingress) installs immediately; domain 1 installs
    // its segment in reverse-path order afterwards.
    let unordered = vec![
        applied(0, 1, install(FlowAction::Forward(NextHop::Switch(SwitchId(2))))),
        applied(1, 3, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
        applied(2, 2, install(FlowAction::Forward(NextHop::Switch(SwitchId(3))))),
    ];
    let full = audit_flow(&unordered, SwitchId(1), m(), false);
    assert_eq!(full.len(), 2, "full-path audit sees the cross-domain gap: {full:?}");
    assert!(full
        .iter()
        .all(|h| matches!(h.outcome, WalkOutcome::BlackHole(_))));

    // The same installs in handshake order — domain 1's whole segment
    // before domain 0's boundary update — are hazard-free end to end.
    let ordered = vec![
        applied(0, 3, install(FlowAction::Forward(NextHop::Host(HostId(2))))),
        applied(1, 2, install(FlowAction::Forward(NextHop::Switch(SwitchId(3))))),
        applied(2, 1, install(FlowAction::Forward(NextHop::Switch(SwitchId(2))))),
    ];
    assert!(audit_flow(&ordered, SwitchId(1), m(), false).is_empty());
}

/// End-to-end cross-domain scenario through the fuzzer's oracle registry:
/// the scenario shape that exposed the cross-domain gap (two racks, two
/// domains, one boundary-crossing flow, no faults) must pass the
/// end-to-end consistency oracle now that the handshake orders the
/// boundary — deterministically. (The same scenario is committed as
/// `fixtures/cross_domain_blackhole.json`.)
#[test]
fn cross_domain_scenario_passes_end_to_end_oracle() {
    use simcheck::{run_scenario, FlowPlan, Scenario, SchedTag};
    let s = Scenario {
        seed: 0x91d6_ac26_6138_7828,
        racks: 2,
        edges: 1,
        hosts_per_rack: 1,
        domains: 2,
        mode: Mode::CICERO,
        scheduler: SchedTag::ReversePath,
        controllers_per_domain: 4,
        flows: vec![FlowPlan {
            src: 1_435_637_629,
            dst: 1_526_931_291,
            bytes: 27_931,
            start_ms: 37,
        }],
        denied: vec![],
        faults: vec![],
        horizon_ms: 30_000,
    };
    let out = run_scenario(&s);
    assert!(out.report.completed, "{}", out.report);
    assert!(out.passed(), "violations: {:?}", out.violations);
}
