//! Committed reproducer replay (regression fixtures).
//!
//! Each fixture under `fixtures/` is a replayable artifact in the format
//! `simcheck::artifact` emits when a fuzz run finds a violation. Replaying
//! them here keeps once-found bugs found: the scenario that exposed a bug
//! is committed verbatim and must stay green forever after the fix.

use std::path::{Path, PathBuf};

use simcheck::{run_scenario, run_scenario_no_handshake};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

/// The cross-domain black-hole reproducer: a two-domain reverse-path
/// scenario whose flow crosses the domain boundary. Before the
/// cross-domain ordering handshake (DESIGN.md §3), the upstream domain
/// installed its segment without waiting for the downstream one, leaving a
/// window where the boundary switch forwarded into a switch with no rule.
/// With the handshake the full end-to-end audit passes.
#[test]
fn cross_domain_blackhole_fixture_replays_green() {
    let (scenario, violations) =
        simcheck::artifact::read_artifact(&fixture("cross_domain_blackhole.json")).unwrap();
    assert!(
        violations.is_empty(),
        "fixture was committed post-fix; it must carry no recorded violations"
    );
    let out = run_scenario(&scenario);
    assert!(
        out.passed(),
        "fixture regressed: {:?}",
        out.violations
    );
    assert!(out.report.completed, "fixture flow must converge");
}

/// The Segway analogue, found by the fuzz generator once `Mode::Segway`
/// joined the seed pool: a two-domain reverse-path scenario whose first
/// flow crosses the boundary, run in the decentralized execution mode.
/// With ready-gating the switches themselves order the boundary
/// (destination-first, one tagged ready per dependency edge) and the full
/// end-to-end audit passes.
#[test]
fn segway_ungated_blackhole_fixture_replays_green() {
    let (scenario, violations) =
        simcheck::artifact::read_artifact(&fixture("segway_ungated_blackhole.json")).unwrap();
    assert!(
        violations.is_empty(),
        "fixture was committed post-fix; it must carry no recorded violations"
    );
    let out = run_scenario(&scenario);
    assert!(out.passed(), "fixture regressed: {:?}", out.violations);
    assert!(out.report.completed, "fixture flows must converge");
}

/// Companion: the same Segway scenario with ready-gating disabled (the
/// same knob that disables the Cicero handshake) must black-hole — every
/// switch applies its segment the moment the threshold-signed update
/// arrives, so the upstream domain can forward into a switch with no rule
/// yet. Guards that the gates are load-bearing, not decorative.
#[test]
fn segway_ungated_blackhole_fixture_fails_without_gating() {
    let (scenario, _) =
        simcheck::artifact::read_artifact(&fixture("segway_ungated_blackhole.json")).unwrap();
    let out = run_scenario_no_handshake(&scenario);
    assert!(
        out.violations
            .iter()
            .any(|v| v.oracle == "consistency" && v.detail.contains("BlackHole")),
        "ungated Segway must black-hole this boundary-crossing flow; got {:?}",
        out.violations
    );
}

/// Companion: the same scenario under the OLD per-domain-only schedule
/// (handshake disabled) must still fail the end-to-end consistency audit
/// with a black hole. This guards two things at once: that the oracle is
/// not vacuous, and that the handshake is not silently disabled.
#[test]
fn cross_domain_blackhole_fixture_fails_without_handshake() {
    let (scenario, _) =
        simcheck::artifact::read_artifact(&fixture("cross_domain_blackhole.json")).unwrap();
    let out = run_scenario_no_handshake(&scenario);
    assert!(
        out.violations
            .iter()
            .any(|v| v.oracle == "consistency" && v.detail.contains("BlackHole")),
        "per-domain-only scheduling must black-hole this boundary-crossing \
         flow; got {:?}",
        out.violations
    );
}

/// `segway 0xd0`, shrunk: six controllers per domain under 11.6 % message
/// loss. With PBFT quorums of `2f + 1 = 3` two disjoint halves of a domain
/// each committed their own order of two events — the `[agreement]`
/// violation the artifact still records, exactly as the fuzzer wrote it.
/// With `⌈(n + f + 1) / 2⌉ = 4` any two quorums share a correct replica
/// and the same scenario replays green; put `2f + 1` back and it fails.
#[test]
fn disjoint_quorums_fixture_replays_green_under_intersecting_quorums() {
    let (scenario, recorded) =
        simcheck::artifact::read_artifact(&fixture("segway_disjoint_quorums_0xd0.json")).unwrap();
    assert_eq!(scenario.controllers_per_domain, 6, "a size where 2f + 1 quorums can be disjoint");
    assert!(
        matches!(&recorded[..], [v] if v.starts_with("[agreement]")),
        "the artifact records what 2f + 1 did: {recorded:?}"
    );
    let out = run_scenario(&scenario);
    assert!(out.passed(), "fixture regressed: {:?}", out.violations);
}

/// `secure 0xb0`, shrunk: four controllers per domain under 6.1 % message
/// loss. One replica committed a slot in view 0; view 1 re-proposed it and
/// failed to prepare, which made every holder forget its view-0 certificate,
/// so view 2's primary heard of none and filled the slot with a no-op — the
/// `[agreement]` violation the artifact records. A replica now keeps its
/// highest-view certificate per slot whatever is re-proposed over it, and
/// the same scenario replays green; drop `Entry::certificate` and it fails.
#[test]
fn lost_certificate_fixture_replays_green_when_certificates_outlive_reproposals() {
    let (scenario, recorded) =
        simcheck::artifact::read_artifact(&fixture("secure_lost_certificate_0xb0.json")).unwrap();
    assert!(
        matches!(&recorded[..], [v] if v.starts_with("[agreement]")),
        "the artifact records what the forgotten certificate did: {recorded:?}"
    );
    let out = run_scenario(&scenario);
    assert!(out.passed(), "fixture regressed: {:?}", out.violations);
}

/// `segway 0x6a3`, shrunk: two domains under 3.1 % message loss. The lowest
/// controller of the event's domain missed the switch's copy of an event and
/// never delivered it, so it neither forwarded it at receipt nor at delivery
/// — and it was the only controller that ever re-forwarded. The other domain
/// never heard of the event, and the updates gated on it stayed parked: the
/// `[liveness]` violation the artifact records. Every controller whose
/// schedule waits on another domain now re-forwards, and the same scenario
/// replays green.
#[test]
fn lost_forward_fixture_replays_green_when_every_waiting_controller_reforwards() {
    let (scenario, recorded) =
        simcheck::artifact::read_artifact(&fixture("segway_lost_forward_0x6a3.json")).unwrap();
    assert!(
        matches!(&recorded[..], [v] if v.starts_with("[liveness]")),
        "the artifact records what the lost forward did: {recorded:?}"
    );
    let out = run_scenario(&scenario);
    assert!(out.passed(), "fixture regressed: {:?}", out.violations);
    assert!(out.report.stats.forward_retransmits > 0, "a re-forward carried it");
}
