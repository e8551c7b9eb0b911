//! The bounded fuzzing smoke: a deterministic slice of the scenario space
//! on every CI run, plus meta-tests that the fuzzer itself works — the
//! generator is diverse and deterministic, an injected consistency
//! regression is caught, shrunk to a ≤ 3-flow reproducer, and the replay
//! artifact fails identically across runs.

use simcheck::artifact::{read_artifact, render_artifact, replay_command, write_artifact};
use simcheck::{check_scenario, run_scenario, FlowPlan, Scenario, SchedTag};
use substrate::forall;

/// The headline sweep: 128 seeded scenarios (topologies, modes, domain
/// splits, workloads, drops, duplicates, partitions, crashes, Byzantine
/// shares), every one judged by every oracle. `CHECK_SEED=<seed>` replays
/// a single failing case; the panic message also carries a ready-to-run
/// artifact replay command.
#[test]
fn fuzz_sweep_upholds_all_invariants() {
    forall!(cases = 128, |g| {
        let seed = g.u64();
        if let Some(failure) = simcheck::check_seed(seed) {
            let path = std::env::temp_dir().join(format!("simcheck-{seed:#x}.json"));
            let _ = write_artifact(&path, &failure.shrunk, &failure.violations);
            panic!(
                "seed {seed:#x}: {} violation(s); shrunk reproducer written.\n  first: {}\n  replay: {}",
                failure.violations.len(),
                failure.violations[0],
                replay_command(&path),
            );
        }
    });
}

/// The focused crash-recovery slice: every seed is forced into a benign
/// scenario with exactly one crash-and-restart fault, so the recovery
/// oracle's completion half (the restarted controller must finish its
/// state sync) is exercised on every single run — the headline sweep only
/// samples it probabilistically. The full 256-seed version runs as
/// `simcheck recover` in `scripts/verify.sh`.
#[test]
fn recovery_sweep_upholds_all_invariants() {
    forall!(cases = 48, |g| {
        let seed = g.u64();
        let s = Scenario::generate_recovery(seed);
        assert!(s.benign(), "generate_recovery must stay benign");
        if let Some(failure) = check_scenario(s) {
            let path = std::env::temp_dir().join(format!("simcheck-recover-{seed:#x}.json"));
            let _ = write_artifact(&path, &failure.shrunk, &failure.violations);
            panic!(
                "recovery seed {seed:#x}: {} violation(s).\n  first: {}\n  replay: {}",
                failure.violations.len(),
                failure.violations[0],
                replay_command(&path),
            );
        }
    });
}

/// The generator must actually explore the space: ≥ 100 structurally
/// distinct scenarios (seed field excluded) out of 128 consecutive seeds.
#[test]
fn generator_is_diverse() {
    let mut shapes = std::collections::BTreeSet::new();
    for seed in 0..128u64 {
        let mut s = Scenario::generate(seed);
        s.seed = 0; // compare structure, not the trivially distinct seed
        shapes.insert(s.to_json().to_string());
    }
    assert!(
        shapes.len() >= 100,
        "only {} distinct scenario shapes in 128 seeds",
        shapes.len()
    );
}

/// Generation and execution are pure functions of the seed.
#[test]
fn generation_and_run_are_deterministic() {
    let s1 = Scenario::generate(42);
    let s2 = Scenario::generate(42);
    assert_eq!(s1, s2);
    let o1 = run_scenario(&s1);
    let o2 = run_scenario(&s1);
    assert_eq!(o1.violations, o2.violations);
    assert_eq!(o1.report.end, o2.report.end);
    assert_eq!(o1.report.resolved_flows, o2.report.resolved_flows);
}

/// Scenarios round-trip through the replay-artifact JSON bit-identically,
/// including a seed above 2^53 (where a float field would corrupt it).
#[test]
fn artifact_round_trips() {
    let mut s = Scenario::generate(7);
    s.seed = 0xDEAD_BEEF_CAFE_F00D;
    // Cover the crash-recover arm (and its bool-as-0/1 encoding) even if
    // seed 7 happens not to sample one.
    s.faults.push(simcheck::Fault::CrashRecoverController {
        domain: 1,
        controller: 3,
        at_ms: 120,
        after_ms: 340,
        disk_lost: true,
    });
    let doc = substrate::ser::JsonValue::parse(&render_artifact(&s, &[]))
        .expect("artifact parses");
    let back = Scenario::from_json(doc.get("scenario").unwrap()).expect("scenario parses");
    assert_eq!(s, back);
}

/// The classic regression the fuzzer exists to catch: an update scheduler
/// whose dependency ordering has been removed (`Unordered` *is* the
/// reverse-path scheduler with its ordering check deleted). The oracles
/// must flag it, the shrinker must cut it to ≤ 3 flows, and the shrunk
/// artifact must fail identically on two independent replays.
#[test]
fn injected_scheduler_regression_is_caught_and_shrunk() {
    let mut s = Scenario::generate(11);
    // Cross-rack flows over a 2-rack fabric: multi-switch paths whose
    // unordered installs expose a transient black hole.
    s.racks = 2;
    s.edges = 1;
    s.hosts_per_rack = 2;
    s.domains = 1;
    s.mode = cicero_core::Mode::CICERO;
    s.controllers_per_domain = 4;
    s.scheduler = SchedTag::Unordered;
    s.denied.clear();
    s.faults.clear();
    s.flows = (0..6)
        .map(|i| FlowPlan {
            src: i,
            dst: i + 2,
            bytes: 1000,
            start_ms: i as u64 * 5,
        })
        .collect();

    let failure = check_scenario(s).expect("the unordered scheduler must violate consistency");
    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.oracle == "consistency"),
        "expected a consistency violation, got {:?}",
        failure.violations
    );
    assert!(
        failure.shrunk.flows.len() <= 3,
        "shrinker left {} flows",
        failure.shrunk.flows.len()
    );

    // The artifact replays deterministically: two fresh runs of the
    // reproducer read back from disk yield the identical violations.
    let path = std::env::temp_dir().join("simcheck-regression-test.json");
    write_artifact(&path, &failure.shrunk, &failure.violations).unwrap();
    let (replayed, _) = read_artifact(&path).unwrap();
    assert_eq!(replayed, failure.shrunk);
    let r1 = run_scenario(&replayed);
    let r2 = run_scenario(&replayed);
    assert!(!r1.violations.is_empty(), "replay must still fail");
    assert_eq!(r1.violations, r2.violations);
    let _ = std::fs::remove_file(&path);
}

/// The fuzzer's rogue share must reach the bucket its fault is about: built
/// under the run's tree hash (modeled crypto here), its member passes the
/// victim's check against its set's root, opens a bucket below quorum — so
/// the victim NACKs it — and is never applied. Refused at the door, the
/// `secure` sweep would lose its below-quorum case without a word.
#[test]
fn a_rogue_share_opens_a_bucket_at_modeled_crypto_and_never_applies() {
    use cicero_core::obs::Obs;
    let mut s = Scenario::generate(3);
    s.mode = cicero_core::Mode::CICERO;
    s.controllers_per_domain = 4;
    s.faults = vec![simcheck::Fault::RogueShares { controller: 1, victim: 0, at_ms: 5 }];
    let rogue = simcheck::scenario::rogue_update_id(0);
    let (out, obs) = simcheck::run_scenario_traced(&s);
    let count = |f: fn(&Obs) -> Option<southbound::types::UpdateId>| {
        obs.iter().filter(|o| f(&o.value) == Some(rogue)).count()
    };
    let nacked = count(|o| match o { Obs::NackSent { update, .. } => Some(*update), _ => None });
    let rejected = count(|o| match o { Obs::UpdateRejected { update, .. } => Some(*update), _ => None });
    let applied = count(|o| match o { Obs::UpdateApplied { update, .. } => Some(*update), _ => None });
    assert!(nacked > 0, "the rogue share opened a bucket");
    assert_eq!((rejected, applied), (0, 0), "neither refused at the door nor applied");
    assert!(out.passed(), "{:?}", out.violations);
}

/// The same rogue share under controller aggregation goes where shares are
/// collected there, the domain's aggregator: it opens a bucket that never
/// reaches a quorum, so nothing is relayed, refused or applied.
#[test]
fn a_rogue_share_opens_an_aggregator_bucket_at_modeled_crypto_and_never_applies() {
    use cicero_core::obs::Obs;
    use southbound::types::ControllerId;
    let mut s = Scenario::generate(3);
    s.mode = cicero_core::Mode::CICERO_AGG;
    s.controllers_per_domain = 4;
    s.faults = vec![simcheck::Fault::RogueShares { controller: 1, victim: 0, at_ms: 5 }];
    let rogue = simcheck::scenario::rogue_update_id(0);
    let (out, mut engine) = simcheck::run_scenario_engine(&s);
    let count = |f: fn(&Obs) -> Option<southbound::types::UpdateId>| {
        engine.observations().iter().filter(|o| f(&o.value) == Some(rogue)).count()
    };
    let rejected = count(|o| match o { Obs::UpdateRejected { update, .. } => Some(*update), _ => None });
    let applied = count(|o| match o { Obs::UpdateApplied { update, .. } => Some(*update), _ => None });
    assert_eq!((rejected, applied), (0, 0), "neither refused at the door nor applied");
    let bucketed = s.domain_ids(&engine).into_iter().any(|d| {
        let agg = engine.with_controller(d, ControllerId(1), |c| c.view().aggregator());
        engine.with_controller(d, agg, |c| c.aggregating().waiting().any(|set| set.event == rogue.event))
    });
    assert!(bucketed, "the rogue share waits in an aggregator's bucket");
    assert!(out.passed(), "{:?}", out.violations);
}
