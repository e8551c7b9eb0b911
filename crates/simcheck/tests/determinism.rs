//! The seed-replay contract, asserted in-process: running the same sampled
//! scenario twice must produce the exact same observation trace and the
//! exact same outcome. This is the regression test behind the whole
//! `CHECK_SEED` replay story (and behind the `HashMap`/`HashSet` ban in
//! the root `clippy.toml` — a single `HashMap` iteration in a
//! deterministic crate is precisely the kind of bug that makes this test
//! flake across processes while passing within one).
//!
//! # Golden trace hashes
//!
//! The second half pins the FNV-1a hash of the full `Obs` trace of a fixed
//! set of runs, so "behaviour-identical" is a test a refactor passes or
//! fails, not a claim proven with scratch builds. The constants were
//! computed at commit 5b99427 (PR 13). **A hash may only be edited by a PR
//! that names the behaviour it changed** (which messages, timers or
//! observations now differ, and why); a refactor that trips one has changed
//! behaviour and must find out where.
//!
//! PR 20 re-recorded the seven two-domain, controller-ordered scenarios
//! (`run` 0, `secure` 1 and 9, `recover` 0, 4, 7 and 9): the handshake no
//! longer sends signed boundary-release receipts (message set, `msg_id`s
//! and per-message RNG draws differ), a lost share is fetched by an
//! unsigned query with an observation of its own (both gone since PR 25),
//! and the barrier clock runs on `retry_base`. Every single-domain, Segway
//! and `GOLDEN_ENGINE` hash passed unedited.
//!
//! PR 21 re-recorded exactly the rows whose scenario runs `Mode::Segway`
//! (`run` 9, all five `segway` seeds, both `GOLDEN_ENGINE` Segway hashes):
//! a switch no longer answers a ready with a signed receipt, so the
//! receipt messages, their `msg_id`s, their per-message RNG draws
//! and the sign + verify CPU they charged are gone, and no ready is re-sent
//! unasked; the switch parked on a closed gate asks instead
//! (`SegwayReadyQuery`, new `Obs::ReadyQueried`), and `ReadyRetransmitted`
//! now numbers the answers. Every other hash passed unedited — which also
//! shows that folding the two event-retry settings away changed no
//! value.
//!
//! PR 22 re-recorded every row whose run is in a signed mode (`run` 0 and
//! 9, all of `secure`, `recover` and `segway`, the Cicero, Cicero-Agg and
//! Segway rows of `GOLDEN_ENGINE`): acks and NACKs carry a per-recipient
//! HMAC tag instead of one BLS signature, so per acknowledged hop the switch
//! is charged 4 × `mac` instead of one BLS sign (200 µs) and the updates an
//! ack releases leave `mac` instead of `bls_verify` (450 µs) later; and a
//! retransmitted or NACK-answered update re-sends the share signed for its
//! first send (same `msg_id`), charging no `update_sign` CPU or latency
//! again. The messages sent and the `msg_id` of an ack (one per body, as
//! before) are what they were, and where authentication is free nothing
//! moved: the seven unsigned-mode rows (`run` 2, 6 and 42; `Centralized` and
//! `CrashTolerant` in `GOLDEN_ENGINE`) passed unedited.
//!
//! PR 23 (its quorum commit; the executor / report refactor before it passed
//! every hash unedited) re-recorded exactly the six rows whose scenario has
//! five or six controllers per domain (`run` 0, `secure` 1, `recover` 0 and
//! 4, `segway` 0 and 3): `BftConfig::quorum` went from `2f + 1` to
//! `⌈(n + f + 1) / 2⌉`, which is 4 instead of 3 at n = 5 and 6, so a slot
//! there prepares and commits on one more vote and everything downstream of
//! a delivery happens a message later. At n = 1, 4 and 7 the two formulas
//! agree: the other fourteen rows and all of `GOLDEN_ENGINE` (n = 4) passed
//! unedited.
//!
//! PR 24 (its early-ack commit; the executor change before it runs no
//! simulator code and passed every hash unedited) re-recorded the twelve
//! rows in which an ack reaches a controller ahead of the update it names —
//! all of them runs with loss, a severed uplink or a restarted controller
//! (`run` 9 and 42, `secure` 1, 6 and 9, all five `recover` seeds, the lossy
//! Cicero and Cicero-Agg hashes of `GOLDEN_ENGINE`). Such an update used to
//! be sent anyway, later, and retired by the re-ack its retransmission drew;
//! now it is never sent.
//! Two cases: the controller has not scheduled the update yet (`run` 9,
//! `secure` 9, `recover` 9 move on this alone) — the ack is parked with its
//! sender and, if that is the update's own switch, honoured at admission;
//! or the update is still waiting on dependencies there, typically because
//! the dependency's ack was lost or, after a restart, because the snapshot
//! replays the ack archive in id order — the ack retires it where it waits.
//! The `UpdateRetransmitted` / `AckRetransmitted` pairs those updates drew
//! are gone, and with them the messages' RNG draws. Where no ack overtook
//! anything, nothing moved: the five loss-free `GOLDEN_ENGINE` hashes, its
//! lossy Centralized, CrashTolerant and Segway ones, `run` 0, 2 and 6,
//! `secure` 2 and 42, and all of `segway` (nothing waits at a Segway
//! controller) passed unedited.
//!
//! PR 24's PBFT commit re-recorded `run` 9 alone: a replica keeps its
//! highest-view prepared certificate per slot when a later view re-proposes
//! the slot and fails to prepare it, so its next `ViewChange` vote carries a
//! certificate the old code had forgotten (the hole `secure 0xb0` fell into
//! once the early-ack commit had moved its timing; see
//! `fixtures/secure_lost_certificate_0xb0.json`). No other golden run votes
//! for a view change while holding such a certificate.
//!
//! PR 25 re-recorded the four rows whose cross-domain recovery ran: `run` 9
//! (Segway) and `secure` 1 and 9 and `recover` 9 (Cicero-Agg), all two-domain
//! runs under 7–14 % loss, three of them with a controller restarted. A
//! controller still waiting on another domain no longer asks with a query
//! on a per-barrier clock while only the lowest re-forwards (under Segway:
//! the lowest alone, from its update-retry wave, re-signing each time); every
//! waiting controller re-sends its own forward of the event, signed once,
//! and a reporter answers that re-forward with its kept share. The messages,
//! their `msg_id`s and RNG draws, and the sign CPU charged differ from the
//! first re-send on. Nothing moved where nothing was re-sent: the other
//! sixteen rows, and all of `GOLDEN_ENGINE` (single-domain: no schedule
//! there waits on another domain).
//!
//! PR 26 re-recorded the seven two-domain, controller-ordered rows (`run` 0,
//! `secure` 1 and 9, `recover` 0, 4, 7 and 9): a segment report is one body
//! tagged once per upstream controller (`mac` CPU per copy) instead of one
//! threshold share (one BLS sign of CPU), and an upstream controller checks
//! each report's tag as it arrives (`mac` latency on the release, each
//! verified sender logged at once) instead of aggregating and verifying a
//! quorum of shares (`quorum_check` latency, the quorum logged together).
//! The messages sent and their `msg_id`s are what they were. Every
//! single-domain, Segway and unsigned-mode row, and all of `GOLDEN_ENGINE`
//! (single-domain: no segment is ever reported there), passed unedited.
//!
//! Tagging the Segway readies re-recorded exactly the eight rows that run
//! `Mode::Segway` (`run` 9, all five `segway` seeds, both `GOLDEN_ENGINE`
//! Segway hashes): a release is tagged for its one reader (`mac` CPU at the
//! releaser instead of a BLS sign) and the released switch checks the tag
//! (`mac` CPU instead of `bls_verify`), so every gated apply downstream of a
//! ready happens earlier; a duplicate of an accepted ready is dropped
//! unchecked. The messages sent and their `msg_id`s are what they were.
//! Every other row passed unedited.
//!
//! A resubmitted PBFT request re-sends its `Forward` (`bft::Replica::submit`:
//! a replica submitting again a request it submitted itself and has not
//! delivered broadcasts the `Forward` again, and a primary re-proposes it)
//! re-recorded the seven rows where a controller resubmits: a duplicated or
//! retransmitted event reaches it twice before delivery (`run` 0 and 9,
//! `secure` 6 and 9, `recover` 9, `segway` 0 and 6 — every one a run with
//! duplication or loss). The extra `Consensus` messages and their RNG draws
//! move everything after them. Where no event arrives twice nothing moved:
//! the other thirteen rows and all of `GOLDEN_ENGINE`, whose five loss-free
//! hashes include every mode.
//!
//! Tagging switch events and controller forwards re-recorded every row whose
//! run is in a signed mode — seventeen scenario rows (`run` 0 and 9, all of
//! `secure`, `recover` and `segway`) and the six Cicero, Cicero-Agg and
//! Segway hashes of `GOLDEN_ENGINE`: a switch tags its event once per
//! controller it goes to (`mac` CPU per copy) instead of signing it once (200
//! µs), a controller checks the tag for `mac` instead of a signature, so the
//! updates an event releases leave `event_pipeline` after delivery rather than
//! `event_pipeline + bls_verify`, and a forward is tagged for its reader (`mac`
//! CPU) instead of signed. The messages sent and their `msg_id`s are what
//! they were. Where authentication is free nothing moved: the seven
//! unsigned-mode rows (`run` 2, 6 and 42; `Centralized` and `CrashTolerant`
//! in `GOLDEN_ENGINE`) passed unedited.
//!
//! Signing at admission and releasing by tag re-recorded every
//! controller-ordered signed row — eleven scenario rows (`run` 0, all of
//! `secure` and `recover`) and the four Cicero and Cicero-Agg hashes of
//! `GOLDEN_ENGINE`: a controller share-signs every update of an event when
//! it admits it (`update_sign` CPU and latency at admission, not when the
//! dependency's ack arrives), a switch verifies a held body on arrival and
//! parks it, and each controller whose dependencies drained sends a tagged
//! `Net::UpdateRelease` (`mac` CPU; the switch applies on `⌊(n−1)/3⌋+1` of
//! them, `mac` CPU each). New messages, `msg_id`s and observations
//! (`UpdateHeld`, `AckAccepted`, `ReleaseSent`) move everything after the
//! first admission. Segway and the unsigned baselines send an update when
//! it is released, as before: `run` 2, 6, 9 and 42, all of `segway` and
//! the Centralized, CrashTolerant and Segway hashes passed unedited.
//!
//! Arming the consensus tick on demand re-recorded exactly the six rows in
//! which a PBFT view-change timeout fires (a lost `PrePrepare` or `Forward`,
//! or a crashed primary): `run` 9, `secure` 1 and 9, `recover` 4 and 9, and
//! the lossy Cicero-Agg hash of `GOLDEN_ENGINE`. A controller's `TICK` used
//! to fire every 5 ms from start, so a replica's timeout counted from the
//! next slot of that grid; now the tick is armed when the replica starts
//! waiting and lapses when it stops, so the timeout counts from 5 ms after
//! the request arrived, and the view change and everything after it happen
//! up to one period later (`run` 9: an `EventDelivered` moved from 168.1 to
//! 172.9 ms; `recover` 9's state sync completes 25 µs later behind it). The
//! tick sends and observes nothing itself, so no other row moved: where no
//! view change fires, every message leaves when it did.
//!
//! Signing one share per domain-event re-recorded every row whose run is in
//! a signed mode — seventeen scenario rows (`run` 0 and 9, all of `secure`,
//! `recover` and `segway`) and the six Cicero, Cicero-Agg and Segway hashes
//! of `GOLDEN_ENGINE`: in Segway and in Cicero releasing by tag a
//! controller share-signs its domain's update set for an event once, not
//! each update, so it is charged one third of `update_sign` of CPU per set
//! instead of per update (the latency on each member's send is unchanged),
//! and the aggregator aggregates and verifies once per set (one
//! `batch_verify_per_item` per share of the set, not of each update).
//! Fewer modeled sign and aggregator charges move everything after the
//! first admission. The messages sent are what they were; their `msg_id`s
//! are drawn one per set share. Where nothing is signed nothing moved: the
//! seven unsigned-mode rows (`run` 2, 6 and 42; `Centralized` and
//! `CrashTolerant` in `GOLDEN_ENGINE`) passed unedited.
//!
//! One update-collection path at every crypto level re-recorded exactly the
//! five rows in which a Cicero-Agg aggregator loses part of a set's shares
//! — the four lossy controller-aggregation scenarios (`secure` 1 and 9,
//! `recover` 4 and 9) and the lossy Cicero-Agg hash of `GOLDEN_ENGINE`. The
//! aggregator now collects shares per set and relays a member on
//! admission once its set is certified, where it used to wait for a quorum
//! of shares carrying that very member: a member whose other copies were
//! lost goes out on the first copy after the certificate, and a re-relay
//! is asked for by a signer already seen with that member since the
//! certificate. Modeled sets are hashed now (`TreeHash::Mix`) and checked
//! against their root, which charges nothing, so no other row moved: the
//! loss-free Cicero-Agg rows (`run` 0, `recover` 0, the modeled
//! `GOLDEN_ENGINE` hash), every switch-aggregation, Segway and unsigned row
//! passed unedited.

use cicero_core::prelude::*;
use simcheck::{run_scenario_traced, Scenario};

/// FNV-1a over the Debug rendering: a stable, dependency-free digest that
/// can be compared across runs and logged on failure.
fn stable_hash(text: &str) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, text)
}

/// Continues an FNV-1a hash `h` over `text`.
fn fnv1a(mut h: u64, text: &str) -> u64 {
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn same_seed_same_trace() {
    for seed in [1u64, 7, 42, 1337] {
        let s = Scenario::generate(seed);
        let (out_a, obs_a) = run_scenario_traced(&s);
        let (out_b, obs_b) = run_scenario_traced(&s);

        assert_eq!(
            obs_a.len(),
            obs_b.len(),
            "seed {seed}: observation counts diverged"
        );
        for (i, (a, b)) in obs_a.iter().zip(obs_b.iter()).enumerate() {
            assert_eq!(a, b, "seed {seed}: trace diverged at observation {i}");
        }

        let ha = stable_hash(&format!("{obs_a:?}"));
        let hb = stable_hash(&format!("{obs_b:?}"));
        assert_eq!(ha, hb, "seed {seed}: trace hashes diverged");

        assert_eq!(
            format!("{:?}", out_a.violations),
            format!("{:?}", out_b.violations),
            "seed {seed}: oracle verdicts diverged"
        );
        assert_eq!(
            (out_a.report.completed, out_a.report.resolved_flows, out_a.report.end),
            (out_b.report.completed, out_b.report.resolved_flows, out_b.report.end),
            "seed {seed}: run reports diverged"
        );
    }
}

/// The cross-domain handshake adds inter-domain control traffic (event
/// forwards, segment reports, share queries) with its own retry timers
/// and jitter streams — all of which must stay on the deterministic
/// substrate. A multi-domain boundary-crossing scenario run twice under
/// the same seed must yield byte-identical traces.
#[test]
fn multi_domain_handshake_trace_is_deterministic() {
    use simcheck::{FlowPlan, SchedTag};
    let s = Scenario {
        seed: 0x0D0_D15EED,
        racks: 3,
        edges: 1,
        hosts_per_rack: 2,
        domains: 3,
        mode: Mode::CICERO,
        scheduler: SchedTag::ReversePath,
        controllers_per_domain: 4,
        flows: vec![
            // Boundary-crossing both directions plus an intra-rack control.
            FlowPlan { src: 2, dst: 5, bytes: 12_000, start_ms: 3 },
            FlowPlan { src: 4, dst: 0, bytes: 8_000, start_ms: 9 },
            FlowPlan { src: 0, dst: 1, bytes: 4_000, start_ms: 15 },
        ],
        denied: vec![],
        faults: vec![],
        horizon_ms: 30_000,
    };
    let (out_a, obs_a) = run_scenario_traced(&s);
    let (out_b, obs_b) = run_scenario_traced(&s);
    assert!(out_a.passed(), "handshake scenario must pass: {:?}", out_a.violations);
    assert!(
        obs_a
            .iter()
            .any(|o| matches!(o.value, cicero_core::Obs::BoundaryReleased { .. })),
        "scenario must actually exercise the handshake"
    );
    assert_eq!(obs_a.len(), obs_b.len(), "observation counts diverged");
    let ha = stable_hash(&format!("{obs_a:?}"));
    let hb = stable_hash(&format!("{obs_b:?}"));
    assert_eq!(ha, hb, "handshake trace hashes diverged");
    assert_eq!(
        format!("{:?}", out_a.violations),
        format!("{:?}", out_b.violations),
        "oracle verdicts diverged"
    );
}

#[test]
fn regenerating_the_scenario_is_also_stable() {
    // Scenario sampling itself must be a pure function of the seed.
    for seed in [3u64, 99] {
        let a = format!("{:?}", Scenario::generate(seed));
        let b = format!("{:?}", Scenario::generate(seed));
        assert_eq!(a, b, "seed {seed}: scenario generation diverged");
    }
}

/// Golden `(seed, trace hash)` pairs per generator class. Between them:
/// every mode, single- and multi-domain fabrics (all but seeds 2, 6 and 42
/// split into two domains), loss, duplication, partitions, rogue shares and
/// readies, a switch restarted from its WAL (`segway` 2, 6), a controller
/// restarted from its own disk (`recover` 4, 7) and one restarted with its
/// disk wiped, recovering by state sync (`run` 9, `recover` 0, 9, 42).
#[allow(clippy::type_complexity, reason = "the golden table reads as one literal")]
const GOLDEN_SCENARIOS: [(&str, fn(u64) -> Scenario, [(u64, u64); 5]); 4] = [
    (
        "run",
        Scenario::generate,
        [
            (0, 0x7b3bd8d341adf68a),
            (2, 0x2e0801721cf6f9a9),
            (6, 0x5853bfc85ddecac2),
            (9, 0xf67695d32d676ccf),
            (42, 0x391fe47dad025fc0),
        ],
    ),
    (
        "secure",
        Scenario::generate_secure,
        [
            (1, 0x6c143a38bb3f2eea),
            (2, 0x501275e1fbfeebcd),
            (6, 0x43fb511947a1b9de),
            (9, 0xb88ac1fe11c2f923),
            (42, 0x58cdb396f10dbf99),
        ],
    ),
    (
        "recover",
        Scenario::generate_recovery,
        [
            (0, 0x3c6f7650c52a36ae),
            (4, 0xfe63d0ef464123af),
            (7, 0x99419b6278ba2396),
            (9, 0xe585af390b7bced3),
            (42, 0x2827ea55efc48b6b),
        ],
    ),
    (
        "segway",
        Scenario::generate_segway,
        [
            (0, 0xa1b09177ed646fe3),
            (2, 0xe040f50f71e2f91a),
            (3, 0xe69086520bbab064),
            (6, 0x2c7a7835c451bad9),
            (42, 0x16403fdb8ddc8187),
        ],
    ),
];

#[test]
fn golden_scenario_trace_hashes() {
    for (class, generate, seeds) in GOLDEN_SCENARIOS {
        for (seed, want) in seeds {
            let (_, obs) = run_scenario_traced(&generate(seed));
            let got = stable_hash(&format!("{obs:?}"));
            assert_eq!(
                got, want,
                "{class} seed {seed}: trace hash {got:#018x} != golden {want:#018x} \
                 ({} observations) - behaviour changed; see the file header",
                obs.len()
            );
        }
    }
}

/// Golden `Engine` runs outside the fuzzer: twelve Hadoop flows on a
/// four-rack pod, per mode once loss-free with modeled crypto and once
/// under 10 % uniform loss with real BLS signatures.
const GOLDEN_ENGINE: [(Mode, u64, u64); 5] = [
    (Mode::Centralized, 0x270fa4f5a109907e, 0x3502db11a5156276),
    (Mode::CrashTolerant, 0xc1113e315b73e5b7, 0xb5765e293ecdbab6),
    (
        Mode::Cicero {
            aggregation: Aggregation::Switch,
        },
        0xf0793eaf2a0c94af,
        0xac4e9e98922fd9e7,
    ),
    (
        Mode::Cicero {
            aggregation: Aggregation::Controller,
        },
        0x27243624506f2096,
        0x1f9f90f344b0f06a,
    ),
    (Mode::Segway, 0x565979ef24b86019, 0x2263b4f7b36f8d12),
];

fn engine_trace_hash(mode: Mode, crypto: CryptoMode, drop: f64) -> u64 {
    use substrate::rng::{SeedableRng, StdRng};
    let mut cfg = EngineConfig::for_mode(mode);
    cfg.crypto = crypto;
    cfg.seed = 11;
    let topo = netmodel::topology::Topology::single_pod(4, 2, 2);
    let mut spec = workload::spec::hadoop();
    spec.flows = 12;
    let flows = workload::gen::generate(&topo, &spec, &mut StdRng::seed_from_u64(11));
    let dm = controller::policy::DomainMap::single(&topo);
    let mut engine = Engine::build(cfg, topo, dm, 0);
    engine.set_faults(simnet::fault::FaultPlan::none().with_drop_probability(drop));
    engine.inject_flows(&flows);
    engine.run_reporting(SimTime::ZERO + SimDuration::from_secs(120));
    stable_hash(&format!("{:?}", engine.observations()))
}

#[test]
fn golden_engine_trace_hashes() {
    for (mode, lossless_modeled, lossy_real) in GOLDEN_ENGINE {
        for (crypto, drop, want) in [
            (CryptoMode::Modeled, 0.0, lossless_modeled),
            (CryptoMode::Real, 0.10, lossy_real),
        ] {
            let got = engine_trace_hash(mode, crypto, drop);
            assert_eq!(
                got,
                want,
                "{} {crypto:?} drop={drop}: trace hash {got:#018x} != golden {want:#018x} \
                 - behaviour changed; see the file header",
                mode.label()
            );
        }
    }
}

type Generator = fn(u64) -> Scenario;

/// FNV-1a over the `Debug` of every observation, the `RunReport` and the
/// violations of seeds `0..64` per generator class: a wider net than the
/// five golden rows, for changes to the simulator itself (event order,
/// CPU deferral, RNG draws) that must move nothing. Recorded at commit
/// 69d88fd, before the simulator's queue held keys instead of events.
const GOLDEN_SWEEP: [(&str, Generator, u64); 4] = [
    ("run", Scenario::generate, 0x9a1e1d26711dfd96),
    ("secure", Scenario::generate_secure, 0x27206dbe77e22508),
    ("recover", Scenario::generate_recovery, 0xffa37c2f33f0dd18),
    ("segway", Scenario::generate_segway, 0x9092263da480e5c7),
];

#[test]
fn golden_sweep_trace_hashes() {
    for (class, generate, want) in GOLDEN_SWEEP {
        let got = (0..64).fold(stable_hash(""), |h, seed| {
            let (out, obs) = run_scenario_traced(&generate(seed));
            fnv1a(h, &format!("{obs:?}{:?}{:?}", out.report, out.violations))
        });
        assert_eq!(
            got, want,
            "{class} seeds 0..64: sweep hash {got:#018x} != golden {want:#018x} \
             - behaviour changed; see the file header"
        );
    }
}
