//! Tier-1 enforcement of the detlint rule set: `cargo test` fails if any
//! workspace source violates a determinism or protocol-safety rule, exactly
//! like the standalone `detlint` binary in `scripts/verify.sh`.

use std::path::Path;

#[test]
fn workspace_is_detlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = detlint::lint_workspace(root);
    assert!(
        findings.is_empty(),
        "detlint found {} violation(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn a_planted_violation_would_be_caught() {
    // Guards against the lint going vacuously green (bad scoping, broken
    // lexer): the exact bug class the rule exists for must still trip it.
    for (planted, std_type) in [
        ("pub struct Tbl { m: HashMap<u32, u32> }\n", "BTreeMap"),
        ("pub struct Seen { s: HashSet<u32> }\n", "BTreeSet"),
    ] {
        let findings = detlint::lint_source("crates/netmodel/src/planted.rs", planted);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "no-random-order-collections" && f.hint.contains(std_type)),
            "planted hash collection in a deterministic crate was not flagged: {findings:?}"
        );
    }
}

#[test]
fn wall_clock_allowance_is_scoped_to_the_clock_boundary() {
    // The threaded runtime's wall-clock allowance covers exactly one
    // module. An `Instant` planted anywhere else in cicero-node — the
    // executor included — must still fail the lint...
    let planted = "use std::time::Instant;\n\
                   pub fn sneak() -> Instant { Instant::now() }\n";
    let findings = detlint::lint_source("crates/cicero-node/src/exec.rs", planted);
    assert!(
        findings.iter().any(|f| f.rule == "no-wall-clock"),
        "planted Instant outside the clock boundary was not flagged: {findings:?}"
    );

    // ...while the boundary module itself is allowed to read the clock.
    let findings = detlint::lint_source("crates/cicero-node/src/clock.rs", planted);
    assert!(
        findings.is_empty(),
        "the clock boundary module must be wall-clock-allowed: {findings:?}"
    );
}

#[test]
fn crypto_mode_branching_is_confined_to_the_authentication_seam() {
    // A hand-rolled "real signature or placeholder" decision planted in an
    // actor — what every sign/verify site used to carry — must fail...
    let planted = "pub fn sign(&self) -> Signature {\n\
                       if self.shared.real_crypto() { self.key.sign(b\"m\") }\n\
                       else { self.shared.keys.dummy }\n\
                   }\n";
    for actor in [
        "crates/cicero-core/src/switch.rs",
        "crates/cicero-core/src/ctrl/barriers.rs",
        "crates/cicero-core/src/ctrl/membership.rs",
    ] {
        let hits = detlint::lint_source(actor, planted)
            .iter()
            .filter(|f| f.rule == "crypto-mode-boundary")
            .count();
        assert_eq!(hits, 2, "both planted tokens flagged in {actor}");
    }
    // ...while the seam itself, which re-keys a membership change too, may
    // decide.
    let findings = detlint::lint_source("crates/cicero-core/src/auth.rs", planted);
    assert!(
        findings.iter().all(|f| f.rule != "crypto-mode-boundary"),
        "the seam is inside the boundary: {findings:?}"
    );
}

/// Runs the cross-file pass over a planted mini-workspace.
fn lint_set(files: &[(&str, &str)]) -> Vec<detlint::Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    detlint::lint_files(&owned)
}

#[test]
fn an_unhandled_net_variant_would_be_caught() {
    // A message that can be constructed but that no handler matches is dead
    // on arrival; the coverage rule must anchor the finding at the variant
    // declaration (where an allow belongs), not the construction site.
    let findings = lint_set(&[
        (
            "crates/cicero-core/src/msg.rs",
            "pub enum Net {\n    Ping(u32),\n    Pong(u32),\n}\n",
        ),
        (
            "crates/cicero-core/src/ctrl/delivery.rs",
            "pub fn emit(ctx: &mut Ctx) {\n\
             \x20   ctx.send(1, Net::Ping(1));\n\
             \x20   ctx.send(2, Net::Pong(2));\n\
             }\n\
             pub fn on_msg(m: Net) {\n\
             \x20   match m {\n\
             \x20       Net::Ping(x) => act(x),\n\
             \x20       _ => {}\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "net-variant-unhandled")
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "exactly the unhandled variant must be flagged: {findings:?}"
    );
    assert!(
        hits[0].file.ends_with("msg.rs") && hits[0].message.contains("Pong"),
        "finding must anchor at Pong's declaration: {:?}",
        hits[0]
    );
}

#[test]
fn an_unaudited_obs_variant_would_be_caught() {
    // An observation the oracles never look at is a figure nobody checks;
    // consumption counts through functions transitively called from the
    // oracle registry, so `audit` below covers `Seen` but not `Missed`.
    let findings = lint_set(&[
        (
            "crates/cicero-core/src/obs.rs",
            "pub enum Obs {\n    Seen { n: u32 },\n    Missed { n: u32 },\n}\n",
        ),
        (
            "crates/cicero-core/src/switch.rs",
            "pub fn tick(ctx: &mut Ctx) {\n\
             \x20   ctx.observe(Obs::Seen { n: 1 });\n\
             \x20   ctx.observe(Obs::Missed { n: 2 });\n\
             }\n",
        ),
        (
            "crates/simcheck/src/oracle.rs",
            "pub fn check_all(o: &Obs, out: &mut Vec<u32>) {\n\
             \x20   audit(o, out);\n\
             }\n\
             fn audit(o: &Obs, out: &mut Vec<u32>) {\n\
             \x20   if let Obs::Seen { n } = o {\n\
             \x20       out.push(*n);\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "obs-variant-unaudited")
        .collect();
    assert_eq!(hits.len(), 1, "only Missed is unaudited: {findings:?}");
    assert!(
        hits[0].file.ends_with("obs.rs") && hits[0].message.contains("Missed"),
        "finding must anchor at Missed's declaration: {:?}",
        hits[0]
    );
}

#[test]
fn an_unreplayed_wal_variant_would_be_caught() {
    // A logged fact with no replay arm is silently lost on restart.
    let findings = lint_set(&[
        (
            "crates/cicero-core/src/wal.rs",
            "pub enum WalRecord {\n    Applied { u: u32 },\n    Signer { s: u32 },\n}\n",
        ),
        (
            "crates/cicero-core/src/ctrl/durable.rs",
            "pub fn persist(ctx: &mut Ctx) {\n\
             \x20   ctx.log_record(&WalRecord::Applied { u: 1 });\n\
             \x20   ctx.log_record(&WalRecord::Signer { s: 2 });\n\
             }\n\
             pub fn replay(r: WalRecord) {\n\
             \x20   match r {\n\
             \x20       WalRecord::Applied { u } => apply(u),\n\
             \x20       _ => {}\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "wal-variant-unreplayed")
        .collect();
    assert_eq!(hits.len(), 1, "only Signer lacks a replay arm: {findings:?}");
    assert!(
        hits[0].message.contains("Signer"),
        "finding must name the unreplayed variant: {:?}",
        hits[0]
    );
}

#[test]
fn a_wal_variant_with_a_declared_codec_still_needs_a_replay_arm() {
    // The record's codec is a `wire_enum!` line, which names no
    // `WalRecord::Variant` path: what makes a variant "appended" is the
    // real append in ctrl/, and that must keep the rule firing.
    let findings = lint_set(&[
        (
            "crates/cicero-core/src/msg.rs",
            "pub enum WalRecord {\n    Acked(u32),\n    PhaseEntered(u64),\n}\n\
             wire_enum!(WalRecord { 0 => Acked(update), 1 => PhaseEntered(phase) });\n",
        ),
        (
            "crates/cicero-core/src/ctrl/membership.rs",
            "pub fn finish(ctx: &mut Ctx) {\n\
             \x20   ctx.log_record(&WalRecord::PhaseEntered(2));\n\
             }\n",
        ),
        (
            "crates/cicero-core/src/ctrl/durable.rs",
            "pub fn replay(r: WalRecord) {\n\
             \x20   match r {\n\
             \x20       WalRecord::Acked(u) => ack(u),\n\
             \x20       _ => {}\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    let hits: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "wal-variant-unreplayed")
        .collect();
    assert_eq!(hits.len(), 1, "only PhaseEntered is appended and unreplayed: {findings:?}");
    assert!(hits[0].message.contains("PhaseEntered"), "{:?}", hits[0]);
    assert!(hits[0].file.ends_with("msg.rs"), "anchored at the declaration: {:?}", hits[0]);
}

#[test]
fn an_ack_sent_before_its_wal_append_would_be_caught() {
    // The receipt stops the peer retransmitting; crashing after the send
    // but before the append forgets the fact with no recovery path left.
    // One-level inlining: `note` counts as an appender because it calls
    // `log_record`.
    let bad = "pub fn on_report(ctx: &mut Ctx, node: u32, m: Msg) {\n\
               \x20   ctx.send(node, Net::AckMsg(m.id));\n\
               \x20   note(ctx, m);\n\
               }\n\
               fn note(ctx: &mut Ctx, m: Msg) {\n\
               \x20   ctx.log_record(&m);\n\
               }\n";
    let findings = lint_set(&[("crates/cicero-core/src/ctrl/barriers.rs", bad)]);
    assert!(
        findings.iter().any(|f| f.rule == "write-ahead-ordering"),
        "ack before append was not flagged: {findings:?}"
    );

    // Append-then-send is the lawful order and must pass.
    let good = "pub fn on_report(ctx: &mut Ctx, node: u32, m: Msg) {\n\
                \x20   note(ctx, m);\n\
                \x20   ctx.send(node, Net::AckMsg(m.id));\n\
                }\n\
                fn note(ctx: &mut Ctx, m: Msg) {\n\
                \x20   ctx.log_record(&m);\n\
                }\n";
    let findings = lint_set(&[("crates/cicero-core/src/ctrl/barriers.rs", good)]);
    assert!(
        !findings.iter().any(|f| f.rule == "write-ahead-ordering"),
        "append-before-ack is the lawful order: {findings:?}"
    );
}

#[test]
fn a_blocking_call_in_an_actor_handler_would_be_caught() {
    // A handler that blocks on its own mailbox deadlocks the actor.
    let findings = lint_set(&[(
        "crates/cicero-node/src/node.rs",
        "pub fn on_mail(&mut self) {\n\
         \x20   let m = self.rx.recv();\n\
         \x20   self.apply(m);\n\
         }\n",
    )]);
    assert!(
        findings.iter().any(|f| f.rule == "actor-blocking"),
        "blocking recv in a handler was not flagged: {findings:?}"
    );

    // A channel send while a lock guard is live can park holding the lock.
    let findings = lint_set(&[(
        "crates/cicero-node/src/node.rs",
        "pub fn pump(&self) {\n\
         \x20   let g = self.state.lock();\n\
         \x20   self.tx.try_send(g.n);\n\
         }\n",
    )]);
    assert!(
        findings.iter().any(|f| f.rule == "actor-blocking"),
        "try_send under a live lock guard was not flagged: {findings:?}"
    );

    // Scoping the guard into its own block releases it first: clean.
    let findings = lint_set(&[(
        "crates/cicero-node/src/node.rs",
        "pub fn pump(&self) {\n\
         \x20   let n = { let g = self.state.lock(); g.n };\n\
         \x20   self.tx.try_send(n);\n\
         }\n",
    )]);
    assert!(
        !findings.iter().any(|f| f.rule == "actor-blocking"),
        "a block-scoped guard released before the send is lawful: {findings:?}"
    );
}

#[test]
fn a_lock_order_cycle_would_be_caught() {
    let findings = lint_set(&[(
        "crates/cicero-node/src/locks.rs",
        "pub fn fwd(&self) {\n\
         \x20   let a = self.alpha.lock();\n\
         \x20   let b = self.beta.lock();\n\
         \x20   consume(a, b);\n\
         }\n\
         pub fn rev(&self) {\n\
         \x20   let b = self.beta.lock();\n\
         \x20   let a = self.alpha.lock();\n\
         \x20   consume(a, b);\n\
         }\n",
    )]);
    assert!(
        findings.iter().any(|f| f.rule == "lock-order-cycle"),
        "opposite acquisition orders were not flagged: {findings:?}"
    );

    // A consistent global order is cycle-free and must pass.
    let findings = lint_set(&[(
        "crates/cicero-node/src/locks.rs",
        "pub fn fwd(&self) {\n\
         \x20   let a = self.alpha.lock();\n\
         \x20   let b = self.beta.lock();\n\
         \x20   consume(a, b);\n\
         }\n\
         pub fn fwd2(&self) {\n\
         \x20   let a = self.alpha.lock();\n\
         \x20   let b = self.beta.lock();\n\
         \x20   consume(b, a);\n\
         }\n",
    )]);
    assert!(
        !findings.iter().any(|f| f.rule == "lock-order-cycle"),
        "a consistent acquisition order is lawful: {findings:?}"
    );
}

#[test]
fn flow_rule_findings_honor_the_allow_escape_hatch() {
    // An allow at the variant declaration (where coverage findings anchor)
    // must suppress the finding — and must not read as stale.
    let findings = lint_set(&[
        (
            "crates/cicero-core/src/msg.rs",
            "pub enum Net {\n\
             \x20   Ping(u32),\n\
             \x20   // detlint::allow(net-variant-unhandled): planted for the meta-test\n\
             \x20   Pong(u32),\n\
             }\n",
        ),
        (
            "crates/cicero-core/src/ctrl/delivery.rs",
            "pub fn emit(ctx: &mut Ctx) {\n\
             \x20   ctx.send(1, Net::Ping(1));\n\
             \x20   ctx.send(2, Net::Pong(2));\n\
             }\n\
             pub fn on_msg(m: Net) {\n\
             \x20   match m {\n\
             \x20       Net::Ping(x) => act(x),\n\
             \x20       _ => {}\n\
             \x20   }\n\
             }\n",
        ),
    ]);
    assert!(
        findings.is_empty(),
        "an allow at the anchor declaration must suppress the flow finding \
         without going stale: {findings:?}"
    );
}

#[test]
fn controller_module_split_stays_on_the_hot_path() {
    // The ctrl/ directory inherited ctrl.rs's panic-policy scope when the
    // controller was split into modules; a bare unwrap in any of them must
    // still be flagged.
    let planted = "pub fn hot(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = detlint::lint_source("crates/cicero-core/src/ctrl/barriers.rs", planted);
    assert!(
        findings.iter().any(|f| f.rule == "panic-policy"),
        "planted unwrap in a ctrl/ module was not flagged: {findings:?}"
    );
}
