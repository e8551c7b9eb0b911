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

/// Runs the cross-file pass over a planted mini-workspace.
fn lint_set(files: &[(&str, &str)]) -> Vec<detlint::Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    detlint::lint_files(&owned)
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
    // An allow above the send (where an actor-blocking finding anchors)
    // must suppress the finding — and must not read as stale.
    let findings = lint_set(&[(
        "crates/cicero-node/src/node.rs",
        "pub fn pump(&self) {\n\
         \x20   let g = self.state.lock();\n\
         \x20   // detlint::allow(actor-blocking): planted for the meta-test\n\
         \x20   self.tx.try_send(g.n);\n\
         }\n",
    )]);
    assert!(
        findings.is_empty(),
        "an allow at the anchor must suppress the flow finding without \
         going stale: {findings:?}"
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
