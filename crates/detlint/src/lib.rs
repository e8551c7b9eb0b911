//! detlint: the workspace's in-tree determinism & protocol-safety static
//! analyzer.
//!
//! The whole verification story of this repository rests on seed replay: a
//! failing scenario's seed reproduces the exact same execution on any host.
//! That contract is easy to break silently — one `HashMap` iteration, one
//! `Instant::now()`, one `thread_rng()` — and no unit test notices until a
//! `CHECK_SEED` replay diverges months later. detlint makes those breakages
//! a compile-gate instead: it lexes every `.rs` file in the workspace
//! (comments and string literals stripped, so prose never trips a rule) and
//! matches a small set of scoped rules over the token stream.
//!
//! Rules (see [`rules`] for scopes):
//!
//! * `no-random-order-collections` — `HashMap`/`HashSet` in deterministic
//!   crates; use `std::collections::{BTreeMap, BTreeSet}`.
//! * `no-wall-clock` — `Instant`/`SystemTime`/`thread::spawn` outside the
//!   benchmark/sync allowlist.
//! * `no-os-entropy` — any OS randomness outside `substrate::rng`.
//! * `panic-policy` — bare `unwrap()`, reason-less `expect()`, and
//!   `todo!`/`unimplemented!` in protocol hot paths (non-test code).
//! * `durable-io-boundary` — file opens and fsyncs outside `cicero-node`'s
//!   disk boundary.
//!
//! A second, cross-file pass ([`flow`], over the function index built by
//! [`parse`]) checks that the threaded runtime never blocks in a handler or
//! holds a lock across a channel op (`actor-blocking`), and never orders
//! locks cyclically (`lock-order-cycle`).
//!
//! detlint keeps only what the compiler cannot prove. `unsafe` is refused
//! by the workspace lint `unsafe_code = "forbid"`; every `Net`, `Obs` and
//! `WalRecord` variant is handled because the dispatch, oracle and replay
//! matches have no catch-all arm; and a handler's sends leave only after it
//! returns, so its WAL appends come first. DESIGN.md §5 says where each
//! guarantee lives.
//!
//! Escape hatch: `// detlint::allow(rule): reason` on the offending line or
//! the line above. The reason is **mandatory** — a reason-less directive is
//! itself a finding (`malformed-allow`) and suppresses nothing. A directive
//! that suppresses nothing is also a finding (`stale-allow`), so allows
//! cannot rot in place after the code they excused is gone.
//!
//! Ships two ways: the `detlint` binary (wired into `scripts/verify.sh`) and
//! the facade test `tests/detlint.rs` (so `cargo test` — tier 1 — enforces
//! it too).

#![forbid(unsafe_code)]

pub mod flow;
pub mod lex;
pub mod parse;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use lex::{lex, Directive, Lexed, Tok, Token};
pub use rules::{Finding, RULE_IDS};

/// Lints one file's source text. `path` must be the workspace-relative path
/// with `/` separators — it determines which rule scopes apply.
///
/// Cross-file flow rules run over whatever file set is given, so on a
/// single file they only see that file. Use [`lint_files`] or
/// [`lint_workspace`] for the real analysis.
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    lint_files(&[(path.to_string(), source.to_string())])
}

/// Lints a set of files as one unit: the per-file token rules on each,
/// plus the cross-file actor-safety rules ([`flow`]) over the whole set.
/// Findings come back sorted by (file, line, rule).
///
/// Escape-hatch semantics: a `detlint::allow(rule): reason` directive
/// suppresses findings of `rule` on the directive's own line or the line
/// directly below it — including flow findings, which anchor at the
/// offending call (a send under a live guard, a blocking receive).
/// Directives without a reason, or naming an unknown rule, suppress nothing
/// and are reported as `malformed-allow`; well-formed directives that
/// suppress nothing are reported as `stale-allow`.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();

    // Per-file token rules.
    let mut buckets: Vec<Vec<Finding>> = files
        .iter()
        .zip(&lexed)
        .map(|((path, _), lx)| rules::apply_rules(path, lx))
        .collect();

    // Cross-file flow rules, routed to their anchor file's bucket so that
    // file's directives can suppress them.
    let indexes: Vec<parse::FileIndex> = files
        .iter()
        .zip(&lexed)
        .map(|((path, _), lx)| parse::index_file(path, &lx.tokens))
        .collect();
    let mut orphans = Vec::new();
    for f in flow::apply_flow_rules(&indexes) {
        match files.iter().position(|(p, _)| *p == f.file) {
            Some(i) => buckets[i].push(f),
            None => orphans.push(f),
        }
    }

    let mut findings = Vec::new();
    for (((path, _), lx), raw) in files.iter().zip(&lexed).zip(buckets) {
        suppress(path, lx, raw, &mut findings);
    }
    findings.extend(orphans);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Applies one file's `detlint::allow` directives to its findings and
/// accounts for the directives themselves (`malformed-allow`,
/// `stale-allow`).
fn suppress(path: &str, lexed: &Lexed, raw: Vec<Finding>, out: &mut Vec<Finding>) {
    let mut used = vec![false; lexed.directives.len()];
    out.extend(raw.into_iter().filter(|f| {
        let suppressed = lexed.directives.iter().enumerate().any(|(di, d)| {
            let applicable = d.reason.is_some()
                && d.rule == f.rule
                && (d.line == f.line || d.line + 1 == f.line);
            if applicable {
                used[di] = true;
            }
            applicable
        });
        !suppressed
    }));

    for (di, d) in lexed.directives.iter().enumerate() {
        if d.reason.is_none() || !RULE_IDS.contains(&d.rule.as_str()) {
            out.push(Finding {
                file: path.to_string(),
                line: d.line,
                rule: "malformed-allow",
                message: if d.reason.is_none() {
                    format!("detlint::allow({}) has no reason and suppresses nothing", d.rule)
                } else {
                    format!("detlint::allow({}) names an unknown rule", d.rule)
                },
                hint: "write `// detlint::allow(<known-rule>): <why this exception is sound>`",
            });
        } else if !used[di] {
            out.push(Finding {
                file: path.to_string(),
                line: d.line,
                rule: "stale-allow",
                message: format!(
                    "detlint::allow({}) suppresses nothing on this or the next line",
                    d.rule
                ),
                hint: "delete the directive; stale allows mask future regressions",
            });
        }
    }
}

/// Recursively collects every `.rs` file under `root`, skipping `target/`
/// and hidden directories, sorted by workspace-relative path so output (and
/// any failure) is deterministic.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                walk(&path, out);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    files
}

/// Lints every `.rs` file in the workspace rooted at `root` as one unit
/// (the flow rules see all files at once). Findings come back sorted by
/// (file, line, rule).
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for file in collect_rs_files(root) {
        let rel: String = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let Ok(source) = fs::read_to_string(&file) else {
            continue;
        };
        files.push((rel, source));
    }
    lint_files(&files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    // -- no-random-order-collections ------------------------------------

    #[test]
    fn hashmap_in_deterministic_crate_is_flagged() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }";
        let findings = lint_source("crates/netmodel/src/planted.rs", src);
        assert_eq!(
            rules_of(&findings),
            vec!["no-random-order-collections"; 2]
        );
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].hint.contains("BTreeMap"));
        let set = lint_source("crates/bft/src/planted.rs", "struct S { s: HashSet<u32> }");
        assert_eq!(rules_of(&set), vec!["no-random-order-collections"]);
        assert!(set[0].hint.contains("BTreeSet"));
    }

    #[test]
    fn hashmap_outside_deterministic_crates_is_fine() {
        let src = "use std::collections::HashMap;";
        assert!(lint_source("crates/detlint/src/x.rs", src).is_empty());
        assert!(lint_source("crates/substrate/src/x.rs", src).is_empty());
    }

    // -- no-wall-clock ---------------------------------------------------

    #[test]
    fn instant_is_flagged_outside_allowlist() {
        let src = "let t = Instant::now();";
        let findings = lint_source("crates/simnet/src/clock.rs", src);
        assert_eq!(rules_of(&findings), vec!["no-wall-clock"]);
    }

    #[test]
    fn wall_clock_allowlist_paths_pass() {
        let src = "let t = Instant::now(); std::thread::spawn(f);";
        assert!(lint_source("crates/substrate/src/benchkit.rs", src).is_empty());
        assert!(lint_source("crates/substrate/src/sync.rs", src).is_empty());
        assert!(lint_source("crates/bench/src/bin/figures.rs", src).is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged_but_thread_module_alone_is_not() {
        let flagged = lint_source("src/lib.rs", "std::thread::spawn(|| {});");
        assert_eq!(rules_of(&flagged), vec!["no-wall-clock"]);
        // `thread::sleep` etc. are not wall-clock reads per se; only spawn
        // introduces scheduler nondeterminism under this rule.
        let ok = lint_source("src/lib.rs", "thread::current();");
        assert!(ok.is_empty());
    }

    // -- no-os-entropy ---------------------------------------------------

    #[test]
    fn os_entropy_is_flagged_outside_substrate_rng() {
        for ident in ["OsRng", "thread_rng", "from_entropy", "RandomState"] {
            let src = format!("use x::{ident};");
            let findings = lint_source("crates/workload/src/gen.rs", &src);
            assert_eq!(rules_of(&findings), vec!["no-os-entropy"], "{ident}");
        }
        assert!(lint_source("crates/substrate/src/rng.rs", "use x::OsRng;").is_empty());
    }

    // -- panic-policy ----------------------------------------------------

    #[test]
    fn bare_unwrap_in_hot_path_is_flagged() {
        let src = "fn apply() { let v = m.get(&k).unwrap(); }";
        let findings = lint_source("crates/cicero-core/src/ctrl.rs", src);
        assert_eq!(rules_of(&findings), vec!["panic-policy"]);
        // Same code outside a hot path: fine.
        assert!(lint_source("crates/workload/src/gen.rs", src).is_empty());
    }

    #[test]
    fn expect_with_reason_passes_without_one_fails() {
        let hot = "crates/bft/src/replica.rs";
        assert!(lint_source(hot, "v.expect(\"quorum cert verified above\");").is_empty());
        let findings = lint_source(hot, "v.expect(\"\"); w.expect(reason_var);");
        assert_eq!(rules_of(&findings), vec!["panic-policy"; 2]);
    }

    #[test]
    fn unwrap_inside_cfg_test_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}";
        assert!(lint_source("crates/controller/src/plan.rs", src).is_empty());
    }

    #[test]
    fn todo_macro_in_hot_path_is_flagged() {
        let findings = lint_source("crates/controller/src/plan.rs", "fn f() { todo!() }");
        assert_eq!(rules_of(&findings), vec!["panic-policy"]);
    }

    // -- literals and comments never trigger -----------------------------

    #[test]
    fn strings_and_comments_never_trigger() {
        let src = "// HashMap, Instant, unsafe, unwrap()\n\
                   /* thread::spawn OsRng */\n\
                   let s = \"HashMap Instant unsafe\";\n\
                   let r = r#\"thread_rng() RandomState\"#;";
        assert!(lint_source("crates/netmodel/src/doc.rs", src).is_empty());
    }

    // -- escape hatch ----------------------------------------------------

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let same = "let m: HashMap<u8, u8> = x; // detlint::allow(no-random-order-collections): fixture";
        assert!(lint_source("crates/simnet/src/x.rs", same).is_empty());
        let above =
            "// detlint::allow(no-random-order-collections): fixture\nlet m: HashMap<u8, u8> = x;";
        assert!(lint_source("crates/simnet/src/x.rs", above).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected_and_suppresses_nothing() {
        let src = "// detlint::allow(no-random-order-collections)\nlet m: HashMap<u8, u8> = x;";
        let findings = lint_source("crates/simnet/src/x.rs", src);
        let mut rules = rules_of(&findings);
        rules.sort_unstable();
        assert_eq!(rules, vec!["malformed-allow", "no-random-order-collections"]);
    }

    #[test]
    fn allow_for_unknown_rule_is_malformed() {
        let src = "// detlint::allow(no-such-rule): because";
        let findings = lint_source("crates/simnet/src/x.rs", src);
        assert_eq!(rules_of(&findings), vec!["malformed-allow"]);
    }

    #[test]
    fn unused_allow_is_stale() {
        let src = "// detlint::allow(no-wall-clock): leftover from a refactor\nfn f() {}";
        let findings = lint_source("crates/simnet/src/x.rs", src);
        assert_eq!(rules_of(&findings), vec!["stale-allow"]);
    }

    #[test]
    fn allow_does_not_reach_two_lines_down() {
        let src = "// detlint::allow(no-wall-clock): too far\n\nlet t = Instant::now();";
        let findings = lint_source("crates/simnet/src/x.rs", src);
        let mut rules = rules_of(&findings);
        rules.sort_unstable();
        assert_eq!(rules, vec!["no-wall-clock", "stale-allow"]);
    }

    #[test]
    fn allow_only_suppresses_its_named_rule() {
        let src = "// detlint::allow(no-wall-clock): wrong rule named\nlet m: HashMap<u8, u8> = x;";
        let findings = lint_source("crates/simnet/src/x.rs", src);
        let mut rules = rules_of(&findings);
        rules.sort_unstable();
        assert_eq!(rules, vec!["no-random-order-collections", "stale-allow"]);
    }
}
