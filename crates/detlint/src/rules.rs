//! The rule set: which constructs are forbidden where, and why.
//!
//! Every rule is a matcher over the comment/literal-stripped token stream of
//! one file, scoped by the file's workspace-relative path. The scopes encode
//! this repository's determinism architecture:
//!
//! | rule | forbids | scope |
//! |------|---------|-------|
//! | `no-random-order-collections` | `HashMap`/`HashSet` | deterministic crates |
//! | `no-wall-clock` | `Instant`, `SystemTime`, `thread::spawn` | everywhere except `substrate::benchkit`, `substrate::sync`, `crates/bench`, `cicero-node`'s clock boundary |
//! | `no-os-entropy` | `OsRng`, `thread_rng`, `from_entropy`, `getrandom`, `RandomState` | everywhere except `substrate::rng` |
//! | `panic-policy` | `unwrap()`, reason-less `expect()`, `todo!`/`unimplemented!` | protocol hot paths, non-test code |
//! | `durable-io-boundary` | `OpenOptions`, `sync_all`, `sync_data` | everywhere except `cicero-node`'s disk boundary |
//!
//! No rule repeats what the compiler proves: `unsafe` is refused by the
//! workspace lint `unsafe_code = "forbid"`. The cross-file actor-safety
//! rules (`actor-blocking`, `lock-order-cycle`) live in [`crate::flow`] —
//! they run over the whole file set at once.

use crate::lex::{Lexed, Tok, Token};

/// One finding: a rule violation at a source location, with a fix hint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (stable, usable in `detlint::allow(<rule>)`).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}\n    hint: {}",
            self.file, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Rule ids (also the set of names `detlint::allow` accepts). The first
/// five are per-file token rules ([`apply_rules`]); the last two are the
/// cross-file actor-safety rules ([`crate::flow`]).
pub const RULE_IDS: &[&str] = &[
    "no-random-order-collections",
    "no-wall-clock",
    "no-os-entropy",
    "panic-policy",
    "durable-io-boundary",
    "actor-blocking",
    "lock-order-cycle",
];

/// Crates whose execution must be a pure function of the seed. The facade
/// crate (root `src/`, `tests/`, `examples/`) counts as `cicero`.
const DETERMINISTIC_CRATES: &[&str] = &[
    "netmodel",
    "simnet",
    "bft",
    "controller",
    "cicero-core",
    "cicero",
    "simcheck",
    "southbound",
    "workload",
    "blscrypto",
];

/// Files allowed to touch wall-clock time and OS threads: the benchmark
/// kit measures real time by definition, `substrate::sync` wraps std
/// threading, the bench crate drives real-time measurements, and
/// `cicero-node`'s clock module is the threaded runtime's *single*
/// wall-clock boundary (it maps an `Instant` epoch onto `SimTime`; the
/// rest of that crate — executor included — stays under the rule).
const WALL_CLOCK_ALLOWED: &[&str] = &[
    "crates/substrate/src/benchkit.rs",
    "crates/substrate/src/sync.rs",
    "crates/cicero-node/src/clock.rs",
];
const WALL_CLOCK_ALLOWED_PREFIXES: &[&str] = &["crates/bench/"];

/// The only module that may produce randomness (seeded, never from the OS).
const ENTROPY_ALLOWED: &[&str] = &["crates/substrate/src/rng.rs"];

/// The single module allowed to open files for writing and fsync them:
/// `cicero-node`'s disk boundary implements `substrate::storage::Disk`
/// over real files (append + fsync, temp-file + rename + dir-fsync).
/// Every other component takes a `Disk` handle, so durability semantics
/// (and their simulated counterpart) live in exactly one place.
const DURABLE_IO_ALLOWED: &[&str] = &["crates/cicero-node/src/disk.rs"];

/// Protocol hot paths where PR 2's explicit-failure style is enforced:
/// a bare `unwrap()` carries no invariant; `expect("why")` must state one.
const HOT_PATHS: &[&str] = &[
    "crates/bft/src/replica.rs",
    "crates/cicero-core/src/switch.rs",
    "crates/cicero-core/src/engine.rs",
];
// `crates/cicero-core/src/ctrl` covers the controller's whole module
// directory (consensus, events, barriers, delivery, membership, ...).
const HOT_PATH_PREFIXES: &[&str] = &[
    "crates/controller/src/",
    "crates/cicero-core/src/ctrl",
];

/// The crate a workspace-relative path belongs to (`cicero` for the facade
/// root's `src/`, `tests/`, and `examples/`).
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(rest)
    } else {
        "cicero"
    }
}

fn in_deterministic_crate(path: &str) -> bool {
    DETERMINISTIC_CRATES.contains(&crate_of(path))
}

fn wall_clock_allowed(path: &str) -> bool {
    WALL_CLOCK_ALLOWED.contains(&path)
        || WALL_CLOCK_ALLOWED_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn entropy_allowed(path: &str) -> bool {
    ENTROPY_ALLOWED.contains(&path)
}

fn durable_io_allowed(path: &str) -> bool {
    DURABLE_IO_ALLOWED.contains(&path)
}

fn is_hot_path(path: &str) -> bool {
    HOT_PATHS.contains(&path) || HOT_PATH_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn ident_at<'a>(tokens: &'a [Token], i: usize) -> Option<&'a str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Marks every token inside a `#[test]` or `#[cfg(test)]`-attributed item
/// (the brace-delimited block that follows the attribute). The panic-policy
/// rule only applies outside these regions: tests are *supposed* to panic
/// on broken invariants.
fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        // Outer attribute: `#` `[` ... `]` (inner `#![...]` has a `!` and is
        // skipped naturally because the bracket is not at i+1).
        if punct_at(tokens, i, '#') && punct_at(tokens, i + 1, '[') {
            // Find the matching close bracket.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(s) if s == "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            if is_test_attr {
                // Skip any further attributes, then mark the item's braces.
                let mut k = j + 1;
                while punct_at(tokens, k, '#') && punct_at(tokens, k + 1, '[') {
                    let mut d = 0usize;
                    while k < tokens.len() {
                        match &tokens[k].tok {
                            Tok::Punct('[') => d += 1,
                            Tok::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                // Advance to the item's opening brace (bail at `;`: a
                // braceless item like `#[cfg(test)] use x;` has no body).
                while k < tokens.len()
                    && !punct_at(tokens, k, '{')
                    && !punct_at(tokens, k, ';')
                {
                    k += 1;
                }
                if punct_at(tokens, k, '{') {
                    let mut d = 0usize;
                    while k < tokens.len() {
                        match &tokens[k].tok {
                            Tok::Punct('{') => d += 1,
                            Tok::Punct('}') => {
                                d -= 1;
                                if d == 0 {
                                    mask[k] = true;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        mask[k] = true;
                        k += 1;
                    }
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Runs every scoped rule over one file's token stream. Escape-hatch
/// directives are applied by the caller ([`crate::lint_source`]).
pub fn apply_rules(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let tokens = &lexed.tokens;
    let mut findings = Vec::new();
    let deterministic = in_deterministic_crate(path);
    let wall_ok = wall_clock_allowed(path);
    let entropy_ok = entropy_allowed(path);
    let durable_ok = durable_io_allowed(path);
    let hot = is_hot_path(path);
    let test_mask = if hot {
        test_region_mask(tokens)
    } else {
        Vec::new()
    };

    let mut push = |line: u32, rule: &'static str, message: String, hint: &'static str| {
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule,
            message,
            hint,
        });
    };

    for (i, t) in tokens.iter().enumerate() {
        let Tok::Ident(id) = &t.tok else { continue };
        match id.as_str() {
            "HashMap" | "HashSet" if deterministic => {
                push(
                    t.line,
                    "no-random-order-collections",
                    format!(
                        "`{id}` iterates in RandomState (per-process random) order; \
                         deterministic crates must not depend on it"
                    ),
                    "use std::collections::BTreeMap / BTreeSet (ordered, seed-stable)",
                );
            }
            "Instant" | "SystemTime" if !wall_ok => {
                push(
                    t.line,
                    "no-wall-clock",
                    format!("`{id}` reads the wall clock; simulated code must use simnet::time"),
                    "use SimTime/SimDuration, or move timing into substrate::benchkit",
                );
            }
            "thread" if !wall_ok => {
                if punct_at(tokens, i + 1, ':')
                    && punct_at(tokens, i + 2, ':')
                    && ident_at(tokens, i + 3) == Some("spawn")
                {
                    push(
                        t.line,
                        "no-wall-clock",
                        "`thread::spawn` introduces OS-scheduler nondeterminism".to_string(),
                        "model concurrency as simnet actors; real threads only in substrate::sync",
                    );
                }
            }
            "OsRng" | "ThreadRng" | "thread_rng" | "from_entropy" | "getrandom"
            | "RandomState"
                if !entropy_ok =>
            {
                push(
                    t.line,
                    "no-os-entropy",
                    format!("`{id}` draws OS entropy; all randomness must be seed-derived"),
                    "take an explicit seed and use substrate::rng::StdRng::seed_from_u64",
                );
            }
            "OpenOptions" | "sync_all" | "sync_data" if !durable_ok => {
                push(
                    t.line,
                    "durable-io-boundary",
                    format!(
                        "`{id}` opens or fsyncs files; durable I/O is confined to the \
                         disk boundary"
                    ),
                    "take a substrate::storage::Disk handle; real files live only in \
                     cicero-node/src/disk.rs",
                );
            }
            "unwrap" if hot && !test_mask.get(i).copied().unwrap_or(false) => {
                if punct_at(tokens, i + 1, '(') {
                    push(
                        t.line,
                        "panic-policy",
                        "bare `unwrap()` in a protocol hot path states no invariant".to_string(),
                        "use expect(\"invariant: why this cannot fail\") or propagate the error",
                    );
                }
            }
            "expect" if hot && !test_mask.get(i).copied().unwrap_or(false) => {
                if punct_at(tokens, i + 1, '(') {
                    let ok_reason = matches!(
                        tokens.get(i + 2).map(|t| &t.tok),
                        Some(Tok::Str(s)) if !s.trim().is_empty()
                    );
                    if !ok_reason {
                        push(
                            t.line,
                            "panic-policy",
                            "`expect()` without a non-empty literal reason string".to_string(),
                            "state the violated invariant: expect(\"why this cannot fail\")",
                        );
                    }
                }
            }
            "todo" | "unimplemented" if hot && !test_mask.get(i).copied().unwrap_or(false) => {
                if punct_at(tokens, i + 1, '!') {
                    push(
                        t.line,
                        "panic-policy",
                        format!("`{id}!` placeholder in a protocol hot path"),
                        "implement the path or return an explicit error variant",
                    );
                }
            }
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn crate_classification() {
        assert_eq!(crate_of("crates/netmodel/src/routing.rs"), "netmodel");
        assert_eq!(crate_of("crates/cicero-core/tests/e2e.rs"), "cicero-core");
        assert_eq!(crate_of("src/lib.rs"), "cicero");
        assert_eq!(crate_of("tests/consistency.rs"), "cicero");
        assert_eq!(crate_of("examples/lossy_network.rs"), "cicero");
        assert!(in_deterministic_crate("crates/bft/src/replica.rs"));
        assert!(!in_deterministic_crate("crates/substrate/src/rng.rs"));
        assert!(!in_deterministic_crate("crates/bench/src/lib.rs"));
        assert!(!in_deterministic_crate("crates/detlint/src/lib.rs"));
    }

    #[test]
    fn durable_io_confined_to_disk_boundary() {
        let src = r#"
fn persist(f: &std::fs::File) {
    let g = OpenOptions::new().append(true).open("wal.log");
    f.sync_all().ok();
}
"#;
        let lexed = lex(src);
        let flagged = apply_rules("crates/cicero-core/src/ctrl/durable.rs", &lexed);
        let rules: Vec<&str> = flagged
            .iter()
            .filter(|f| f.rule == "durable-io-boundary")
            .map(|f| f.rule)
            .collect();
        assert_eq!(rules.len(), 2, "OpenOptions and sync_all both flagged");
        let allowed = apply_rules("crates/cicero-node/src/disk.rs", &lexed);
        assert!(
            allowed.iter().all(|f| f.rule != "durable-io-boundary"),
            "the disk boundary itself is exempt"
        );
    }

    #[test]
    fn test_mask_covers_cfg_test_modules() {
        let src = r#"
fn hot() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn helper() { y.unwrap(); }
    #[test]
    fn t() { z.unwrap(); }
}
"#;
        let lexed = lex(src);
        let findings = apply_rules("crates/cicero-core/src/ctrl.rs", &lexed);
        let unwraps: Vec<u32> = findings
            .iter()
            .filter(|f| f.rule == "panic-policy")
            .map(|f| f.line)
            .collect();
        assert_eq!(unwraps, vec![2], "only the non-test unwrap is flagged");
    }
}
