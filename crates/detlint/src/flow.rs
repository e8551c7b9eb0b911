//! Actor-safety rules: cross-file analyses of the threaded runtime
//! (`crates/cicero-node/`) over the parsed token streams
//! ([`crate::parse`]), DESIGN.md §5:
//!
//! * **`actor-blocking`** — no blocking channel receive inside a message
//!   handler (one call level deep), and no lock guard held across a
//!   send/receive;
//! * **`lock-order-cycle`** — lock acquisition order over
//!   `substrate::sync` guards must be cycle-free.
//!
//! What the protocol promises is not restated here: rustc's exhaustiveness
//! check keeps every `Net`, `Obs` and `WalRecord` variant handled (the two
//! dispatch matches, the telemetry oracle and WAL replay have no catch-all
//! arm), and a handler's sends leave only after it returns, so a WAL append
//! anywhere in it precedes them.
//!
//! Everything here is deliberately name-based (no type resolution) and
//! fail-closed on the shapes this codebase uses: ambiguity surfaces as a
//! finding to be fixed or allowed, never as a silently-passed hole.

use crate::lex::{Tok, Token};
use crate::parse::{calls_in, ident_at, punct_at, FileIndex};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The threaded runtime the actor-safety rules police.
fn is_node_file(path: &str) -> bool {
    path.starts_with("crates/cicero-node/")
}

/// Blocking channel operations (substrate::sync receivers).
const BLOCKING_FNS: &[&str] = &["recv", "recv_timeout"];

/// Operations that must not run under a held lock guard: channel sends can
/// park on a full bounded mailbox, receives block outright.
const UNDER_LOCK_FORBIDDEN: &[&str] = &["send", "try_send", "recv", "recv_timeout"];

/// Runs every flow rule over the indexed file set. Findings are raw — the
/// caller applies `detlint::allow` suppression per anchor file.
pub fn apply_flow_rules(files: &[FileIndex]) -> Vec<Finding> {
    let mut out = Vec::new();
    actor_safety(files, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    out
}

/// How far a lock guard born at one acquisition stays live (token index of
/// the first token past its life).
enum GuardScope {
    /// `let g = x.lock();` — to the end of the enclosing block, or an
    /// explicit `drop(g)`.
    Let(Option<String>),
    /// `if let` / `while let` / `match` scrutinee — Rust extends scrutinee
    /// temporaries across the whole following block.
    Block,
    /// Plain expression statement — to the statement's `;`.
    Statement,
}

struct Acquisition {
    /// Token index of the `lock`/`read`/`write` identifier.
    token: usize,
    /// The identifier the guard was taken on (`self.obs.lock()` → `obs`),
    /// when recoverable.
    lock_name: Option<String>,
    line: u32,
    /// Token index one past the guard's live range.
    end: usize,
}

/// Finds every `.lock()` / `.read()` / `.write()` (argument-less, so file
/// I/O like `f.read(&mut buf)` never matches) in a body and computes how
/// long its guard lives.
fn acquisitions(tokens: &[Token], body_start: usize, body_end: usize) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in body_start..body_end.min(tokens.len()) {
        let Some(m) = ident_at(tokens, i) else { continue };
        if !matches!(m, "lock" | "read" | "write")
            || !punct_at(tokens, i.wrapping_sub(1), '.')
            || !punct_at(tokens, i + 1, '(')
            || !punct_at(tokens, i + 2, ')')
        {
            continue;
        }
        // Statement start: the token after the nearest `;` / `{` / `}`.
        let mut b = i;
        while b > body_start {
            if matches!(tokens[b - 1].tok, Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')) {
                break;
            }
            b -= 1;
        }
        let scope = match ident_at(tokens, b) {
            Some("let") => {
                let name_at = if ident_at(tokens, b + 1) == Some("mut") { b + 2 } else { b + 1 };
                GuardScope::Let(ident_at(tokens, name_at).map(str::to_string))
            }
            Some("if") | Some("while") | Some("match") => GuardScope::Block,
            _ => GuardScope::Statement,
        };
        out.push(Acquisition {
            token: i,
            lock_name: if i >= 2 { ident_at(tokens, i - 2).map(str::to_string) } else { None },
            line: tokens[i].line,
            end: guard_end(tokens, i + 3, body_end, &scope),
        });
    }
    out
}

fn guard_end(tokens: &[Token], from: usize, body_end: usize, scope: &GuardScope) -> usize {
    let mut depth: i32 = 0;
    let mut entered_block = false;
    let mut j = from;
    while j < body_end.min(tokens.len()) {
        match &tokens[j].tok {
            Tok::Punct('{') => {
                if depth == 0 {
                    entered_block = true;
                }
                depth += 1;
            }
            Tok::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return j; // enclosing block closed: every scope ends
                }
                if matches!(scope, GuardScope::Block) && entered_block && depth == 0 {
                    return j;
                }
            }
            Tok::Punct(';') if depth == 0 && matches!(scope, GuardScope::Statement) => {
                return j;
            }
            Tok::Ident(id) if id == "drop" => {
                if let GuardScope::Let(Some(name)) = scope {
                    if punct_at(tokens, j + 1, '(') && ident_at(tokens, j + 2) == Some(name) {
                        return j;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    body_end
}

fn actor_safety(files: &[FileIndex], out: &mut Vec<Finding>) {
    // Map of cicero-node-defined functions for one-level handler inlining.
    let mut node_fns: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        if !is_node_file(&f.path) {
            continue;
        }
        for (xi, fd) in f.fns.iter().enumerate() {
            node_fns.entry(fd.name.as_str()).or_default().push((fi, xi));
        }
    }
    let blocks_directly = |fi: usize, xi: usize| -> bool {
        let f = &files[fi];
        let fd = &f.fns[xi];
        calls_in(f.tokens, fd.body_start, fd.body_end)
            .iter()
            .any(|(n, _)| BLOCKING_FNS.contains(&n.as_str()))
    };

    // Lock-order edges across the whole runtime: guard A live at the
    // acquisition of B. Collected here, judged below.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();

    for f in files.iter() {
        if !is_node_file(&f.path) {
            continue;
        }
        for fd in f.fns.iter() {
            let is_handler = fd.name.starts_with("on_") || fd.name.starts_with("handle");
            if is_handler {
                for (callee, i) in calls_in(f.tokens, fd.body_start, fd.body_end) {
                    if BLOCKING_FNS.contains(&callee.as_str()) {
                        out.push(Finding {
                            file: f.path.clone(),
                            line: f.tokens[i].line,
                            rule: "actor-blocking",
                            message: format!(
                                "blocking `{callee}()` inside message handler \
                                 `{}` — an actor that blocks on a channel in its \
                                 handler deadlocks the mailbox",
                                fd.name
                            ),
                            hint: "handlers must only buffer effects; blocking \
                                   receives belong in the actor's run loop",
                        });
                    } else if let Some(sites) = node_fns.get(callee.as_str()) {
                        if sites.iter().any(|&(cfi, cxi)| blocks_directly(cfi, cxi)) {
                            out.push(Finding {
                                file: f.path.clone(),
                                line: f.tokens[i].line,
                                rule: "actor-blocking",
                                message: format!(
                                    "message handler `{}` calls `{callee}`, which \
                                     performs a blocking channel receive",
                                    fd.name
                                ),
                                hint: "handlers must only buffer effects; blocking \
                                       receives belong in the actor's run loop",
                            });
                        }
                    }
                }
            }
            let acqs = acquisitions(f.tokens, fd.body_start, fd.body_end);
            for a in &acqs {
                for (callee, i) in calls_in(f.tokens, a.token + 3, a.end) {
                    if UNDER_LOCK_FORBIDDEN.contains(&callee.as_str()) {
                        out.push(Finding {
                            file: f.path.clone(),
                            line: f.tokens[i].line,
                            rule: "actor-blocking",
                            message: format!(
                                "`{callee}()` while the `{}` guard acquired at line \
                                 {} is still live — channel operations can park \
                                 with the lock held",
                                a.lock_name.as_deref().unwrap_or("<lock>"),
                                a.line
                            ),
                            hint: "scope the guard (inner block or drop(guard)) so \
                                   it is released before any channel send/receive",
                        });
                    }
                }
                for b in &acqs {
                    if b.token > a.token && b.token < a.end {
                        if let (Some(an), Some(bn)) = (&a.lock_name, &b.lock_name) {
                            edges
                                .entry((an.clone(), bn.clone()))
                                .or_insert((f.path.clone(), b.line));
                        }
                    }
                }
            }
        }
    }

    // Reject cycles: an edge (a, b) with a path b →* a means two call
    // stacks can acquire {a, b} in opposite orders and deadlock.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    for ((a, b), (file, line)) in &edges {
        if reaches(b, a) {
            out.push(Finding {
                file: file.clone(),
                line: *line,
                rule: "lock-order-cycle",
                message: format!(
                    "`{b}` is acquired while `{a}` is held, but the opposite \
                     acquisition order also exists — two threads can deadlock"
                ),
                hint: "pick one global acquisition order for these locks and \
                       restructure the later acquisition out of the guard's scope",
            });
        }
    }
}
