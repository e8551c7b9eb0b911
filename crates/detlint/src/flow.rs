//! Protocol-flow rules: cross-file analyses over the whole workspace's
//! parsed token streams ([`crate::parse`]).
//!
//! Three rule families (DESIGN.md §5):
//!
//! * **Coverage** — every `Net` variant constructed anywhere must have a
//!   match arm in a `ctrl/` or `switch.rs` handler
//!   (`net-variant-unhandled`); every `Obs` variant emitted through
//!   `observe(..)` must be consumed by `simcheck/src/oracle.rs` or a
//!   function transitively called from it (`obs-variant-unaudited`); every
//!   `WalRecord` variant appended must have a replay arm in
//!   `ctrl/durable.rs` (`wal-variant-unreplayed`). Findings anchor at the
//!   variant *declaration* — that is where an allow belongs — and name a
//!   representative construction/emission site.
//! * **Write-ahead ordering** — a handler that both appends to the WAL and
//!   sends an ack/receipt must append first (`write-ahead-ordering`).
//!   Token-ordering with one-level call inlining on the append side:
//!   branches are not modeled, so an append anywhere earlier in the body
//!   satisfies the rule (heuristic, fail-closed on the common shapes).
//! * **Actor safety** (`crates/cicero-node/` only) — no blocking channel
//!   receive inside a message handler and no lock guard held across a
//!   send/receive (`actor-blocking`); lock acquisition order over
//!   `substrate::sync` guards must be cycle-free (`lock-order-cycle`).
//!
//! Everything here is deliberately name-based (no type resolution): the
//! analysis over-approximates *uses* and under-approximates *handlers*,
//! so ambiguity surfaces as a finding to be fixed or allowed, never as a
//! silently-passed hole in the easy direction.

use crate::lex::{Tok, Token};
use crate::parse::{calls_in, ident_at, punct_at, skip_balanced, FileIndex};
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The protocol alphabets the coverage rules track.
pub const TRACKED_ENUMS: &[&str] = &["Net", "Obs", "WalRecord"];

/// Files that may legitimately *handle* `Net` messages.
fn is_handler_file(path: &str) -> bool {
    path.contains("/ctrl/") || path.ends_with("switch.rs")
}

/// The threaded runtime the actor-safety rules police.
fn is_node_file(path: &str) -> bool {
    path.starts_with("crates/cicero-node/")
}

/// WAL-append entry points (the one-level inlining base).
const APPEND_FNS: &[&str] = &["log_record", "persist_journal", "record_delivery"];

/// `Net` variants that acknowledge a durable fact to a peer: the write-ahead
/// rule demands the matching WAL append dominates these sends.
const ACK_VARIANTS: &[&str] = &["AckMsg", "SyncReply"];

/// Send entry points scanned for ack payloads.
const SEND_FNS: &[&str] = &["send", "send_delayed"];

/// Blocking channel operations (substrate::sync receivers).
const BLOCKING_FNS: &[&str] = &["recv", "recv_timeout"];

/// Operations that must not run under a held lock guard: channel sends can
/// park on a full bounded mailbox, receives block outright.
const UNDER_LOCK_FORBIDDEN: &[&str] = &["send", "try_send", "recv", "recv_timeout"];

/// Runs every flow rule over the indexed file set. Findings are raw — the
/// caller applies `detlint::allow` suppression per anchor file.
pub fn apply_flow_rules(files: &[FileIndex]) -> Vec<Finding> {
    let decls = declared_variants(files);
    let mut out = Vec::new();
    for row in &COVERAGE {
        coverage(files, &decls, row, &mut out);
    }
    write_ahead(files, &mut out);
    actor_safety(files, &mut out);
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup_by(|a, b| (&a.file, a.line, a.rule) == (&b.file, b.line, b.rule));
    out
}

/// One declared variant of a tracked enum: where an allow belongs.
struct Decl {
    name: String,
    file: String,
    line: u32,
}

/// Merges every definition of each tracked enum across the file set (the
/// real workspace has exactly one each; meta-tests plant their own).
fn declared_variants(files: &[FileIndex]) -> BTreeMap<String, Vec<Decl>> {
    let mut map: BTreeMap<String, Vec<Decl>> = BTreeMap::new();
    for f in files {
        for e in &f.enums {
            if !TRACKED_ENUMS.contains(&e.name.as_str()) {
                continue;
            }
            let list = map.entry(e.name.clone()).or_default();
            for v in &e.variants {
                if list.iter().any(|d| d.name == v.name) {
                    continue;
                }
                list.push(Decl {
                    name: v.name.clone(),
                    file: f.path.clone(),
                    line: v.line,
                });
            }
        }
    }
    map
}

// ---------------------------------------------------------------------------
// Coverage family
// ---------------------------------------------------------------------------

/// One coverage rule: every variant of `enum_name` produced somewhere must
/// be handled somewhere specific. A finding reads "`Enum::V` is `verb` at
/// file:line but `gap`".
struct Coverage {
    enum_name: &'static str,
    rule: &'static str,
    /// Files where a mention handles the variant: as a match arm (a
    /// catch-all `_` names nothing) or, with `via_calls`, anywhere in one of
    /// their functions or one transitively called from it (name-based — an
    /// over-approximation, which for *consumption* is the safe direction).
    handler: fn(&str) -> bool,
    via_calls: bool,
    /// What produces a variant: a non-arm mention as the first argument of
    /// this call, or (`None`) any non-arm mention.
    produced_by: Option<&'static str>,
    verb: &'static str,
    gap: &'static str,
    hint: &'static str,
}

const COVERAGE: [Coverage; 3] = [
    Coverage {
        enum_name: "Net",
        rule: "net-variant-unhandled",
        handler: is_handler_file,
        via_calls: false,
        produced_by: None,
        verb: "constructed",
        gap: "no ctrl/ or switch.rs handler has a match arm for it (a catch-all \
              `_` does not count)",
        hint: "add an explicit handler arm in crates/cicero-core/src/ctrl/ or \
               switch.rs, or allow at this variant declaration with a reason",
    },
    // The oracle registry: the roots of the `Obs` consumption closure.
    Coverage {
        enum_name: "Obs",
        rule: "obs-variant-unaudited",
        handler: |path| path.ends_with("simcheck/src/oracle.rs"),
        via_calls: true,
        produced_by: Some("observe"),
        verb: "emitted",
        gap: "no oracle in crates/simcheck/src/oracle.rs consumes it",
        hint: "add an oracle check over the variant (simcheck judges every \
               run by it), or allow at this variant declaration with a reason",
    },
    // The WAL replay site.
    Coverage {
        enum_name: "WalRecord",
        rule: "wal-variant-unreplayed",
        handler: |path| path.ends_with("ctrl/durable.rs"),
        via_calls: false,
        produced_by: None,
        verb: "appended",
        gap: "crash recovery in ctrl/durable.rs has no replay arm for it",
        hint: "replay the record in ctrl/durable.rs (a logged fact that is \
               not replayed is silently lost on restart), or allow with a reason",
    },
];

/// Body token ranges `(file, start, end)` of every function defined in a
/// `roots` file or transitively called (by name) from one.
fn call_closure(files: &[FileIndex], roots: fn(&str) -> bool) -> Vec<(usize, usize, usize)> {
    let mut fn_map: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for (xi, fd) in f.fns.iter().enumerate() {
            fn_map.entry(fd.name.as_str()).or_default().push((fi, xi));
        }
    }
    let mut visited: BTreeSet<&str> = BTreeSet::new();
    let mut queue: Vec<&str> = Vec::new();
    for f in files.iter().filter(|f| roots(&f.path)) {
        for fd in &f.fns {
            if visited.insert(fd.name.as_str()) {
                queue.push(fd.name.as_str());
            }
        }
    }
    let mut bodies = Vec::new();
    while let Some(name) = queue.pop() {
        for &(fi, xi) in fn_map.get(name).into_iter().flatten() {
            let f = &files[fi];
            let fd = &f.fns[xi];
            bodies.push((fi, fd.body_start, fd.body_end));
            for (callee, _) in calls_in(f.tokens, fd.body_start, fd.body_end) {
                if let Some((key, _)) = fn_map.get_key_value(callee.as_str()) {
                    if visited.insert(key) {
                        queue.push(key);
                    }
                }
            }
        }
    }
    bodies
}

fn coverage(
    files: &[FileIndex],
    decls: &BTreeMap<String, Vec<Decl>>,
    row: &Coverage,
    out: &mut Vec<Finding>,
) {
    let Some(variants) = decls.get(row.enum_name) else { return };
    let bodies = if row.via_calls { call_closure(files, row.handler) } else { Vec::new() };
    let mut handled: BTreeSet<&str> = BTreeSet::new();
    let mut produced: BTreeMap<&str, (&str, u32)> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        for u in f.uses.iter().filter(|u| u.enum_name == row.enum_name) {
            let in_place = if row.via_calls {
                let inside = |&(bf, start, end): &_| bf == fi && u.token > start && u.token < end;
                bodies.iter().any(inside)
            } else {
                u.is_match_arm && (row.handler)(&f.path)
            };
            if in_place {
                handled.insert(&u.variant);
            }
            let argument_of = |call| {
                u.token >= 2
                    && punct_at(f.tokens, u.token - 1, '(')
                    && ident_at(f.tokens, u.token - 2) == Some(call)
            };
            if !u.is_match_arm && row.produced_by.is_none_or(argument_of) {
                produced.entry(&u.variant).or_insert((&f.path, u.line));
            }
        }
    }
    for v in variants {
        if handled.contains(v.name.as_str()) {
            continue;
        }
        let Some((pf, pl)) = produced.get(v.name.as_str()) else { continue };
        out.push(Finding {
            file: v.file.clone(),
            line: v.line,
            rule: row.rule,
            message: format!(
                "`{}::{}` is {} at {pf}:{pl} but {}",
                row.enum_name, v.name, row.verb, row.gap
            ),
            hint: row.hint,
        });
    }
}

// ---------------------------------------------------------------------------
// Write-ahead ordering
// ---------------------------------------------------------------------------

fn write_ahead(files: &[FileIndex], out: &mut Vec<Finding>) {
    // One-level inlining on the append side: a function whose body calls a
    // base append entry point counts as an appender itself.
    let mut appenders: BTreeSet<String> =
        APPEND_FNS.iter().map(|s| s.to_string()).collect();
    for f in files {
        for fd in &f.fns {
            if calls_in(f.tokens, fd.body_start, fd.body_end)
                .iter()
                .any(|(n, _)| APPEND_FNS.contains(&n.as_str()))
            {
                appenders.insert(fd.name.clone());
            }
        }
    }
    for f in files.iter().filter(|f| is_handler_file(&f.path)) {
        for fd in &f.fns {
            let calls = calls_in(f.tokens, fd.body_start, fd.body_end);
            let appends: Vec<usize> = calls
                .iter()
                .filter(|(n, _)| appenders.contains(n))
                .map(|&(_, i)| i)
                .collect();
            if appends.is_empty() {
                continue; // not a write-ahead handler: nothing to order
            }
            for (name, i) in calls.iter().filter(|(n, _)| SEND_FNS.contains(&n.as_str())) {
                let Some(ack) = ack_payload(f.tokens, *i + 1) else { continue };
                if !appends.iter().any(|&a| a < *i) {
                    out.push(Finding {
                        file: f.path.clone(),
                        line: f.tokens[*i].line,
                        rule: "write-ahead-ordering",
                        message: format!(
                            "`{}` sends `Net::{ack}` before `{}` appends the fact to \
                             the WAL — a crash between send and append forgets what \
                             was just acknowledged",
                            name, fd.name
                        ),
                        hint: "append the WalRecord (log_record / persist_journal / \
                               record_delivery) before the ack/receipt send, or allow \
                               with a reason",
                    });
                }
            }
        }
    }
}

/// The ack variant inside a send call's argument list, if any. `open` must
/// index the `(` after the send identifier.
fn ack_payload(tokens: &[Token], open: usize) -> Option<String> {
    if !punct_at(tokens, open, '(') {
        return None;
    }
    let end = skip_balanced(tokens, open);
    for j in open..end {
        if ident_at(tokens, j) == Some("Net")
            && punct_at(tokens, j + 1, ':')
            && punct_at(tokens, j + 2, ':')
        {
            if let Some(v) = ident_at(tokens, j + 3) {
                if ACK_VARIANTS.contains(&v) {
                    return Some(v.to_string());
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Actor safety (cicero-node)
// ---------------------------------------------------------------------------

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
