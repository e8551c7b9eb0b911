//! A lightweight item-level parse over the lexed token stream: function
//! bodies and call sites.
//!
//! This is deliberately *not* a Rust parser. It recovers exactly the
//! structure the actor-safety rules ([`crate::flow`]) need, with the same
//! design constraints as the lexer: zero dependencies, total determinism,
//! and a bias toward never misclassifying.

use crate::lex::{Tok, Token};

/// A parsed `fn` item (free function, method, or nested fn).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnDef {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index of the body's opening `{`.
    pub body_start: usize,
    /// Token index of the body's matching `}` (== `body_start` when the
    /// brace never closes; the range is then empty and harmless).
    pub body_end: usize,
}

/// Everything the flow rules need to know about one file.
pub struct FileIndex<'a> {
    /// Workspace-relative path (same convention as [`crate::lint_source`]).
    pub path: String,
    /// The file's comment/literal-stripped token stream.
    pub tokens: &'a [Token],
    /// Every `fn` defined in the file (nested fns included).
    pub fns: Vec<FnDef>,
}

pub(crate) fn ident_at<'a>(tokens: &'a [Token], i: usize) -> Option<&'a str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(tokens: &[Token], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Skips a balanced bracket group starting at `i` (which must be an opening
/// bracket); returns the index just past the matching close. Unbalanced
/// input returns `tokens.len()`.
fn skip_balanced(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Parses every `fn name ... { body }`. `fn` *types* (`fn(u32) -> u32`)
/// have no name identifier and are skipped naturally.
fn parse_fns(tokens: &[Token]) -> Vec<FnDef> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            i += 1;
            continue;
        };
        let line = tokens[i].line;
        // Scan the signature for the body brace: the first `{` outside any
        // paren/bracket group. A `;` there means a bodyless trait method.
        let mut j = i + 2;
        let mut depth = 0usize;
        let mut body_start = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                Tok::Punct(c) if matches!(c, '(' | '[') => depth += 1,
                Tok::Punct(c) if matches!(c, ')' | ']') => depth = depth.saturating_sub(1),
                Tok::Punct('{') if depth == 0 => {
                    body_start = Some(j);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if let Some(start) = body_start {
            let end = skip_balanced(tokens, start).saturating_sub(1);
            out.push(FnDef {
                name: name.to_string(),
                line,
                body_start: start,
                body_end: end.max(start),
            });
        }
        // Continue *inside* the body too: nested fns get their own entry.
        i += 2;
    }
    out
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "as", "move", "else",
];

/// Call sites (`name(...)` or `.name(...)`) inside `tokens[range]`,
/// returned as `(callee, token_index)`. Macro invocations (`name!(...)`)
/// are excluded.
pub fn calls_in(tokens: &[Token], start: usize, end: usize) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in start..end.min(tokens.len()) {
        let Some(name) = ident_at(tokens, i) else { continue };
        if !punct_at(tokens, i + 1, '(') || NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        out.push((name.to_string(), i));
    }
    out
}

/// Indexes one file for the flow rules.
pub fn index_file<'a>(path: &str, tokens: &'a [Token]) -> FileIndex<'a> {
    FileIndex {
        path: path.to_string(),
        tokens,
        fns: parse_fns(tokens),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    #[test]
    fn fn_bodies_and_nested_fns() {
        let src = "impl S {\n fn outer(&self, x: fn(u32) -> u32) -> u32 {\n fn inner() {}\n x(1)\n } }\nfn bodyless();";
        let lexed = lex(src);
        let fns = parse_fns(&lexed.tokens);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
        // The nested fn's body is inside the outer's range.
        assert!(fns[1].body_start > fns[0].body_start && fns[1].body_end < fns[0].body_end);
    }

    #[test]
    fn call_sites_exclude_keywords_and_macros() {
        let src = "fn f() { if (x) { g(1); h.i(2); assert!(j(3)); } }";
        let lexed = lex(src);
        let fns = parse_fns(&lexed.tokens);
        let calls: Vec<String> = calls_in(&lexed.tokens, fns[0].body_start, fns[0].body_end)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(calls.contains(&"g".to_string()));
        assert!(calls.contains(&"i".to_string()));
        assert!(calls.contains(&"j".to_string()), "call inside macro args still found");
        assert!(!calls.contains(&"if".to_string()));
        assert!(!calls.contains(&"assert".to_string()), "macro bang is not a call");
    }
}
