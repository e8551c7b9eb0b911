//! A minimal, hand-rolled Rust lexer: just enough to strip comments and
//! string/char literals and hand the rule matchers a clean token stream.
//!
//! Design constraints (shared with the rest of the workspace): zero
//! dependencies — no `syn`, no `proc-macro2` — and total determinism. The
//! lexer is deliberately token-level, not a parser: rules match identifier
//! sequences, which is exactly the granularity at which the forbidden
//! constructs (`HashMap`, `Instant`, `OpenOptions`, `unwrap()`) appear.
//!
//! Comments are not discarded blindly: they are scanned for
//! `detlint::allow(rule): reason` escape-hatch directives first.

/// One lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`HashMap`, `unsafe`, `thread`, ...).
    Ident(String),
    /// A string literal's contents (cooked, raw, or byte). Kept as a token
    /// so rules can check `expect("reason")` arguments, but its *contents*
    /// never match identifier rules.
    Str(String),
    /// Any other single non-whitespace character.
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// A `detlint::allow(rule): reason` escape-hatch directive found in a
/// comment. The directive suppresses findings for `rule` on its own line
/// and on the following line — and it *requires* a non-empty reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Directive {
    /// The rule id inside the parentheses.
    pub rule: String,
    /// The reason after the colon, if present and non-empty.
    pub reason: Option<String>,
    /// 1-based line the directive appears on.
    pub line: u32,
}

/// The result of lexing one source file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// Comment- and literal-stripped token stream.
    pub tokens: Vec<Token>,
    /// All escape-hatch directives found in comments.
    pub directives: Vec<Directive>,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans one comment line for an escape-hatch directive. The directive must
/// *lead* the comment (only comment punctuation and whitespace before it),
/// so prose that merely mentions the syntax — like this doc comment — is
/// never mistaken for a real directive.
fn scan_directives(text: &str, line: u32, out: &mut Vec<Directive>) {
    const MARKER: &str = "detlint::allow(";
    let lead = text
        .trim_start_matches(|c: char| c == '/' || c == '*' || c == '!' || c.is_whitespace());
    let Some(after) = lead.strip_prefix(MARKER) else {
        return;
    };
    let Some(close) = after.find(')') else {
        return;
    };
    let rule = after[..close].trim().to_string();
    let tail = &after[close + 1..];
    let reason = tail
        .strip_prefix(':')
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(str::to_string);
    out.push(Directive { rule, reason, line });
}

/// Lexes `source` into tokens + directives. Never fails: unterminated
/// literals simply consume to end-of-file (the compiler is the authority on
/// well-formedness; the linter only needs to never misclassify).
pub fn lex(source: &str) -> Lexed {
    let chars: Vec<char> = source.chars().collect();
    let n = chars.len();
    let mut tokens = Vec::new();
    let mut directives = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i;
            while i < n && chars[i] != '\n' {
                i += 1;
            }
            let text: String = chars[start..i].iter().collect();
            scan_directives(&text, line, &mut directives);
            continue;
        }
        // Block comment, with nesting (Rust block comments nest).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            let mut cur_line_text = String::from("/*");
            while i < n && depth > 0 {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    cur_line_text.push_str("/*");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    cur_line_text.push_str("*/");
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        scan_directives(&cur_line_text, line, &mut directives);
                        cur_line_text.clear();
                        line += 1;
                    } else {
                        cur_line_text.push(chars[i]);
                    }
                    i += 1;
                }
            }
            scan_directives(&cur_line_text, line, &mut directives);
            continue;
        }
        // Cooked string literal.
        if c == '"' {
            let start_line = line;
            i += 1;
            let mut s = String::new();
            while i < n {
                match chars[i] {
                    '\\' => {
                        // Skip the escaped character (good enough: we only
                        // care about emptiness and never re-emit contents).
                        if i + 1 < n && chars[i + 1] == '\n' {
                            line += 1;
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    ch => {
                        if ch == '\n' {
                            line += 1;
                        }
                        s.push(ch);
                        i += 1;
                    }
                }
            }
            tokens.push(Token {
                tok: Tok::Str(s),
                line: start_line,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let j = i + 1;
            if j < n && chars[j] == '\\' {
                // Escaped char literal: consume to the closing quote.
                let mut k = j;
                while k < n {
                    if chars[k] == '\\' {
                        k += 2;
                    } else if chars[k] == '\'' {
                        k += 1;
                        break;
                    } else {
                        k += 1;
                    }
                }
                i = k;
            } else if j + 1 < n && chars[j + 1] == '\'' {
                // Plain char literal 'x'.
                if chars[j] == '\n' {
                    line += 1;
                }
                i = j + 2;
            } else if j < n && is_ident_start(chars[j]) {
                // Lifetime: consume the identifier, emit nothing.
                let mut k = j;
                while k < n && is_ident_continue(chars[k]) {
                    k += 1;
                }
                i = k;
            } else {
                i += 1;
            }
            continue;
        }
        // Identifier / keyword — possibly a raw/byte string prefix.
        if is_ident_start(c) {
            let start = i;
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let next = chars.get(i).copied();
            if ident == "b" && next == Some('"') {
                // b"..." — cooked escape semantics; the '"' arm consumes it
                // on the next loop iteration.
                continue;
            }
            if ident == "b" && next == Some('\'') {
                // Byte char literal b'x': the '\'' arm consumes it.
                continue;
            }
            if matches!(ident.as_str(), "r" | "br") && matches!(next, Some('"') | Some('#')) {
                // Raw string r"..." / r#"..."# / br#"..."#.
                let start_line = line;
                let mut hashes = 0;
                while i < n && chars[i] == '#' {
                    hashes += 1;
                    i += 1;
                }
                if chars.get(i) == Some(&'"') {
                    i += 1;
                    let mut s = String::new();
                    'raw: while i < n {
                        if chars[i] == '"' {
                            // Check for the closing hash run.
                            let mut k = i + 1;
                            let mut seen = 0;
                            while seen < hashes && k < n && chars[k] == '#' {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                i = k;
                                break 'raw;
                            }
                        }
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        s.push(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token {
                        tok: Tok::Str(s),
                        line: start_line,
                    });
                    continue;
                }
                // `r#ident` raw identifier. Keep the `r#` marker: a raw
                // identifier is *not* the keyword it spells (`r#match` is a
                // plain binding named "match"), so emitting the bare name
                // would fabricate keywords the parser then misreads.
                let id_start = i;
                while i < n && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let id: String = chars[id_start..i].iter().collect();
                tokens.push(Token {
                    tok: Tok::Ident(format!("r#{id}")),
                    line,
                });
                continue;
            }
            tokens.push(Token {
                tok: Tok::Ident(ident),
                line,
            });
            continue;
        }
        // Numeric literal: consume and drop (suffixes, hex, underscores).
        if c.is_ascii_digit() {
            while i < n && is_ident_continue(chars[i]) {
                i += 1;
            }
            continue;
        }
        tokens.push(Token {
            tok: Tok::Punct(c),
            line,
        });
        i += 1;
    }

    Lexed { tokens, directives }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.tok {
                Tok::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
// HashMap in a line comment
/* HashSet in /* a nested */ block comment */
let x = "Instant in a string";
let y = r#"unsafe in a raw string"#;
let z = 'u'; let lt: &'static str = "SystemTime";
fn real_ident() {}
"##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        for bad in ["HashMap", "HashSet", "Instant", "unsafe", "SystemTime"] {
            assert!(!ids.contains(&bad.to_string()), "{bad} leaked from a literal");
        }
    }

    #[test]
    fn string_tokens_keep_contents_and_lines() {
        let src = "a\n.expect(\"the reason\");";
        let lexed = lex(src);
        let strs: Vec<(String, u32)> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some((s.clone(), t.line)),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![("the reason".to_string(), 2)]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';";
        let ids = idents(src);
        assert!(ids.contains(&"str".to_string()));
        // The lifetime name never shows up as a stray token stream break.
        assert_eq!(ids.iter().filter(|s| *s == "a").count(), 0);
    }

    #[test]
    fn directive_with_reason() {
        let src = "// detlint::allow(no-wall-clock): bench timer, audited 2026-08\nInstant::now()";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 1);
        let d = &lexed.directives[0];
        assert_eq!(d.rule, "no-wall-clock");
        assert_eq!(d.line, 1);
        assert!(d.reason.as_deref().is_some_and(|r| r.contains("audited")));
    }

    #[test]
    fn directive_without_reason_has_none() {
        for src in [
            "// detlint::allow(no-wall-clock)",
            "// detlint::allow(no-wall-clock):",
            "// detlint::allow(no-wall-clock):   ",
        ] {
            let lexed = lex(src);
            assert_eq!(lexed.directives.len(), 1, "{src}");
            assert_eq!(lexed.directives[0].reason, None, "{src}");
        }
    }

    #[test]
    fn directive_in_block_comment_multiline() {
        let src = "/* line one\n detlint::allow(no-wall-clock): bench-only \n*/";
        let lexed = lex(src);
        assert_eq!(lexed.directives.len(), 1);
        assert_eq!(lexed.directives[0].line, 2);
    }

    // -- raw-string edge cases -------------------------------------------
    // The flow rules parse item structure from this token stream, so a raw
    // string that leaks contents (or swallows following code) would corrupt
    // every downstream analysis, not just one finding.

    #[test]
    fn raw_string_hash_runs_terminate_exactly() {
        // Interior `"#` runs shorter than the opener must not close r##"..."##.
        let src = r####"let a = r##"quote "# inside"##; unsafe {}"####;
        let lexed = lex(src);
        let strs: Vec<&str> = lexed
            .tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec![r##"quote "# inside"##]);
        assert!(idents(src).contains(&"unsafe".to_string()), "code after the raw string lexes");
    }

    #[test]
    fn raw_string_without_hashes_and_byte_raw_strings() {
        // r"..." (zero hashes) closes at the first quote; `#` inside stays.
        assert_eq!(
            lex(r#"let a = r"x # y";"#)
                .tokens
                .iter()
                .filter_map(|t| match &t.tok {
                    Tok::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect::<Vec<_>>(),
            vec!["x # y".to_string()]
        );
        // br#"..."# byte raw strings take the same path.
        let ids = idents(r##"let b = br#"HashMap unsafe"#; fn tail() {}"##);
        assert!(ids.contains(&"tail".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"unsafe".to_string()));
    }

    #[test]
    fn raw_string_multiline_counts_lines() {
        let src = "let a = r#\"one\ntwo\"#;\nfn after() {}";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("after".to_string()))
            .expect("after ident present");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn raw_identifiers_are_not_keywords() {
        // `r#unsafe` is a *binding named "unsafe"*, not the unsafe keyword;
        // emitting the bare name fabricated keyword tokens.
        let ids = idents("let r#unsafe = 1; let r#match = r#unsafe;");
        assert!(!ids.contains(&"unsafe".to_string()), "raw ident leaked as keyword");
        assert!(!ids.contains(&"match".to_string()));
        assert_eq!(ids.iter().filter(|s| *s == "r#unsafe").count(), 2);
        // A plain `r` binding is untouched by the raw-prefix sniffing.
        assert!(idents("let r = 5;").contains(&"r".to_string()));
    }

    // -- nested block comment edge cases ---------------------------------

    #[test]
    fn nested_comment_openers_and_closers_pair_like_rustc() {
        // `/*/` opens without closing (the `/` is content); `/**/` both
        // opens and closes; overlapping `* /*` runs must not double-count.
        for (src, visible) in [
            ("/* a /* b */ c */ fn x() {}", "x"),
            ("/*/ still a comment */ fn y() {}", "y"),
            ("/* /**/ */ fn z() {}", "z"),
            ("/* /* /* deep */ */ unsafe */ fn w() {}", "w"),
            ("/** doc-style ** with stars **/ fn v() {}", "v"),
        ] {
            let ids = idents(src);
            assert!(ids.contains(&visible.to_string()), "{src}: code after comment lost");
            assert!(!ids.contains(&"unsafe".to_string()), "{src}: comment text leaked");
            assert!(
                !ids.iter().any(|s| s == "a" || s == "b" || s == "c" || s == "deep"),
                "{src}: comment text leaked"
            );
        }
    }

    #[test]
    fn unterminated_nested_comment_consumes_to_eof() {
        // Depth never returns to zero: everything after is comment, exactly
        // as rustc treats it (it would be a compile error; the linter must
        // simply not misclassify the text as code).
        assert!(idents("/* open /* deeper */ still open... unsafe").is_empty());
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let src = "let a = \"one\ntwo\nthree\";\nfn after() {}";
        let lexed = lex(src);
        let after = lexed
            .tokens
            .iter()
            .find(|t| t.tok == Tok::Ident("after".to_string()))
            .expect("after ident present");
        assert_eq!(after.line, 4);
    }
}
