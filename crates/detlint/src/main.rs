//! The `detlint` binary: lints the whole workspace — per-file token rules
//! plus the cross-file actor-safety rules — and exits nonzero on any
//! finding. Wired into `scripts/verify.sh`; the same check also runs as the
//! facade test `tests/detlint.rs` so plain `cargo test` enforces it.
//!
//! Usage: `detlint [root] [--format human|json]`. The JSON output is a
//! stable, sorted array of findings for CI and editor integration.

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Human,
    Json,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Human;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("json") => format = Format::Json,
                Some("human") => format = Format::Human,
                other => {
                    eprintln!(
                        "detlint: --format expects `human` or `json`, got {other:?}"
                    );
                    return ExitCode::FAILURE;
                }
            },
            _ => root = Some(PathBuf::from(arg)),
        }
    }
    let root = root.unwrap_or_else(|| {
        // The crate lives at <workspace>/crates/detlint.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });
    let findings = detlint::lint_workspace(&root);
    match format {
        Format::Json => {
            // Hand-rolled, dependency-free; findings are already sorted by
            // (file, line, rule), so the output is byte-stable per tree.
            let mut out = String::from("[");
            for (i, f) in findings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n  {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \"hint\": {}}}",
                    json_str(&f.file),
                    f.line,
                    json_str(f.rule),
                    json_str(&f.message),
                    json_str(f.hint)
                ));
            }
            out.push_str(if findings.is_empty() { "]" } else { "\n]" });
            println!("{out}");
        }
        Format::Human => {
            if findings.is_empty() {
                println!("detlint: workspace clean ({} rules)", detlint::RULE_IDS.len());
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!(
                    "detlint: {} finding(s). Suppress only with `// detlint::allow(rule): reason`.",
                    findings.len()
                );
            }
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
