//! The lint configuration is wired: clippy's disallowed-item lists name
//! every banned path, the workspace denies the lints that read them, every
//! crate takes the workspace lints, and every protocol hot-path root denies
//! panics without a stated invariant (DESIGN.md §5). That the lints fire is
//! shown by `scripts/verify.sh` on the planted violations of
//! `scripts/lint-fixture`.

use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    std::fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The non-blank, non-comment lines of a TOML table, trimmed.
fn table(toml: &str, header: &str) -> Vec<String> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

const WALL_CLOCK: &[&str] = &[
    "std::time::Instant",
    "std::time::SystemTime",
    "std::thread::spawn",
    "std::thread::Builder::spawn",
];

const SEED_AND_DISK: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
    "std::fs::OpenOptions",
    "std::fs::File::sync_all",
    "std::fs::File::sync_data",
];

fn bans(config: &str, path: &str) -> bool {
    config.contains(&format!("path = \"{path}\""))
}

#[test]
fn clippy_toml_names_every_banned_path() {
    let workspace = read("clippy.toml");
    for path in SEED_AND_DISK.iter().chain(WALL_CLOCK) {
        assert!(bans(&workspace, path), "clippy.toml does not ban {path}");
    }
    assert!(workspace.contains("allow-unwrap-in-tests = true"));
    // The bench crate measures real time: the same list, wall clock aside.
    let bench = read("crates/bench/clippy.toml");
    for path in SEED_AND_DISK {
        assert!(
            bans(&bench, path),
            "crates/bench/clippy.toml does not ban {path}"
        );
    }
    for path in WALL_CLOCK {
        assert!(
            !bans(&bench, path),
            "crates/bench/clippy.toml bans the wall clock ({path})"
        );
    }
}

#[test]
fn the_workspace_denies_the_lints() {
    let manifest = read("Cargo.toml");
    let clippy = table(&manifest, "[workspace.lints.clippy]");
    for lint in [
        "disallowed_types",
        "disallowed_methods",
        "allow_attributes_without_reason",
    ] {
        assert!(
            clippy.contains(&format!("{lint} = \"deny\"")),
            "clippy::{lint} is not denied"
        );
    }
    let rust = table(&manifest, "[workspace.lints.rust]");
    assert!(rust.contains(&"unfulfilled_lint_expectations = \"deny\"".to_string()));
}

#[test]
fn every_member_crate_takes_the_workspace_lints() {
    let mut manifests = vec![root().join("Cargo.toml")];
    for entry in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "the member crates were not found");
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        assert_eq!(
            table(&text, "[lints]"),
            ["workspace = true"],
            "{}",
            manifest.display()
        );
    }
}

#[test]
fn every_hot_path_root_denies_panics() {
    for root in [
        "crates/bft/src/replica.rs",
        "crates/cicero-core/src/switch.rs",
        "crates/cicero-core/src/engine.rs",
        "crates/cicero-core/src/ctrl/mod.rs",
        "crates/controller/src/lib.rs",
    ] {
        assert!(
            read(root)
                .contains("\n#![deny(clippy::unwrap_used, clippy::todo, clippy::unimplemented)]\n"),
            "{root} does not deny unwrap/todo!/unimplemented!"
        );
    }
}

/// `.rs` files under `dir`, build outputs and the standalone benchmark
/// package (checked by its own clippy run) aside.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir()
            && !["target", "e2e", "lint-fixture"].contains(&name)
            && !name.starts_with('.')
        {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn only_the_boundary_files_expect_a_disallowed_lint() {
    let mut files = Vec::new();
    rust_files(root(), &mut files);
    let this = Path::new(file!()).file_name().expect("file name");
    let mut carriers: Vec<String> = files
        .iter()
        .filter(|f| f.file_name() != Some(this))
        .filter(|f| {
            std::fs::read_to_string(f)
                .expect("source")
                .contains("clippy::disallowed_")
        })
        .map(|f| {
            f.strip_prefix(root())
                .expect("under the root")
                .display()
                .to_string()
        })
        .collect();
    carriers.sort();
    assert_eq!(
        carriers,
        [
            "crates/cicero-node/src/clock.rs",
            "crates/cicero-node/src/disk.rs",
            "crates/substrate/src/benchkit.rs",
            "crates/substrate/src/sync.rs",
        ]
    );
}
