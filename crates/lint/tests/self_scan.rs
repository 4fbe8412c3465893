//! The self-gate: the repository's own tree must scan clean, and every
//! suppression pragma in it must be active and justified. This is the
//! same check CI runs via `dbtune_lint --gate`, pinned as a test so
//! `cargo test` alone catches regressions. The clippy half of the gate
//! (the bans in the root `clippy.toml` and the `#[expect]`s that exempt
//! sites from them) is pinned here too, so that deleting a ban or adding
//! an exemption is visible to `cargo test`, not only to the CI job.

use dbtune_lint::{scanner, walk};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn repository_is_clean_under_gate() {
    let report = walk::scan_workspace(&root()).expect("workspace must be readable");
    assert!(report.is_clean(), "gate violations:\n{}", report.human());
    assert!(
        report.files_scanned >= 80,
        "suspiciously few files scanned ({}) — walk roots moved?",
        report.files_scanned
    );
    for p in &report.pragmas {
        assert!(p.used, "stale pragma at {}:{} (P2 should have caught this)", p.path, p.line);
        assert!(
            !p.justification.is_empty(),
            "pragma without justification at {}:{}",
            p.path,
            p.line
        );
    }
    // Pin the suppression inventory: a new pragma is a reviewable event,
    // not something that should slip in silently. Update the count (and
    // say why in the PR) when adding or removing one.
    assert_eq!(
        report.pragmas.len(),
        6,
        "active suppression count changed — review the new/removed pragma:\n{:#?}",
        report.pragmas
    );
}

#[test]
fn clippy_toml_keeps_the_migrated_bans() {
    let toml = fs::read_to_string(root().join("clippy.toml")).expect("root clippy.toml");
    let (methods, types) =
        toml.split_once("disallowed-types").expect("clippy.toml has a disallowed-types list");
    assert!(methods.contains("disallowed-methods"), "disallowed-methods must come first");
    let bans = [
        (methods, "std::time::Instant::now", "D2"),
        (methods, "std::time::SystemTime::now", "D2"),
        (methods, "std::panic::catch_unwind", "E2"),
        (methods, "std::boxed::Box::leak", "E3"),
        (methods, "std::mem::forget", "E3"),
        (types, "std::collections::HashMap", "D1"),
        (types, "std::collections::HashSet", "D1"),
    ];
    for (list, path, id) in bans {
        let entry = list
            .lines()
            .find(|l| l.contains(&format!("path = \"{path}\"")))
            .unwrap_or_else(|| panic!("`{path}` is no longer banned in clippy.toml"));
        assert!(
            entry.contains(&format!("reason = \"{id}: ")),
            "the reason for `{path}` must start with `{id}: `: {entry}"
        );
    }
}

/// `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn clippy_ban_exemptions_are_pinned() {
    let root = root();
    let mut files = Vec::new();
    let members = fs::read_dir(root.join("crates")).expect("crates/ must be readable");
    for member in members.filter_map(|e| e.ok().map(|e| e.path())) {
        rust_files(&member.join("src"), &mut files);
        rust_files(&member.join("tests"), &mut files);
    }
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    files.sort();

    // Attributes are matched on the lexer's cleaned code, whitespace
    // removed, so comments, strings and rustfmt's line breaks never
    // count. Both `#[expect(..)]` and `#![expect(..)]` end in this needle.
    let needle = concat!("[expect(clippy::", "disallowed_");
    let types = concat!("[expect(clippy::", "disallowed_types");
    let mut sites: Vec<(String, usize)> = Vec::new();
    let mut type_sites: Vec<String> = Vec::new();
    for path in &files {
        let source = fs::read_to_string(path).expect("source must be readable");
        let code: String = scanner::clean(&source)
            .iter()
            .flat_map(|l| l.code.chars())
            .filter(|c| !c.is_whitespace())
            .collect();
        let n = code.matches(needle).count();
        if n > 0 {
            let rel = path.strip_prefix(&root).unwrap_or(path).display().to_string();
            if code.contains(types) {
                type_sites.push(rel.clone());
            }
            sites.push((rel, n));
        }
    }
    // Pin the exemption inventory like the pragma count above: a new
    // exemption from a clippy.toml ban is a reviewable event. Update the
    // count (and say why in the PR) when adding or removing one.
    let total: usize = sites.iter().map(|(_, n)| n).sum();
    assert_eq!(total, 15, "clippy ban exemption count changed — review:\n{sites:#?}");
    // The hash-collection ban covers every first-party crate, so no
    // hash map can reach the results path unnoticed (the reason the
    // lint needs no cross-call iteration rule of its own).
    assert!(type_sites.is_empty(), "disallowed_types exemptions: {type_sites:?}");
}

/// The `path = "…"` values of every ban in a clippy.toml.
fn banned_paths(toml: &str) -> Vec<&str> {
    toml.lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .filter_map(|l| l.split_once("path = \"")?.1.split_once('"').map(|(p, _)| p))
        .collect()
}

#[test]
fn clippy_fixture_violates_every_ban() {
    // The known-bad corpus CI lints must keep up with clippy.toml: a ban
    // with no violation in it would go unchecked by the "must fail" step.
    let root = root();
    let toml = fs::read_to_string(root.join("clippy.toml")).expect("root clippy.toml");
    let fixture = root.join("lint_fixtures/clippy_workspace");
    let source = fs::read_to_string(fixture.join("src/lib.rs")).expect("fixture source");
    let code: String = scanner::clean(&source).iter().map(|l| l.code.as_str()).collect();
    let bans = banned_paths(&toml);
    assert_eq!(bans.len(), 7, "clippy.toml bans changed: {bans:?}");
    for path in bans {
        // Matched on the last two segments (`Box::leak` is in the
        // prelude): a call is followed by `(`, a type by its generics.
        let segs: Vec<&str> = path.rsplit("::").take(2).collect();
        let tail = format!("{}::{}", segs[1], segs[0]);
        let used = code.contains(&format!("{tail}(")) || code.contains(&format!("{tail}<"));
        assert!(used, "the clippy fixture never violates `{path}`");
    }
    // A standalone package: its own workspace table, and outside the root
    // workspace's members, so `cargo test` at the root never builds it.
    let manifest = fs::read_to_string(fixture.join("Cargo.toml")).expect("fixture manifest");
    assert!(manifest.lines().any(|l| l.trim() == "[workspace]"), "fixture needs [workspace]");
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(!root_manifest.contains("lint_fixtures"), "the fixture must not join the workspace");
}

#[test]
fn vendored_crates_get_no_bans() {
    // Clippy reads the nearest clippy.toml above each crate it lints, and
    // it lints the vendored path crates too; vendor/clippy.toml shadows
    // the root bans there (vendored serde uses HashMap).
    let toml = fs::read_to_string(root().join("vendor/clippy.toml"))
        .expect("vendor/clippy.toml keeps the first-party bans off vendored code");
    let settings: Vec<&str> =
        toml.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    assert!(settings.is_empty(), "vendor/clippy.toml must set nothing: {settings:?}");
}
