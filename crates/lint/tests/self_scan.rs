//! The self-gate: the repository's own tree must scan clean, and every
//! suppression pragma in it must be active and justified. This is the
//! same check CI runs via `dbtune_lint --gate`, pinned as a test so
//! `cargo test` alone catches regressions.

use dbtune_lint::walk;
use std::path::Path;

#[test]
fn repository_is_clean_under_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = walk::scan_workspace(&root).expect("workspace must be readable");
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
        15,
        "active suppression count changed — review the new/removed pragma:\n{:#?}",
        report.pragmas
    );
}
