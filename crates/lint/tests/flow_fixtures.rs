//! Exact-findings contract over `lint_fixtures/flow_workspace` — the
//! corpus for the graph-level determinism (R) and concurrency (C)
//! families. Each rule the corpus exists to exercise must fire at its
//! annotated site, and the corpus must keep the gate red.

use dbtune_lint::walk;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint_fixtures/flow_workspace")
}

fn scan() -> dbtune_lint::report::Report {
    walk::scan_workspace(&fixture_root()).expect("fixture tree must be readable")
}

#[test]
fn flow_corpus_exact_findings() {
    let report = scan();
    let got: Vec<(String, usize, String)> =
        report.findings.iter().map(|f| (f.path.clone(), f.line, f.rule.clone())).collect();
    let want: Vec<(String, usize, String)> = [
        ("crates/core/src/exec.rs", 7, "C1"),
        ("crates/core/src/exec.rs", 15, "C2"),
        ("crates/core/src/exec.rs", 22, "C2"),
        ("crates/core/src/exec.rs", 30, "C2"),
        ("crates/core/src/exec.rs", 42, "C2"),
        ("crates/core/src/pipeline.rs", 6, "R3"),
        ("crates/core/src/pipeline.rs", 12, "R4"),
        ("crates/obs/src/probe.rs", 8, "R1"),
    ]
    .iter()
    .map(|(p, l, r)| (p.to_string(), *l, r.to_string()))
    .collect();
    assert_eq!(got, want, "flow-corpus findings drifted — update the corpus or the engine");
    assert_eq!(report.files_scanned, 3);
}

#[test]
fn flow_corpus_fails_the_gate_with_every_family_member() {
    let report = scan();
    assert!(!report.is_clean(), "the corpus must keep the gate red");
    let counts = report.counts();
    // Each rule this corpus exists for must fire at least once — a pass
    // that silently stops matching its own known-bad input is the
    // failure mode this test pins.
    for rule in ["R1", "R3", "R4", "C1", "C2"] {
        assert!(
            counts.get(rule).copied().unwrap_or(0) >= 1,
            "rule {rule} found nothing in its known-bad corpus: {counts:?}"
        );
    }
}

#[test]
fn flow_corpus_c2_findings_come_in_pairs() {
    let report = scan();
    let c2: Vec<_> = report.findings.iter().filter(|f| f.rule == "C2").collect();
    assert_eq!(c2.len(), 4, "two inversions, two sites each: {c2:?}");
    // Each message names the opposite-order site, so either end of an
    // inversion leads the reader to the other.
    assert!(c2.iter().all(|f| f.message.contains("opposite order occurs at")));
}
