//! Exact-findings contract over the `lint_fixtures/demo_workspace`
//! corpus: any engine change that adds, drops, or moves a finding fails
//! here with a full diff of (path, line, rule) triples.

use dbtune_lint::walk;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint_fixtures/demo_workspace")
}

fn scan() -> dbtune_lint::report::Report {
    walk::scan_workspace(&fixture_root()).expect("fixture tree must be readable")
}

#[test]
fn fixture_corpus_exact_findings() {
    let report = scan();
    let got: Vec<(String, usize, String)> =
        report.findings.iter().map(|f| (f.path.clone(), f.line, f.rule.clone())).collect();
    let want: Vec<(String, usize, String)> = [
        ("crates/core/src/engine.rs", 6, "F1"),
        ("crates/core/src/engine.rs", 12, "E1"),
        ("crates/core/src/names.rs", 8, "M1"),
        ("crates/core/src/names.rs", 9, "M1"),
        ("crates/core/src/optimizer/acq.rs", 11, "F1"),
        ("crates/core/src/pragmas.rs", 13, "P1"),
        ("crates/core/src/pragmas.rs", 18, "P2"),
        ("crates/core/src/pragmas.rs", 23, "P3"),
        ("crates/core/src/pragmas.rs", 29, "P3"),
    ]
    .iter()
    .map(|(p, l, r)| (p.to_string(), *l, r.to_string()))
    .collect();
    assert_eq!(got, want, "fixture findings drifted — update the corpus or the engine");
    // Five files: the E1-exempt driver binary, the F1/E1 library file,
    // the M1 corpus, the F1 float-equality scope, and the pragma grammar.
    assert_eq!(report.files_scanned, 5);
}

#[test]
fn fixture_corpus_fails_the_gate() {
    let report = scan();
    assert!(!report.is_clean(), "the corpus must keep the gate red");
    let counts = report.counts();
    assert_eq!(counts.get("F1").copied(), Some(2));
    assert_eq!(counts.get("E1").copied(), Some(1));
    assert_eq!(counts.get("M1").copied(), Some(2));
    assert_eq!(counts.get("P1").copied(), Some(1));
    assert_eq!(counts.get("P2").copied(), Some(1));
    assert_eq!(counts.get("P3").copied(), Some(2));
}

#[test]
fn fixture_pragma_audit_trail() {
    let report = scan();
    // Two well-formed suppressions actually suppress (the standalone
    // allow(E1) in pragmas.rs and the allow(M1) legacy key in names.rs),
    // and both carry a non-empty justification.
    let used: Vec<&dbtune_lint::report::PragmaRecord> =
        report.pragmas.iter().filter(|p| p.used).collect();
    assert_eq!(used.len(), 2, "{:?}", report.pragmas);
    assert!(used.iter().all(|p| !p.justification.is_empty()));
    assert!(used.iter().any(|p| p.path.ends_with("pragmas.rs") && p.rules == ["E1"]));
    assert!(used.iter().any(|p| p.path.ends_with("names.rs") && p.rules == ["M1"]));
}

#[test]
fn fixture_json_report_round_trips_key_facts() {
    let report = scan();
    let json = report.to_json();
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"files_scanned\": 5"));
    assert!(json.contains("\"F1\": 2"));
    assert!(json.contains("\"P3\": 2"));
    assert!(json.contains("\"M1\": 2"));
    assert!(json.contains("crates/core/src/engine.rs"));
    assert!(
        json.contains("fixture demonstrating a standalone pragma"),
        "justifications reach the JSON report"
    );
    // Human rendering keeps the grep-able path:line: RULE shape.
    let human = report.human();
    assert!(human.contains("crates/core/src/engine.rs:6: F1 — "));
    assert!(human.contains("9 finding(s) in 5 file(s); 2 active suppression(s)"));
}
