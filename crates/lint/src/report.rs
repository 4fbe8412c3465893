//! Report types and rendering: human `path:line: RULE — message` lines
//! plus a hand-rolled machine-readable JSON document (the crate is
//! std-only by design, so no serde).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, one of [`crate::RULE_IDS`].
    pub rule: String,
    /// Human explanation with the suggested fix.
    pub message: String,
}

/// One `// lint:` pragma seen in the tree, with its audit trail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PragmaRecord {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number of the pragma comment.
    pub line: usize,
    /// Rule ids the pragma names.
    pub rules: Vec<String>,
    /// The stated justification (the acceptance contract: never empty for
    /// a well-formed pragma).
    pub justification: String,
    /// Whether the pragma actually suppressed a finding.
    pub used: bool,
}

/// Aggregate result of scanning a workspace (or fixture corpus).
#[derive(Debug, Default)]
pub struct Report {
    /// Scan root, as given.
    pub root: String,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Wall-clock duration of the scan, in milliseconds. Telemetry
    /// about the lint run itself — never part of any gating decision.
    pub wall_ms: u64,
    /// All unsuppressed findings, ordered by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Every pragma in the tree (used or not), ordered by (path, line).
    pub pragmas: Vec<PragmaRecord>,
}

impl Report {
    /// True when the gate should pass.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings per rule id.
    pub fn counts(&self) -> BTreeMap<String, usize> {
        let mut c = BTreeMap::new();
        for f in &self.findings {
            *c.entry(f.rule.clone()).or_insert(0) += 1;
        }
        c
    }

    /// `path:line: RULE — message` lines plus a one-line summary.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: {} — {}", f.path, f.line, f.rule, f.message);
        }
        let suppressions = self.pragmas.iter().filter(|p| p.used).count();
        let _ = writeln!(
            out,
            "dbtune-lint: {} finding(s) in {} file(s); {} active suppression(s)",
            self.findings.len(),
            self.files_scanned,
            suppressions
        );
        out
    }

    /// The machine-readable report (schema documented in
    /// `docs/static-analysis.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": 2,");
        let _ = writeln!(out, "  \"root\": {},", json_str(&self.root));
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall_ms);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        out.push_str("  \"counts\": {");
        let counts = self.counts();
        let mut first = true;
        for (rule, n) in &counts {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "{}: {}", json_str(rule), n);
        }
        out.push_str("},\n");
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.path),
                f.line,
                json_str(&f.rule),
                json_str(&f.message)
            );
            out.push_str(if i + 1 < self.findings.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"pragmas\": [\n");
        for (i, p) in self.pragmas.iter().enumerate() {
            let rules: Vec<String> = p.rules.iter().map(|r| json_str(r)).collect();
            let _ = write!(
                out,
                "    {{\"path\": {}, \"line\": {}, \"rules\": [{}], \"justification\": {}, \"used\": {}}}",
                json_str(&p.path),
                p.line,
                rules.join(", "),
                json_str(&p.justification),
                p.used
            );
            out.push_str(if i + 1 < self.pragmas.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// JSON string literal with escaping.
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            root: ".".into(),
            files_scanned: 2,
            wall_ms: 12,
            findings: vec![Finding {
                path: "crates/x/src/a.rs".into(),
                line: 7,
                rule: "F1".into(),
                message: "has \"quotes\" and\nnewline".into(),
            }],
            pragmas: vec![PragmaRecord {
                path: "crates/x/src/b.rs".into(),
                line: 3,
                rules: vec!["C1".into()],
                justification: "telemetry only".into(),
                used: true,
            }],
        }
    }

    #[test]
    fn human_format_is_path_line_rule_message() {
        let h = sample().human();
        assert!(h.starts_with("crates/x/src/a.rs:7: F1 — "), "{h}");
        assert!(h.contains("1 finding(s) in 2 file(s); 1 active suppression(s)"));
    }

    #[test]
    fn json_escapes_and_counts() {
        let j = sample().to_json();
        assert!(j.contains("\"version\": 2"), "{j}");
        assert!(j.contains("\"wall_ms\": 12"), "{j}");
        assert!(j.contains("\"counts\": {\"F1\": 1}"), "{j}");
        assert!(j.contains("has \\\"quotes\\\" and\\nnewline"));
        assert!(j.contains("\"justification\": \"telemetry only\""));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report { root: ".".into(), files_scanned: 0, ..Default::default() };
        assert!(r.is_clean());
        assert!(r.to_json().contains("\"clean\": true"));
    }
}
