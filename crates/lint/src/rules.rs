//! The line rules: a brace-aware pass over cleaned source lines (see
//! [`crate::scanner`]) enforcing the repo's hygiene invariants that no
//! clippy lint can state.
//!
//! | rule | invariant                                                        |
//! |------|------------------------------------------------------------------|
//! | F1   | no `partial_cmp(..).unwrap()/.expect(..)` (NaN panic hazard —    |
//! |      | use `dbtune_linalg::ord`), and no float-literal `==`/`!=`        |
//! |      | against non-zero literals in optimizer/ml code                   |
//! | E1   | no `.expect("")` in library code (bench binaries and             |
//! |      | `#[cfg(test)]` modules exempt)                                   |
//! | M1   | metric/span name literals (`.counter("…")`, `span("…")`, …)     |
//! |      | must be lowercase dotted snake (`[a-z0-9_.]+`) so journal keys,  |
//! |      | diff whitelists, and diag session labels stay grep-stable        |
//! | C1   | `Ordering::Relaxed` load used as a branch guard in the           |
//! |      | executor/obs concurrency scope — relaxed loads carry no          |
//! |      | happens-before edge, so data published by another thread may     |
//! |      | not be visible yet (the memprof latch gets a documented pragma)  |
//! | P1   | pragma is malformed (bad grammar, no reason)                     |
//! | P2   | pragma suppresses nothing — stale suppressions must be removed   |
//! | P3   | pragma's `allow(…)` names a rule id no rule defines              |
//!
//! The path bans — hash collections, wall-clock reads, `catch_unwind`,
//! `Box::leak`/`mem::forget`, and `.unwrap()` — live in the root
//! `clippy.toml` and `[workspace.lints]`, where clippy resolves them by
//! type instead of by text.
//!
//! The workspace-level passes in [`crate::passes`] add three more
//! families over the call graph ([`crate::graph`]): **R** (determinism
//! taint reachable from results paths: R1 clock laundering, R2 RNG
//! laundering, R3 env reads, R4 thread-id), **C2** (inconsistent
//! lock-acquisition order across the call graph), and **S** (telemetry
//! schema drift between code, `docs/observability.md`, and the
//! `dbtune-trace::diff` policy table: S1 undocumented emitter, S2
//! documented-but-dead name, S3 policy entry with no emitter).

use crate::pragma::{self, Pragma};
use crate::report::{Finding, PragmaRecord};
use crate::scanner::{self, is_ident_char};

/// Every rule id the engine can emit (and `allow(..)` can name).
pub const RULE_IDS: &[&str] =
    &["F1", "E1", "M1", "R1", "R2", "R3", "R4", "C1", "C2", "S1", "S2", "S3", "P1", "P2", "P3"];

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/bench/src/bin`: driver binaries, exempt from E1.
    pub bench_bin: bool,
    /// Optimizer/ML code (`crates/ml`, `core/src/optimizer`,
    /// `core/src/importance`): F1's float-literal equality check applies.
    pub float_eq_scope: bool,
    /// The cross-thread machinery (`core/src/exec.rs` and `crates/obs`):
    /// the concurrency hygiene rules C1/C2 apply here.
    pub conc_scope: bool,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel: &str) -> FileClass {
    let r = rel.trim_start_matches("./");
    FileClass {
        bench_bin: r.starts_with("crates/bench/src/bin/"),
        float_eq_scope: r.starts_with("crates/ml/src")
            || r.starts_with("crates/core/src/optimizer")
            || r.starts_with("crates/core/src/importance"),
        conc_scope: r == "crates/core/src/exec.rs" || r.starts_with("crates/obs/"),
    }
}

/// Telemetry registration calls whose literal name argument M1 validates.
const METRIC_CALLS: &[&str] = &["counter", "gauge", "span"];

/// Scans one file's source and resolves its pragmas locally. `path` is
/// recorded in findings verbatim. The workspace walker uses
/// [`scan_file_raw`] + [`resolve_suppressions`] instead, so pragmas can
/// also suppress the graph-level R/C/S findings merged in between.
pub fn scan_source(
    path: &str,
    class: FileClass,
    source: &str,
) -> (Vec<Finding>, Vec<PragmaRecord>) {
    let (raw, pragmas) = scan_file_raw(path, class, source);
    resolve_suppressions(path, raw, pragmas)
}

/// Runs the line rules over one file, returning unsuppressed findings
/// plus the parsed pragmas (suppression is resolved separately).
pub fn scan_file_raw(path: &str, class: FileClass, source: &str) -> (Vec<Finding>, Vec<Pragma>) {
    let lines = scanner::clean(source);
    let raw_lines: Vec<&str> = source.lines().collect();
    let mut blocks = Blocks::default();
    let mut raw: Vec<Finding> = Vec::new();
    let mut pragmas: Vec<Pragma> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = line.code.as_str();
        if let Some(body) = &line.pragma {
            pragmas.push(pragma::parse(lineno, body, code.trim().is_empty()));
        }
        let in_test = blocks.in_test();

        let mut push = |rule: &str, msg: String| {
            raw.push(Finding {
                path: path.to_string(),
                line: lineno,
                rule: rule.to_string(),
                message: msg,
            });
        };

        // F1 — NaN-panicking float comparison.
        if partial_cmp_unwrapped(&lines, idx) {
            push(
                "F1",
                "`partial_cmp(..)` immediately unwrapped panics on NaN — use the total-order \
                 helpers in dbtune_linalg::ord (cmp_f64 / cmp_score / cmp_score_desc)"
                    .to_string(),
            );
        }
        if class.float_eq_scope && !in_test {
            if let Some(lit) = nonzero_float_eq(code) {
                push(
                    "F1",
                    format!(
                        "bare float equality against `{lit}` is rounding/NaN-hazardous in \
                         optimizer/ml code — compare with an epsilon or restructure"
                    ),
                );
            }
        }

        // E1 — a panic message that says nothing.
        if !class.bench_bin && !in_test && code.contains(".expect(\"\")") {
            push("E1", "`.expect(\"\")` carries no context — write a real message".to_string());
        }

        // C1 — relaxed atomic load guarding a branch in the cross-thread
        // machinery. A relaxed load may observe the flag before the data
        // it advertises is visible; publication guards need Acquire (and
        // the store side Release). The memprof latch is the sanctioned
        // exception, carried on documented pragmas.
        if class.conc_scope
            && !in_test
            && code.contains(".load(Ordering::Relaxed)")
            && (contains_token(code, "if") || contains_token(code, "while"))
        {
            push(
                "C1",
                "`Ordering::Relaxed` load used as a branch guard — relaxed loads carry no \
                 happens-before edge, so data published by the storing thread may not be \
                 visible yet. Use `Ordering::Acquire` (paired with a Release store), or \
                 annotate `// lint: allow(C1) <why relaxed is sound here>`"
                    .to_string(),
            );
        }

        // M1 — metric/span name literals. The scanner masks string
        // bodies, so the names are read back from the raw source line at
        // call sites the cleaned line confirms are real code.
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");
        for name in metric_name_literals(code, raw_line) {
            if !is_metric_slug(&name) {
                push(
                    "M1",
                    format!(
                        "telemetry name `{name}` is not a lowercase dotted slug ([a-z0-9_.]+) — \
                         journal keys, baseline-diff whitelists, and diag session labels all \
                         match on these strings verbatim"
                    ),
                );
            }
        }

        blocks.advance(code);
    }

    (raw, pragmas)
}

/// Applies pragma suppressions to one file's findings and emits the
/// P1/P2/P3 pragma diagnostics. `raw` may include graph-level R/C/S
/// findings the workspace passes attributed to this file.
pub fn resolve_suppressions(
    path: &str,
    raw: Vec<Finding>,
    mut pragmas: Vec<Pragma>,
) -> (Vec<Finding>, Vec<PragmaRecord>) {
    let mut used = vec![false; pragmas.len()];
    let mut findings: Vec<Finding> = Vec::new();

    for f in raw {
        let mut suppressed = false;
        for (i, p) in pragmas.iter().enumerate() {
            if p.malformed.is_some() || !p.covers(&f.rule) {
                continue;
            }
            // Trailing pragma covers its own line; standalone covers next.
            let applies =
                (p.line == f.line && !p.standalone) || (p.standalone && p.line + 1 == f.line);
            if applies {
                used[i] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    for (i, p) in pragmas.iter().enumerate() {
        if let Some(why) = &p.malformed {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P1".to_string(),
                message: format!("malformed lint pragma: {why}"),
            });
            continue;
        }
        if !p.unknown.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P3".to_string(),
                message: format!(
                    "allow() names unknown rule id(s) {:?}; known rules are {:?}",
                    p.unknown, RULE_IDS
                ),
            });
        }
        // Stale check: only pragmas whose *known* rules all suppressed
        // nothing. An unknown-id pragma already carries the P3 above.
        if !used[i] && p.unknown.is_empty() {
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: "P2".to_string(),
                message: "lint pragma suppresses nothing — remove it or move it onto the \
                          offending line"
                    .to_string(),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    let records = pragmas
        .drain(..)
        .zip(used)
        .map(|(p, u)| PragmaRecord {
            path: path.to_string(),
            line: p.line,
            rules: p.rules,
            justification: p.justification,
            used: u,
        })
        .collect();
    (findings, records)
}

/// Brace tracker: which open blocks were opened under `#[cfg(test)]`.
#[derive(Default)]
struct Blocks {
    /// One entry per open `{`: true when a `#[cfg(test)]` attribute
    /// opened it.
    cfg_test: Vec<bool>,
    /// Statement head: text since the last `{`, `}` or `;`, used to
    /// classify the next opened block.
    head: String,
}

impl Blocks {
    /// True inside test-only code.
    fn in_test(&self) -> bool {
        self.cfg_test.iter().any(|&t| t)
    }

    /// Feeds a cleaned line through the brace tracker.
    fn advance(&mut self, code: &str) {
        for c in code.chars() {
            match c {
                '{' => {
                    let cfg_test =
                        self.head.contains("#[cfg(test)]") || self.head.contains("#[cfg(all(test");
                    self.cfg_test.push(cfg_test);
                    self.head.clear();
                }
                '}' => {
                    self.cfg_test.pop();
                    self.head.clear();
                }
                ';' => self.head.clear(),
                _ => {
                    self.head.push(c);
                    if self.head.len() > 512 {
                        // Bound the head; block keywords sit near the `{`.
                        let cut = self.head.len() - 256;
                        self.head.drain(..cut);
                    }
                }
            }
        }
    }
}

/// True when `needle` occurs in `hay` as a standalone token (not embedded
/// in a longer identifier/path segment).
fn contains_token(hay: &str, needle: &str) -> bool {
    token_positions(hay, needle).next().is_some()
}

/// Byte positions of token-boundary occurrences of `needle`.
fn token_positions<'a>(hay: &'a str, needle: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(rel) = hay[from..].find(needle) {
            let pos = from + rel;
            from = pos + needle.len();
            let before_ok =
                pos == 0 || !is_ident_char(hay[..pos].chars().next_back().unwrap_or(' '));
            let after_ok =
                hay[pos + needle.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
            if before_ok && after_ok {
                return Some(pos);
            }
        }
        None
    })
}

/// True when line `idx` contains a `partial_cmp(..)` whose call chain
/// continues (possibly on the next two lines) with `.unwrap()` or
/// `.expect(`.
fn partial_cmp_unwrapped(lines: &[scanner::CleanLine], idx: usize) -> bool {
    let code = lines[idx].code.as_str();
    let Some(pos) = code.find("partial_cmp") else { return false };
    // Join a small lookahead window so multi-line chains resolve.
    let mut joined = String::from(&code[pos..]);
    for l in lines.iter().skip(idx + 1).take(2) {
        joined.push('\n');
        joined.push_str(&l.code);
    }
    let bytes: Vec<char> = joined.chars().collect();
    let mut i = "partial_cmp".len();
    while i < bytes.len() && bytes[i].is_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&'(') {
        return false;
    }
    let mut depth = 0i32;
    while i < bytes.len() {
        match bytes[i] {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let tail: String = bytes[i..].iter().collect();
    let tail = tail.trim_start();
    tail.starts_with(".unwrap()") || tail.starts_with(".expect(")
}

/// Returns the offending literal when the line compares floats with
/// `==`/`!=` against a non-zero float literal.
fn nonzero_float_eq(code: &str) -> Option<String> {
    for op in ["==", "!="] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(op) {
            let pos = from + rel;
            from = pos + op.len();
            // Skip `<=`, `>=`, `=>`-adjacent matches for `==`.
            if op == "==" {
                let prev = code[..pos].chars().next_back();
                if matches!(prev, Some('<' | '>' | '=' | '!')) {
                    continue;
                }
            }
            let right = code[pos + op.len()..].trim_start();
            if let Some(lit) = leading_float_literal(right) {
                if literal_is_nonzero(&lit) {
                    return Some(lit);
                }
            }
            if let Some(lit) = trailing_float_literal(code[..pos].trim_end()) {
                if literal_is_nonzero(&lit) {
                    return Some(lit);
                }
            }
        }
    }
    None
}

/// A float literal (must contain `.`) at the start of `s`.
fn leading_float_literal(s: &str) -> Option<String> {
    let s = s.strip_prefix('-').map(|r| r.trim_start()).unwrap_or(s);
    let lit: String =
        s.chars().take_while(|&c| c.is_ascii_digit() || c == '.' || c == '_').collect();
    (lit.contains('.') && lit.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(lit)
}

/// A float literal (must contain `.`) at the end of `s`.
fn trailing_float_literal(s: &str) -> Option<String> {
    let rev: String =
        s.chars().rev().take_while(|&c| c.is_ascii_digit() || c == '.' || c == '_').collect();
    let lit: String = rev.chars().rev().collect();
    let prev = s[..s.len() - lit.len()].chars().next_back();
    if prev.is_some_and(is_ident_char) {
        return None;
    }
    (lit.contains('.') && lit.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(lit)
}

/// Zero comparisons (`== 0.0`) are the idiomatic guard against division
/// by zero and stay legal; anything else is flagged.
fn literal_is_nonzero(lit: &str) -> bool {
    lit.replace('_', "").parse::<f64>().map(|v| v != 0.0).unwrap_or(false)
}

/// Byte positions in `hay` where token `call` is immediately followed by
/// `("` — a telemetry registration passing a literal name.
fn call_literal_positions<'a>(hay: &'a str, call: &'a str) -> impl Iterator<Item = usize> + 'a {
    token_positions(hay, call).filter(move |&pos| hay[pos + call.len()..].starts_with("(\""))
}

/// The string literals passed as name arguments to telemetry calls on
/// this line. `code` (the cleaned line) gates the check — occurrences
/// that lived only in comments or strings were cleaned away — and `raw`
/// (the original line) supplies the literal text the scanner masked.
fn metric_name_literals(code: &str, raw: &str) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for call in METRIC_CALLS {
        if call_literal_positions(code, call).next().is_none() {
            continue;
        }
        for pos in call_literal_positions(raw, call) {
            let start = pos + call.len() + 2;
            if let Some(len) = raw[start..].find('"') {
                names.push(raw[start..start + len].to_string());
            }
        }
    }
    names
}

/// M1's alphabet: lowercase dotted snake, the shape every journal key,
/// diff whitelist, and diag session label in the repo greps for.
fn is_metric_slug(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<(usize, String)> {
        let (fs, _) = scan_source(path, classify(path), src);
        fs.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn f1_partial_cmp_unwrap_same_and_next_line() {
        let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    xs.sort_by(|a, b| a.partial_cmp(b)\n        .expect(\"NaN\"));\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "F1".into()), (3, "F1".into())]);
    }

    #[test]
    fn f1_float_eq_only_in_optimizer_ml_scope() {
        let src = "fn f(x: f64) -> bool { x == 2.0 }\n";
        assert_eq!(findings("crates/ml/src/x.rs", src), vec![(1, "F1".into())]);
        assert!(findings("crates/dbsim/src/x.rs", src).is_empty());
        // Zero guards stay legal.
        assert!(findings("crates/ml/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }\n").is_empty());
    }

    #[test]
    fn e1_empty_expect_rules() {
        let src = "fn f(x: Option<u32>) { x.expect(\"\"); }\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(1, "E1".into())]);
        // Bench binaries are exempt.
        assert!(findings("crates/bench/src/bin/fig1.rs", src).is_empty());
        // Test modules are exempt.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.expect(\"\"); }\n}\n";
        assert!(findings("crates/core/src/x.rs", test_src).is_empty());
        // A non-empty expect passes; `.unwrap()` is clippy's (`unwrap_used`).
        assert!(findings("crates/core/src/x.rs", "fn f(x: Option<u32>) { x.expect(\"ctx\"); }\n")
            .is_empty());
        assert!(
            findings("crates/core/src/x.rs", "fn f(x: Option<u32>) { x.unwrap(); }\n").is_empty()
        );
    }

    #[test]
    fn m1_flags_non_slug_telemetry_names() {
        let src = "fn f(t: &Telemetry) {\n    t.metrics.counter(\"exec.cache.hits\").inc();\n    t.metrics.counter(\"Exec.CacheHits\").inc();\n    let _s = span(\"suggest phase\");\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(3, "M1".into()), (4, "M1".into())]);
    }

    #[test]
    fn m1_ignores_comments_dynamic_names_and_unrelated_calls() {
        // A commented-out call, a non-literal name, and a lookalike
        // identifier must all stay silent.
        let src = "fn f(t: &Telemetry, name: &str) {\n    // t.metrics.counter(\"Old Name\").inc();\n    t.metrics.counter(name).inc();\n    my_span(\"Not A Telemetry Call\");\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn m1_applies_in_tests_and_telemetry_crates_and_takes_pragmas() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(t: &Telemetry) { t.metrics.gauge(\"Queue Depth\").set(1); }\n}\n";
        assert_eq!(findings("crates/obs/src/x.rs", src), vec![(3, "M1".into())]);
        let allowed = "fn f(t: &Telemetry) {\n    t.metrics.gauge(\"legacy-latency\"); // lint: allow(M1) legacy dashboard key\n}\n";
        assert!(findings("crates/core/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn c1_relaxed_guard_in_conc_scope() {
        let src = "fn f() {\n    if READY.load(Ordering::Relaxed) { publish(); }\n}\n";
        assert_eq!(findings("crates/core/src/exec.rs", src), vec![(2, "C1".into())]);
        assert_eq!(findings("crates/obs/src/x.rs", src), vec![(2, "C1".into())]);
        // Outside the cross-thread machinery the line rule stays silent.
        assert!(findings("crates/core/src/tuner.rs", src).is_empty());
        // A plain relaxed load (counter read, no branch) is fine.
        let plain = "fn g(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert!(findings("crates/core/src/exec.rs", plain).is_empty());
        // An Acquire guard is the fix.
        let acq = "fn h() { if READY.load(Ordering::Acquire) { publish(); } }\n";
        assert!(findings("crates/core/src/exec.rs", acq).is_empty());
        // Tests are exempt; the pragma escape hatch works.
        let test_src =
            "#[cfg(test)]\nmod tests {\n    fn f() { while F.load(Ordering::Relaxed) {} }\n}\n";
        assert!(findings("crates/obs/src/x.rs", test_src).is_empty());
        let allowed = "fn f() {\n    if L.load(Ordering::Relaxed) { t(); } // lint: allow(C1) latch is monotonic\n}\n";
        assert!(findings("crates/obs/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn pragma_diagnostics_p3_unknown_rule() {
        let src = "fn f() {\n    let y = 1; // lint: allow(Z9) not a rule\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P3".into())]);
        // Mixed list: the known id still suppresses, the unknown still
        // surfaces — no P2 piggybacks on the same pragma.
        let mixed =
            "fn f(x: Option<u32>) {\n    x.expect(\"\"); // lint: allow(E1, Z9) demo mixed\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", mixed), vec![(2, "P3".into())]);
    }

    #[test]
    fn retired_rule_pragma_is_p3() {
        // D1–D3, E2 and E3 moved to clippy.toml; a leftover pragma naming
        // one of them is an unknown id, so a missed migration fails the gate.
        let src = "fn f() -> u64 {\n    now() // lint: allow(D2) timing is telemetry only\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P3".into())]);
        for id in ["D1", "D2", "D3", "E2", "E3"] {
            assert!(!RULE_IDS.contains(&id), "{id} is clippy's now");
        }
    }

    #[test]
    fn r5_pragmas_are_retired() {
        // R5 went with the telemetry crate's hash-map exemption: clippy's
        // ban now covers every first-party crate, so an allow(R5) left
        // behind names a rule that no longer exists.
        let src = "fn f() {\n    for k in table() {} // lint: allow(R5) sorted by the callee\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P3".into())]);
        assert!(!RULE_IDS.contains(&"R5"));
    }

    #[test]
    fn pragma_diagnostics_p1_p2() {
        // Malformed (no justification) → P1; unused → P2.
        let src = "fn f(x: Option<u32>) {\n    x.expect(\"ok\"); // lint: allow(E1)\n    let y = 1; // lint: allow(F1) no float compare on this line\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(2, "P1".into()), (3, "P2".into())]);
    }

    #[test]
    fn standalone_pragma_covers_next_line() {
        let src = "fn f(x: Option<u32>) {\n    // lint: allow(E1) demo of standalone placement\n    x.expect(\"\");\n}\n";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppression_is_recorded() {
        let src = "fn f(x: Option<u32>) {\n    x.expect(\"\"); // lint: allow(E1) caller checked\n    let y = 1; // lint: allow(F1) stale\n}\n";
        let (fs, records) =
            scan_source("crates/core/src/x.rs", classify("crates/core/src/x.rs"), src);
        assert_eq!(fs.iter().map(|f| (f.line, f.rule.as_str())).collect::<Vec<_>>(), [(3, "P2")]);
        let seen: Vec<_> = records
            .iter()
            .map(|r| (r.line, r.rules.clone(), r.justification.as_str(), r.used))
            .collect();
        assert_eq!(
            seen,
            [
                (2, vec!["E1".to_string()], "caller checked", true),
                (3, vec!["F1".into()], "stale", false)
            ]
        );
    }

    #[test]
    fn string_literal_mentions_are_ignored() {
        // Rule patterns inside string literals and comments are text, not
        // code: the scanner masks them before any rule looks.
        let src = "fn f() {\n    let s = \"x.expect(\\\"\\\") a.partial_cmp(b).unwrap() x == 2.0\";\n    let r = r#\"if F.load(Ordering::Relaxed) { span(\"Bad Name\") }\"#;\n    // y.expect(\"\"); z == 1.5\n}\n";
        assert!(findings("crates/ml/src/x.rs", src).is_empty());
        assert!(findings("crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn nested_braces_keep_scopes_separate() {
        // A `#[cfg(test)]` exemption spans the module's nested blocks and
        // ends at the module's own closing brace, not at an inner one.
        let src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) {\n        { x.expect(\"\"); }\n    }\n    fn g(x: Option<u32>) { x.expect(\"\"); }\n}\nfn h(x: Option<u32>) {\n    { x.expect(\"\"); }\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", src), vec![(9, "E1".into())]);
        // The same holds for a test-only fn under `cfg(all(test, ..))`:
        // the fn after it is library code again.
        let item = "#[cfg(all(test, unix))]\nfn t(x: Option<u32>) {\n    { x.expect(\"\"); }\n}\nfn u(x: Option<u32>) {\n    x.expect(\"\");\n}\n";
        assert_eq!(findings("crates/core/src/x.rs", item), vec![(6, "E1".into())]);
    }
}
