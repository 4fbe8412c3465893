//! Workspace-level passes over the call graph: the determinism taint
//! family **R**, the cross-function lock-order family **C2**, and the
//! telemetry schema family **S**. The line rules in [`crate::rules`]
//! catch violations visible on one line; these passes catch the ones a
//! helper function launders across file boundaries.
//!
//! | rule | invariant                                                       |
//! |------|-----------------------------------------------------------------|
//! | R1   | telemetry fn reads the wall clock *and* returns a numeric       |
//! |      | value to a caller reachable from the results path               |
//! | R2   | same for ambient randomness                                     |
//! | R3   | env read reachable from the results path                        |
//! | R4   | thread-identity read reachable from the results path            |
//! | C2   | the same two locks are acquired in both orders somewhere in     |
//! |      | the exec/obs call graph — a deadlock candidate                  |
//! | S1   | telemetry name emitted but not documented in                    |
//! |      | `docs/observability.md`                                         |
//! | S2   | documented telemetry name with no emitter (dead doc row)        |
//! | S3   | counter/gauge without a `METRIC_POLICY` entry in                |
//! |      | `dbtune-trace::diff`, or a policy entry with no emitter         |
//!
//! The "results path" is approximated as every non-test function defined
//! under `crates/{core,dbsim,ml,linalg}/src`, plus everything they reach
//! through the name-resolved call graph. That deliberately
//! over-approximates (the bias a determinism gate wants); the pragma
//! grammar is the escape hatch, same as for the line rules.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::graph::CallGraph;
use crate::report::Finding;
use crate::scanner;
use crate::symbols::{EmitKind, FileSymbols, TaintKind};

/// Directories whose non-test functions seed the results-path
/// reachability (trailing slash so `src_foo` never matches).
const ROOT_DIRS: &[&str] =
    &["crates/core/src/", "crates/dbsim/src/", "crates/ml/src/", "crates/linalg/src/"];

/// Workspace-relative path of the metric/span documentation the S pass
/// cross-checks. When the scan root has no such file (fixture corpora
/// exercising other families), the S pass is skipped entirely.
const DOC_PATH: &str = "docs/observability.md";

/// Workspace-relative path of the diff-policy table the S pass reads.
const POLICY_PATH: &str = "crates/trace/src/diff.rs";

fn is_telemetry(path: &str) -> bool {
    path.starts_with("crates/obs/") || path.starts_with("crates/trace/")
}

fn in_conc_scope(path: &str) -> bool {
    path == "crates/core/src/exec.rs" || path.starts_with("crates/obs/")
}

/// Runs all workspace passes. Returned findings carry the path/line they
/// are attributed to; the walker merges them into the per-file pragma
/// resolution, so `// lint: allow(R…/C…/S…)` works exactly like it does
/// for line rules.
pub fn run(root: &Path, graph: &CallGraph, files: &[(String, FileSymbols)]) -> Vec<Finding> {
    let mut out = Vec::new();
    determinism_pass(graph, &mut out);
    lock_order_pass(graph, &mut out);
    schema_pass(root, files, &mut out);
    out
}

/// Rule family R: forbidden sources reachable from the results path.
fn determinism_pass(graph: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| {
            let n = &graph.nodes[i];
            !n.item.in_test && ROOT_DIRS.iter().any(|d| n.path.starts_with(d))
        })
        .collect();
    let parents = graph.reach(&roots);

    for &i in parents.keys() {
        let n = &graph.nodes[i];
        if n.item.in_test {
            continue;
        }
        let has = |k: TaintKind| n.item.taints.iter().any(|&(t, _)| t == k);
        let chain = || graph.chain(&parents, i);

        if is_telemetry(&n.path) {
            // Telemetry owns the clock and may hold RNG state, but a fn
            // that *returns a number* derived from either hands
            // nondeterminism back to the results path — the laundering
            // hole a call ban cannot see.
            if n.item.returns_numeric() {
                if has(TaintKind::Clock) {
                    out.push(Finding {
                        path: n.path.clone(),
                        line: n.item.line,
                        rule: "R1".to_string(),
                        message: format!(
                            "telemetry fn `{}` reads the wall clock and returns a numeric \
                             value to the results path (reached via {}) — clock-derived \
                             numbers must stay inside telemetry sinks; restructure, or \
                             annotate `// lint: allow(R1) <why the value never reaches \
                             results>`",
                            n.item.name,
                            chain()
                        ),
                    });
                }
                if has(TaintKind::Rng) {
                    out.push(Finding {
                        path: n.path.clone(),
                        line: n.item.line,
                        rule: "R2".to_string(),
                        message: format!(
                            "telemetry fn `{}` draws ambient randomness and returns a \
                             numeric value to the results path (reached via {}) — derive \
                             every RNG from an explicit seed, or annotate \
                             `// lint: allow(R2) <why>`",
                            n.item.name,
                            chain()
                        ),
                    });
                }
            }
        } else {
            // Non-telemetry reachable code: env and thread-identity
            // reads are findings at the read site (a direct clock read is
            // clippy's `disallowed_methods`, and the vendored `rand` has no
            // entropy source — no double report).
            for &(kind, line) in &n.item.taints {
                let (rule, what, fix) = match kind {
                    TaintKind::Env => (
                        "R3",
                        "environment read",
                        "read configuration once at startup and pass it down",
                    ),
                    TaintKind::ThreadId => (
                        "R4",
                        "thread-identity read",
                        "results must not depend on which thread ran the work — key on the \
                         deterministic worker index instead",
                    ),
                    TaintKind::Clock | TaintKind::Rng => continue,
                };
                out.push(Finding {
                    path: n.path.clone(),
                    line,
                    rule: rule.to_string(),
                    message: format!(
                        "{what} inside `{}` is reachable from the results path ({}) — {fix}, \
                         or annotate `// lint: allow({rule}) <why it never affects results>`",
                        n.item.name,
                        chain()
                    ),
                });
            }
        }
    }
}

/// Rule C2: inconsistent lock-acquisition order across the exec/obs call
/// graph. Direct pairs come from let-bound guards inside one function;
/// cross-function pairs come from calls made while a guard is held,
/// resolved through *uniquely-named* callees only (an ambiguous name
/// must not fabricate a deadlock edge).
fn lock_order_pass(graph: &CallGraph, out: &mut Vec<Finding>) {
    // (held, then-acquired) → observation sites, insertion-ordered.
    let mut sites: BTreeMap<(String, String), Vec<(String, usize)>> = BTreeMap::new();
    for node in &graph.nodes {
        if node.item.in_test || !in_conc_scope(&node.path) {
            continue;
        }
        for p in &node.item.lock_pairs {
            sites
                .entry((p.held.clone(), p.acquired.clone()))
                .or_default()
                .push((node.path.clone(), p.line));
        }
        for call in &node.item.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(callee) = graph.uniquely_named(&call.callee) else { continue };
            for lock in graph.transitive_locks(callee) {
                for held in &call.held {
                    if *held != lock {
                        sites
                            .entry((held.clone(), lock.clone()))
                            .or_default()
                            .push((node.path.clone(), call.line));
                    }
                }
            }
        }
    }

    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), locs) in &sites {
        let Some(rev) = sites.get(&(b.clone(), a.clone())) else { continue };
        let key = if a < b { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        if !reported.insert(key) {
            continue;
        }
        let (p1, l1) = &locs[0];
        let (p2, l2) = &rev[0];
        out.push(Finding {
            path: p1.clone(),
            line: *l1,
            rule: "C2".to_string(),
            message: format!(
                "lock `{b}` is acquired while `{a}` is held here, but the opposite order \
                 occurs at {p2}:{l2} — inconsistent lock order across the call graph is a \
                 deadlock candidate; pick one global acquisition order or narrow a guard's \
                 scope"
            ),
        });
        out.push(Finding {
            path: p2.clone(),
            line: *l2,
            rule: "C2".to_string(),
            message: format!(
                "lock `{a}` is acquired while `{b}` is held here, but the opposite order \
                 occurs at {p1}:{l1} — inconsistent lock order across the call graph is a \
                 deadlock candidate; pick one global acquisition order or narrow a guard's \
                 scope"
            ),
        });
    }
}

/// Rule family S: the telemetry name schema must agree three ways —
/// emitters in code, the tables in `docs/observability.md`, and the
/// `METRIC_POLICY` table in `dbtune-trace::diff`.
fn schema_pass(root: &Path, files: &[(String, FileSymbols)], out: &mut Vec<Finding>) {
    let Ok(docs) = fs::read_to_string(root.join(DOC_PATH)) else {
        return; // corpus without observability docs: S pass out of scope
    };
    let (doc_metrics, doc_spans) = parse_doc_tables(&docs);

    // name → emission sites (kind, path, line), non-test code only.
    let mut metrics: BTreeMap<String, Vec<(EmitKind, String, usize)>> = BTreeMap::new();
    let mut spans: BTreeMap<String, Vec<(EmitKind, String, usize)>> = BTreeMap::new();
    for (path, syms) in files {
        for e in &syms.emissions {
            if e.in_test {
                continue;
            }
            let book = if e.kind == EmitKind::Span { &mut spans } else { &mut metrics };
            book.entry(e.name.clone()).or_default().push((e.kind, path.clone(), e.line));
        }
    }

    // S1 — emitted but undocumented.
    for (book, doc, what) in [(&metrics, &doc_metrics, "metric"), (&spans, &doc_spans, "span")] {
        for (name, sites) in book {
            if doc.contains_key(name) {
                continue;
            }
            for (_, path, line) in sites {
                out.push(Finding {
                    path: path.clone(),
                    line: *line,
                    rule: "S1".to_string(),
                    message: format!(
                        "{what} `{name}` is emitted here but not documented in {DOC_PATH} — \
                         add a table row (the S pass keeps code, docs, and the trace diff \
                         policy in three-way agreement), or annotate \
                         `// lint: allow(S1) <why it is intentionally undocumented>`"
                    ),
                });
            }
        }
    }

    // S2 — documented but dead.
    for (doc, book, what) in [(&doc_metrics, &metrics, "metric"), (&doc_spans, &spans, "span")] {
        for (name, &line) in doc {
            if !book.contains_key(name) {
                out.push(Finding {
                    path: DOC_PATH.to_string(),
                    line,
                    rule: "S2".to_string(),
                    message: format!(
                        "documented {what} `{name}` has no emitter in the workspace — \
                         remove the stale row or restore the emitter"
                    ),
                });
            }
        }
    }

    // S3 — counter/gauge ↔ diff-policy agreement.
    let Ok(diff_src) = fs::read_to_string(root.join(POLICY_PATH)) else {
        return;
    };
    let policy = parse_policy(&diff_src);
    for (name, sites) in &metrics {
        if policy.contains_key(name) {
            continue;
        }
        for (kind, path, line) in sites {
            if matches!(kind, EmitKind::Counter | EmitKind::Gauge) {
                out.push(Finding {
                    path: path.clone(),
                    line: *line,
                    rule: "S3".to_string(),
                    message: format!(
                        "metric `{name}` has no METRIC_POLICY entry in {POLICY_PATH} — every \
                         counter/gauge must declare an Exact or Noise diff policy so \
                         baseline comparison stays complete, or annotate \
                         `// lint: allow(S3) <why it is exempt from baseline diffs>`"
                    ),
                });
            }
        }
    }
    for (name, &line) in &policy {
        if !metrics.contains_key(name) {
            out.push(Finding {
                path: POLICY_PATH.to_string(),
                line,
                rule: "S3".to_string(),
                message: format!(
                    "METRIC_POLICY entry `{name}` matches no emitter in the workspace — \
                     remove the dead entry"
                ),
            });
        }
    }
}

/// Extracts documented names from the markdown tables in
/// `docs/observability.md`: the first backticked cell of each table row,
/// bucketed by whether the enclosing section heading mentions spans or
/// metrics. Returns `(metrics, spans)` as name → 1-based doc line.
fn parse_doc_tables(docs: &str) -> (BTreeMap<String, usize>, BTreeMap<String, usize>) {
    let mut metrics: BTreeMap<String, usize> = BTreeMap::new();
    let mut spans: BTreeMap<String, usize> = BTreeMap::new();
    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        Metrics,
        Spans,
        Other,
    }
    let mut section = Section::Other;
    for (idx, line) in docs.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('#') {
            let h = t.to_ascii_lowercase();
            section = if h.contains("span") {
                Section::Spans
            } else if h.contains("metric") {
                Section::Metrics
            } else {
                Section::Other
            };
            continue;
        }
        if section == Section::Other || !t.starts_with('|') {
            continue;
        }
        let Some(cell_start) = t.find('`') else { continue };
        let rest = &t[cell_start + 1..];
        let Some(len) = rest.find('`') else { continue };
        let name = &rest[..len];
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        {
            continue; // header rows, prose cells, non-slug examples
        }
        let book = if section == Section::Spans { &mut spans } else { &mut metrics };
        book.entry(name.to_string()).or_insert(idx + 1);
    }
    (metrics, spans)
}

/// Extracts the metric names of `METRIC_POLICY` entries from the raw
/// source of `dbtune-trace::diff`. The cleaned line gates the match (a
/// commented-out entry never counts); the raw line supplies the literal
/// the scanner masked. Returns name → 1-based line.
fn parse_policy(diff_src: &str) -> BTreeMap<String, usize> {
    let cleaned = scanner::clean(diff_src);
    let raw_lines: Vec<&str> = diff_src.lines().collect();
    let mut policy = BTreeMap::new();
    for (idx, line) in cleaned.iter().enumerate() {
        if !line.code.contains("(\"_\", MetricPolicy::") {
            continue;
        }
        let raw = raw_lines.get(idx).copied().unwrap_or("");
        let Some(open) = raw.find("(\"") else { continue };
        let rest = &raw[open + 2..];
        let Some(len) = rest.find('"') else { continue };
        policy.entry(rest[..len].to_string()).or_insert(idx + 1);
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::extract;

    fn run_graph(files: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<(String, FileSymbols)> =
            files.iter().map(|(p, s)| (p.to_string(), extract(s))).collect();
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        determinism_pass(&graph, &mut out);
        lock_order_pass(&graph, &mut out);
        out
    }

    #[test]
    fn r1_flags_clock_laundering_through_telemetry() {
        let fs = run_graph(&[
            ("crates/core/src/tuner.rs", "pub fn suggest() -> u64 { ticks() }\n"),
            (
                "crates/obs/src/probe.rs",
                "pub fn ticks() -> u64 {\n    Instant::now().elapsed().as_nanos() as u64\n}\n",
            ),
        ]);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "R1");
        assert_eq!(fs[0].path, "crates/obs/src/probe.rs");
        assert_eq!(fs[0].line, 1, "reported at the fn definition");
        assert!(fs[0].message.contains("suggest -> ticks"), "{}", fs[0].message);
    }

    #[test]
    fn r1_ignores_unreachable_and_nonnumeric_telemetry() {
        // Not called from any results-path root → silent.
        let fs = run_graph(&[(
            "crates/obs/src/probe.rs",
            "pub fn ticks() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
        // Reached, but records internally and returns nothing → silent.
        let fs = run_graph(&[
            ("crates/core/src/tuner.rs", "pub fn suggest() { mark(); }\n"),
            ("crates/obs/src/probe.rs", "pub fn mark() { let t = Instant::now(); record(t); }\n"),
        ]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn r3_reports_env_reads_at_the_read_site_through_helpers() {
        // The helper lives outside the root dirs, so reaching it takes a
        // real call edge — the chain in the message proves the path.
        let fs = run_graph(&[
            ("crates/core/src/pipeline.rs", "pub fn run() -> u32 { workers() }\n"),
            (
                "crates/bench/src/util.rs",
                "pub fn workers() -> u32 {\n    std::env::var(\"W\").ok().and_then(|v| v.parse().ok()).unwrap_or(1)\n}\n",
            ),
        ]);
        let r3: Vec<&Finding> = fs.iter().filter(|f| f.rule == "R3").collect();
        assert_eq!(r3.len(), 1, "{fs:?}");
        assert_eq!(r3[0].line, 2, "at the env::var line");
        assert!(r3[0].message.contains("run -> workers"), "{}", r3[0].message);
    }

    #[test]
    fn c2_direct_inversion_yields_paired_findings() {
        let fs = run_graph(&[(
            "crates/core/src/exec.rs",
            "pub fn ab(q: &Q) {\n    let ga = q.a.lock().expect(\"a\");\n    let gb = q.b.lock().expect(\"b\");\n    drop((ga, gb));\n}\npub fn ba(q: &Q) {\n    let gb = q.b.lock().expect(\"b\");\n    let ga = q.a.lock().expect(\"a\");\n    drop((ga, gb));\n}\n",
        )]);
        let c2: Vec<&Finding> = fs.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 2, "{fs:?}");
        assert!(c2.iter().any(|f| f.line == 3) && c2.iter().any(|f| f.line == 8));
    }

    #[test]
    fn c2_cross_function_inversion_through_unique_callee() {
        let fs = run_graph(&[(
            "crates/core/src/exec.rs",
            "pub fn append(s: &S) {\n    let g = s.log.lock().expect(\"log\");\n    reindex(s);\n    drop(g);\n}\npub fn reindex(s: &S) {\n    let g = s.idx.lock().expect(\"idx\");\n    drop(g);\n}\npub fn rebuild(s: &S) {\n    let gi = s.idx.lock().expect(\"idx\");\n    let gl = s.log.lock().expect(\"log\");\n    drop((gi, gl));\n}\n",
        )]);
        let c2: Vec<&Finding> = fs.iter().filter(|f| f.rule == "C2").collect();
        assert_eq!(c2.len(), 2, "{fs:?}");
    }

    #[test]
    fn c2_consistent_order_and_outside_scope_stay_silent() {
        let consistent = "pub fn one(q: &Q) {\n    let ga = q.a.lock().expect(\"a\");\n    let gb = q.b.lock().expect(\"b\");\n    drop((ga, gb));\n}\npub fn two(q: &Q) {\n    let ga = q.a.lock().expect(\"a\");\n    let gb = q.b.lock().expect(\"b\");\n    drop((ga, gb));\n}\n";
        assert!(run_graph(&[("crates/core/src/exec.rs", consistent)])
            .iter()
            .all(|f| f.rule != "C2"));
        let inverted = "pub fn ab(q: &Q) {\n    let ga = q.a.lock().expect(\"a\");\n    let gb = q.b.lock().expect(\"b\");\n    drop((ga, gb));\n}\npub fn ba(q: &Q) {\n    let gb = q.b.lock().expect(\"b\");\n    let ga = q.a.lock().expect(\"a\");\n    drop((ga, gb));\n}\n";
        assert!(run_graph(&[("crates/core/src/tuner.rs", inverted)])
            .iter()
            .all(|f| f.rule != "C2"));
    }

    #[test]
    fn doc_table_parser_buckets_by_section() {
        let docs = "# Observability\n\n## Metric names\n\n| name | kind |\n|---|---|\n| `exec.cells` | counter |\n| `mem.peak_bytes` | gauge |\n\n## Span taxonomy\n\n| span | meaning |\n|---|---|\n| `suggest` | one suggest |\n\n## Config\n\n| `not_a_metric` | ignored |\n";
        let (metrics, spans) = parse_doc_tables(docs);
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics.get("exec.cells"), Some(&7));
        assert_eq!(spans.len(), 1);
        assert!(spans.contains_key("suggest"));
    }

    #[test]
    fn policy_parser_reads_literal_names_not_comments() {
        let src = "pub const METRIC_POLICY: &[(&str, MetricPolicy)] = &[\n    (\"exec.cells\", MetricPolicy::Exact),\n    // (\"old.metric\", MetricPolicy::Exact),\n    (\"mem.peak_bytes\", MetricPolicy::Noise),\n];\n";
        let policy = parse_policy(src);
        assert_eq!(policy.len(), 2, "{policy:?}");
        assert_eq!(policy.get("exec.cells"), Some(&2));
        assert!(!policy.contains_key("old.metric"));
    }
}
