//! End-to-end tests for the trace analysis toolkit: `trace_report` /
//! `trace_diff` against *real* journals produced by a real driver, plus
//! the structural checks in `trace_validate`.
//!
//! These pin the acceptance criteria of the toolkit:
//! * self time reconstructed from a `fig9_overhead` journal sums to the
//!   instrumented wall time within 1%, the bytes-weighted flamegraph of
//!   a `mem=on` journal sums to its root spans' allocated bytes, the
//!   phase spans' self bytes sum from the journal alone, and every
//!   Chrome trace event lies inside its parent's;
//! * two identical-seed runs diff to zero deltas, span counts included;
//! * structurally broken journals (truncation, backwards counters,
//!   children outside their parents) fail validation with the offending
//!   line named, garbage exits 1 and a missing file exits 2;
//! * `quality_baseline`, which folds diag journals into
//!   `BENCH_quality.json`, writes the same results block on every run
//!   and at any worker count, and keeps its exit-code contract: 0 when
//!   the diff is clean or drift is only warned about, 1 for drift under
//!   `mode=gate` and for flags rejected before any work, 2 for a bad
//!   mode and input errors.

mod common;

use common::scratch;
use dbtune_bench::artifact::{load_journal, load_json_file, lookup, parse_quality_baseline};
use dbtune_bench::quality;
use dbtune_core::telemetry::SCHEMA_VERSION;
use dbtune_trace::{build_trees, diff_summaries, merge_paths, summarize, DiffConfig};
use serde::Value;
use std::path::Path;
use std::process::Command;

/// Runs `fig9_overhead` at `workers=1` with tracing into `journal`.
///
/// `workers=1` keeps the evaluation counters exactly reproducible: at
/// two or more workers, concurrent sessions can race the shared cache
/// and both compute a missing entry (the loser's result is discarded),
/// so `sim.evals` varies run to run even at a fixed seed. The results
/// payload is still byte-identical — only the work-count telemetry
/// moves — but the zero-delta diff below needs the single-worker case.
fn run_fig9(dir: &Path, journal: &Path) {
    common::run_fig9(dir, 1, &[format!("trace={}", journal.display())]);
}

/// Runs `trace_report` on `journal` and checks its exit and report.
fn run_trace_report(journal: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg(journal.as_os_str())
        .output()
        .expect("spawn trace_report");
    assert!(out.status.success(), "trace_report failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-time sum"), "missing summary line:\n{stdout}");
    assert!(stdout.contains("session"), "missing span rows:\n{stdout}");
}

/// Sum of the values of a collapsed-stack file.
fn folded_sum(path: &Path) -> u64 {
    let folded = std::fs::read_to_string(path).expect("folded written");
    folded
        .lines()
        .map(|l| {
            l.rsplit(' ')
                .next()
                .expect("collapsed line has a count")
                .parse::<u64>()
                .expect("collapsed line value")
        })
        .sum()
}

/// Checks that every complete event of a Chrome export lies inside its
/// parent's, and returns how many there are.
fn chrome_spans_nest(path: &Path) -> usize {
    let chrome = std::fs::read_to_string(path).expect("chrome written");
    let value: Value = serde_json::from_str(&chrome).expect("chrome export is valid JSON");
    let events = lookup(&value, "traceEvents").and_then(Value::as_array).expect("traceEvents");
    // Microseconds with nanosecond fractions, back to whole nanoseconds.
    let nanos = |e: &Value, key: &str| {
        (lookup(e, key).and_then(Value::as_f64).expect("numeric field") * 1e3).round() as u64
    };
    let arg = |e: &Value, key: &str| lookup(e, "args").and_then(|a| lookup(a, key)).cloned();
    let spans: Vec<(u64, u64, Option<u64>, u64, u64)> = events
        .iter()
        .filter(|e| lookup(e, "ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let tid = lookup(e, "tid").and_then(Value::as_u64).expect("tid");
            let id = arg(e, "id").and_then(|v| v.as_u64()).expect("args.id");
            let parent = arg(e, "parent_id").expect("args.parent_id").as_u64();
            let ts = nanos(e, "ts");
            (tid, id, parent, ts, ts + nanos(e, "dur"))
        })
        .collect();
    for &(tid, id, parent, start, end) in &spans {
        let Some(parent) = parent else { continue };
        let &(.., p_start, p_end) = spans
            .iter()
            .find(|s| s.0 == tid && s.1 == parent)
            .unwrap_or_else(|| panic!("span {id} on tid {tid}: parent {parent} not exported"));
        assert!(
            p_start <= start && end <= p_end,
            "span {id} [{start}, {end}] lies outside parent {parent} [{p_start}, {p_end}]"
        );
    }
    spans.len()
}

#[test]
fn trace_report_reconstructs_a_real_journal_with_exact_self_time() {
    let dir = scratch("trace_analysis_report");
    let journal_path = dir.join("fig9.jsonl");
    run_fig9(&dir, &journal_path);

    // In-process: the tree's total self time must equal the instrumented
    // wall time to within 1% (it is exact by construction — the 1% bound
    // only leaves room for clock-skew saturation).
    let journal = load_journal(&journal_path).expect("journal loads");
    let trees = build_trees(&journal.events).expect("journal is structurally sound");
    let merged = merge_paths(&trees);
    let wall: u64 = trees.iter().map(|t| t.total_nanos()).sum();
    let self_sum = merged.deep_self_nanos();
    assert!(wall > 0, "fig9 must record spans");
    let drift = (wall as f64 - self_sum as f64).abs() / wall as f64;
    assert!(drift < 0.01, "self-time sum {self_sum} vs wall {wall}: {:.3}% off", drift * 100.0);

    // The binary: exit 0, report on stdout, both exports written.
    run_trace_report(&journal_path);
    assert_eq!(
        folded_sum(&dir.join("fig9.folded")),
        self_sum,
        "collapsed-stack values are self times"
    );
    assert!(!dir.join("fig9.mem.folded").exists(), "no allocations were recorded");
    let total_spans: usize =
        trees.iter().map(|t| t.roots.iter().map(|r| r.node_count()).sum::<usize>()).sum();
    assert_eq!(
        chrome_spans_nest(&dir.join("fig9.chrome.json")),
        total_spans,
        "one complete event per span"
    );

    // A profiled run at two workers: every span carries its allocations,
    // and the bytes-weighted flamegraph sums the root spans' totals.
    let mem_path = dir.join("fig9_mem.jsonl");
    common::run_fig9(
        &dir.join("run_mem"),
        2,
        &[format!("trace={}", mem_path.display()), "mem=on".to_string()],
    );
    let journal = load_journal(&mem_path).expect("profiled journal loads");
    let trees = build_trees(&journal.events).expect("profiled journal is structurally sound");
    let roots: Vec<_> = trees.iter().flat_map(|t| &t.roots).collect();
    let root_bytes: u64 =
        roots.iter().map(|r| r.mem.expect("every span is profiled").total_bytes).sum();
    run_trace_report(&mem_path);
    assert!(root_bytes > 0, "a profiled run allocates");
    assert_eq!(
        folded_sum(&dir.join("fig9_mem.mem.folded")),
        root_bytes,
        "bytes-weighted values are self bytes"
    );
    chrome_spans_nest(&dir.join("fig9_mem.chrome.json"));
}

/// The per-span allocation sums an in-process table used to keep are the
/// journal's: `summarize` folds every profiled close. Twelve iterations
/// run past the ten-point LHS design, so every model-based optimizer
/// fits and acquires.
#[test]
fn profiled_phase_spans_sum_their_bytes_from_the_journal() {
    let dir = scratch("trace_analysis_phase_bytes");
    let journal = dir.join("fig9_phases.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_overhead"))
        .args(["samples=120", "iters=12", "workers=2", "mem=on"])
        .arg(format!("trace={}", journal.display()))
        .current_dir(&dir)
        .output()
        .expect("spawn fig9_overhead");
    assert!(out.status.success(), "fig9 failed: {}", String::from_utf8_lossy(&out.stderr));
    let summary = summarize(&load_journal(&journal).expect("profiled journal loads"));
    for phase in ["surrogate_fit", "acquisition"] {
        let mem = &summary.mem[phase];
        assert!(mem.self_bytes > 0 && mem.self_allocs > 0, "{phase}: {mem:?}");
        assert!(mem.self_bytes <= mem.total_bytes, "{phase}: {mem:?}");
        assert_eq!(mem.closes, summary.spans[phase].count, "{phase}: every close is profiled");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_seed_runs_diff_to_zero_counter_deltas() {
    let dir = scratch("trace_analysis_diff_clean");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    run_fig9(&dir.join("run_a"), &a);
    run_fig9(&dir.join("run_b"), &b);

    let base = summarize(&load_journal(&a).expect("a loads"));
    let cur = summarize(&load_journal(&b).expect("b loads"));
    let entries = diff_summaries(&base, &cur, &DiffConfig::default());
    let flagged: Vec<_> = entries.iter().filter(|e| e.flagged).collect();
    assert!(flagged.is_empty(), "identical-seed runs must diff clean: {flagged:#?}");

    // Same through the binary, in gate mode.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([a.as_os_str(), b.as_os_str()])
        .arg("mode=gate")
        .output()
        .expect("spawn trace_diff");
    assert!(
        out.status.success(),
        "trace_diff gate failed on identical runs:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("zero counter deltas"));

    // With no wall clock in any counter or gauge, the two runs' saved
    // telemetry blocks agree too.
    let telemetry = |run: &str| {
        let path = dir.join(run).join("results/fig9_overhead.json");
        let value = load_json_file(&path).expect("driver wrote results json");
        let block = lookup(&value, "telemetry").expect("top-level 'telemetry'");
        ["counters", "gauges"].map(|k| lookup(block, k).expect("telemetry key").clone())
    };
    assert_eq!(telemetry("run_a"), telemetry("run_b"), "workers=1 telemetry must reproduce");
}

#[test]
fn trace_diff_gate_flags_an_artificially_slowed_span() {
    let dir = scratch("trace_analysis_diff_slow");
    let mk = |path: &Path, fit_nanos: u64| {
        let text = format!(
            concat!(
                "{{\"type\":\"meta\",\"version\":{version},\"source\":\"unit\"}}\n",
                "{{\"type\":\"span\",\"name\":\"surrogate_fit\",\"id\":2,\"parent_id\":1,",
                "\"start_nanos\":0,\"dur_nanos\":{fit},\"thread\":0,\"seq\":1}}\n",
                "{{\"type\":\"span\",\"name\":\"session\",\"id\":1,\"parent_id\":null,",
                "\"start_nanos\":0,\"dur_nanos\":{total},\"thread\":0,\"seq\":2}}\n",
                "{{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":10,\"seq\":3}}\n"
            ),
            version = SCHEMA_VERSION,
            fit = fit_nanos,
            total = fit_nanos + 1_000_000,
        );
        std::fs::write(path, text).expect("write journal");
    };
    let (base, slow) = (dir.join("base.jsonl"), dir.join("slow.jsonl"));
    mk(&base, 50_000_000);
    mk(&slow, 100_000_000); // 2x slower: past 30% threshold and 5ms floor

    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([base.as_os_str(), slow.as_os_str()])
        .arg("mode=gate")
        .output()
        .expect("spawn trace_diff");
    assert_eq!(out.status.code(), Some(1), "gate must fail on a 2x-slowed span");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("span.min:surrogate_fit"), "flagged key missing:\n{stdout}");
    assert!(stdout.contains("slower by 100.0%"), "note missing:\n{stdout}");

    // The same pair in warn mode exits zero but still prints the delta.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([base.as_os_str(), slow.as_os_str()])
        .output()
        .expect("spawn trace_diff");
    assert!(out.status.success(), "warn mode must exit 0");

    // A floor whose nanoseconds overflow u64 is a usage error, not a
    // wrapped-around tiny floor.
    let out = Command::new(env!("CARGO_BIN_EXE_trace_diff"))
        .args([base.as_os_str(), slow.as_os_str()])
        .arg(format!("floor_ms={}", u64::MAX / 1_000_000 + 1))
        .output()
        .expect("spawn trace_diff");
    assert_eq!(out.status.code(), Some(2), "an overflowing floor_ms must exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: trace_diff"));
}

#[test]
fn trace_validate_rejects_structural_violations_with_line_numbers() {
    let dir = scratch("trace_analysis_validate");
    let exe = env!("CARGO_BIN_EXE_trace_validate");
    let run = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write journal");
        let out = Command::new(exe).arg(path.as_os_str()).output().expect("spawn trace_validate");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
    };
    let meta = format!("{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"source\":\"unit\"}}\n");

    // Truncation: a child closed but its parent never did.
    let (code, stderr) = run(
        "truncated.jsonl",
        &format!(
            "{meta}{}",
            "{\"type\":\"span\",\"name\":\"fit\",\"id\":2,\"parent_id\":1,\
             \"start_nanos\":0,\"dur_nanos\":5,\"thread\":0,\"seq\":1}\n"
        ),
    );
    assert_eq!(code, Some(1), "truncated journal must fail: {stderr}");
    assert!(stderr.contains(":2:") && stderr.contains("never closed"), "{stderr}");

    // A child whose interval sticks out of its parent's.
    let (code, stderr) = run(
        "outside.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"span\",\"name\":\"fit\",\"id\":2,\"parent_id\":1,\
             \"start_nanos\":6,\"dur_nanos\":5,\"thread\":0,\"seq\":1}\n",
            "{\"type\":\"span\",\"name\":\"session\",\"id\":1,\"parent_id\":null,\
             \"start_nanos\":0,\"dur_nanos\":9,\"thread\":0,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(1), "a child outside its parent must fail: {stderr}");
    assert!(stderr.contains(":2:") && stderr.contains("lies outside its parent"), "{stderr}");

    // Backwards counter across flushes.
    let (code, stderr) = run(
        "backwards.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":9,\"seq\":1}\n",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":3,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(1), "backwards counter must fail: {stderr}");
    assert!(stderr.contains("went backwards"), "{stderr}");

    // A sound journal still passes with the structural pass on.
    let (code, stderr) = run(
        "sound.jsonl",
        &format!(
            "{meta}{}{}",
            "{\"type\":\"span\",\"name\":\"session\",\"id\":1,\"parent_id\":null,\
             \"start_nanos\":0,\"dur_nanos\":9,\"thread\":0,\"seq\":1}\n",
            "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":3,\"seq\":2}\n"
        ),
    );
    assert_eq!(code, Some(0), "sound journal must pass: {stderr}");
}

#[test]
fn trace_validate_rejects_schema_2_journals_and_hist_lines() {
    let dir = scratch("trace_analysis_schema");
    let run = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write journal");
        let out = Command::new(env!("CARGO_BIN_EXE_trace_validate"))
            .arg(path.as_os_str())
            .output()
            .expect("spawn trace_validate");
        (out.status.code(), String::from_utf8_lossy(&out.stderr).to_string())
    };
    let session = "{\"type\":\"span\",\"name\":\"session\",\"id\":1,\"parent_id\":null,\
                   \"start_nanos\":0,\"dur_nanos\":9,\"thread\":0,\"seq\":1}\n";
    let hist = "{\"type\":\"hist\",\"name\":\"exec.cell_nanos\",\"count\":1,\
                \"p50_nanos\":5,\"p99_nanos\":5,\"seq\":2}\n";

    // A sound journal under schema 2 is rejected by its version.
    let (code, stderr) = run(
        "version2.jsonl",
        format!("{{\"type\":\"meta\",\"version\":2,\"source\":\"unit\"}}\n{session}"),
    );
    assert_eq!(code, Some(1), "a version-2 journal must fail: {stderr}");
    assert!(
        stderr.contains(&format!(":1: schema version 2 (validator supports {SCHEMA_VERSION})")),
        "{stderr}"
    );

    // Schema 3 has no histogram kind: a `hist` line is an unknown event.
    let meta = format!("{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"source\":\"unit\"}}\n");
    let (code, stderr) = run("hist.jsonl", format!("{meta}{session}{hist}"));
    assert_eq!(code, Some(1), "a hist line must fail: {stderr}");
    assert!(stderr.contains(":3: unknown event type 'hist'"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_validate_rejects_garbage_and_missing_files() {
    // Lines that are not journal events at all, and a path that does
    // not exist, are the two other exit codes.
    let dir = scratch("trace_analysis_garbage");
    let exe = env!("CARGO_BIN_EXE_trace_validate");
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"type\":\"span\",\"oops\":1}\nnot json at all\n").expect("write bad");
    let rejected = Command::new(exe).arg(&bad).output().expect("spawn trace_validate");
    assert_eq!(
        rejected.status.code(),
        Some(1),
        "garbage journal must exit 1: {}",
        String::from_utf8_lossy(&rejected.stderr)
    );
    let missing = Command::new(exe).arg(dir.join("nope.jsonl")).output().expect("spawn");
    assert_eq!(missing.status.code(), Some(2), "missing file must exit 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `quality_baseline` on a short matrix (`iters=8`, well under a
/// second per repeat) with `extra` flags in `dir`; returns the exit code
/// and stdout followed by stderr.
fn run_quality_baseline(dir: &Path, extra: &[String]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_quality_baseline"))
        .arg("iters=8")
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("spawn quality_baseline");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.code(), text)
}

fn write_flag(path: &Path) -> String {
    format!("write={}", path.display())
}

fn against_flag(path: &Path) -> String {
    format!("against={}", path.display())
}

fn results_bytes(path: &Path) -> String {
    let value = load_json_file(path).expect("artifact loads");
    serde_json::to_string(lookup(&value, "results").expect("results block"))
        .expect("results serialize")
}

#[test]
fn quality_baseline_results_are_deterministic_and_self_diff_is_clean() {
    let dir = scratch("trace_analysis_quality");
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));

    // Two repeats: the binary refuses to write unless both fold to the
    // same results block.
    let (code, out) =
        run_quality_baseline(&dir, &["repeats=2".into(), "workers=1".into(), write_flag(&a)]);
    assert_eq!(code, Some(0), "first run failed:\n{out}");
    let parsed = parse_quality_baseline(&load_json_file(&a).expect("artifact loads"))
        .expect("artifact parses as a quality baseline");
    assert_eq!(parsed.sessions.len(), quality::MATRIX.len(), "one entry per matrix cell");

    // A second run at another worker count diffs against the first
    // under gate mode.
    let (code, out) = run_quality_baseline(
        &dir,
        &["workers=2".into(), write_flag(&b), against_flag(&a), "mode=gate".into()],
    );
    assert_eq!(code, Some(0), "self-diff gate failed:\n{out}");
    assert!(out.contains("quality results identical"), "{out}");
    assert_eq!(results_bytes(&a), results_bytes(&b), "results must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutable field lookup in a parsed JSON object.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match value {
        Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[test]
fn quality_baseline_gate_flags_drift_and_warn_mode_only_reports_it() {
    let dir = scratch("trace_analysis_quality_drift");
    let (base, drifted) = (dir.join("base.json"), dir.join("drifted.json"));
    let (code, out) = run_quality_baseline(&dir, &["repeats=1".into(), write_flag(&base)]);
    assert_eq!(code, Some(0), "baseline run failed:\n{out}");

    // Move one session's final incumbent, as an optimizer change would.
    let mut artifact = load_json_file(&base).expect("artifact loads");
    let session = match field_mut(&mut artifact, "results").and_then(|r| field_mut(r, "sessions")) {
        Some(Value::Array(sessions)) => sessions.first_mut().expect("at least one session"),
        _ => panic!("artifact has no results.sessions array"),
    };
    let label = lookup(session, "session").and_then(Value::as_str).expect("label").to_string();
    let best = field_mut(session, "final_best").expect("final_best present");
    let moved = best.as_f64().expect("numeric final_best") + 1.0;
    *best = Value::Number(serde::Number::Float(moved));
    let text = serde_json::to_string_pretty(&artifact).expect("artifact serializes");
    std::fs::write(&drifted, text).expect("write drifted artifact");

    let current = write_flag(&dir.join("current.json"));
    let (code, out) = run_quality_baseline(
        &dir,
        &["repeats=1".into(), current.clone(), against_flag(&drifted), "mode=gate".into()],
    );
    assert_eq!(code, Some(1), "drift under mode=gate must exit 1:\n{out}");
    assert!(out.contains("DRIFTED"), "{out}");
    assert!(out.contains(&format!("{label}: final best")), "the moved session is named:\n{out}");

    let (code, out) =
        run_quality_baseline(&dir, &["repeats=1".into(), current, against_flag(&drifted)]);
    assert_eq!(code, Some(0), "drift under the default mode=warn must exit 0:\n{out}");
    assert!(out.contains("DRIFTED") && out.contains("mode=warn"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quality_baseline_usage_and_input_errors_exit_2() {
    let dir = scratch("trace_analysis_quality_usage");
    let current = write_flag(&dir.join("current.json"));

    let (code, out) = run_quality_baseline(&dir, &["mode=strict".into(), current.clone()]);
    assert_eq!(code, Some(2), "an unknown mode must exit 2:\n{out}");
    assert!(out.contains("bad mode 'strict'"), "{out}");

    // A baseline that is not a quality artifact is an input error, not
    // drift.
    let wrong = dir.join("wrong.json");
    std::fs::write(&wrong, "{\"schema\": 1}\n").expect("write wrong artifact");
    let (code, out) = run_quality_baseline(
        &dir,
        &["repeats=1".into(), current.clone(), against_flag(&wrong), "mode=gate".into()],
    );
    assert_eq!(code, Some(2), "an unparseable baseline must exit 2:\n{out}");
    assert!(out.contains("no \"results\""), "{out}");

    // A baseline that does not exist yet leaves nothing to compare.
    let (code, out) = run_quality_baseline(
        &dir,
        &["repeats=1".into(), current, against_flag(&dir.join("nope.json")), "mode=gate".into()],
    );
    assert_eq!(code, Some(0), "a missing baseline is not an error:\n{out}");
    assert!(out.contains("nothing to compare"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quality_baseline_rejects_zero_repeats_before_any_work() {
    let dir = scratch("trace_analysis_quality_zero_repeats");
    let current = dir.join("current.json");
    let (code, out) = run_quality_baseline(&dir, &["repeats=0".into(), write_flag(&current)]);
    assert_eq!(code, Some(1), "repeats=0 must exit 1:\n{out}");
    assert_eq!(out.trim_end(), "error: repeats=0: must be at least 1");
    assert!(!current.exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quality_baseline_rejects_a_bad_worker_count_before_any_work() {
    let dir = scratch("trace_analysis_quality_bad_workers");
    let current = dir.join("current.json");
    let (code, out) = run_quality_baseline(&dir, &["workers=two".into(), write_flag(&current)]);
    assert_eq!(code, Some(1), "workers=two must exit 1:\n{out}");
    assert_eq!(
        out.trim_end(),
        "error: bad value for workers: two (expected a non-negative integer)"
    );
    assert!(!current.exists(), "nothing is written");
    let _ = std::fs::remove_dir_all(&dir);
}
