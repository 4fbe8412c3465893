#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Optimizer-quality baseline: runs the fixed quality matrix (every
//! Table 3 optimizer on JOB and Sysbench, see `dbtune_bench::quality`)
//! with the diag recorder on, folds the journal's per-iteration records
//! into deterministic regret-curve summaries, writes
//! `BENCH_quality.json`, and (optionally) diffs it against a committed
//! baseline.
//!
//! Usage: `quality_baseline [repeats=2] [iters=30] [workers=1]
//! [write=BENCH_quality.json] [against=<baseline.json>] [mode=warn|gate]`
//!
//! There is no timing section: everything in the artifact is
//! deterministic (the `results` block is a pure function of seeds), so
//! the diff holds the whole block to exact equality, and the binary
//! itself verifies every repeat reproduced the same block before
//! writing anything.
//!
//! Exit codes: 0 ok (including `mode=warn` with drift, and a missing
//! `against=` file), 1 determinism failure or drift under `mode=gate`,
//! 2 usage or I/O error.

use dbtune_bench::artifact::{load_json_file, parse_quality_baseline};
use dbtune_bench::{quality, run_tuning_grid, ExpArgs, GridOpts};
use dbtune_core::telemetry;
use serde::{Number, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let _trace_flush = dbtune_bench::flush_guard();
    let args = ExpArgs::parse(&["repeats", "iters", "workers", "write", "against", "mode"]);
    let repeats = args.get_usize("repeats", 2).max(1);
    let iters = args.get_size("iters", quality::DEFAULT_ITERS);
    let workers = args.get_usize("workers", 1);
    let write = args.get_str("write", "BENCH_quality.json");
    let against = args.get_str("against", "");
    let gate = match args.get_str("mode", "warn").as_str() {
        "warn" => false,
        "gate" => true,
        other => {
            eprintln!("quality_baseline: bad mode '{other}' (expected warn|gate)");
            return ExitCode::from(2);
        }
    };

    let cells = quality::quality_cells(iters);
    let tele = telemetry::global();
    tele.enable_diag();
    let scratch = std::env::temp_dir();
    let mut results_blocks: Vec<(Value, String)> = Vec::new();

    for repeat in 0..repeats {
        let journal_path =
            scratch.join(format!("dbtune_quality_{}_{repeat}.jsonl", std::process::id()));
        if let Err(e) = tele.enable_journal(&journal_path, "quality_baseline") {
            eprintln!("quality_baseline: cannot open {}: {e}", journal_path.display());
            return ExitCode::from(2);
        }
        let (_, exec) = run_tuning_grid(
            &cells,
            &GridOpts {
                workers,
                cache: true,
                noise_seed: quality::SEED,
                faults: dbtune_dbsim::FaultPlan::disabled(),
                retry: dbtune_core::RetryPolicy::none(),
            },
        );
        tele.journal.flush();
        tele.journal.disable();
        let results = match std::fs::read_to_string(&journal_path)
            .map_err(|e| e.to_string())
            .and_then(|text| dbtune_trace::load_journal_str(&text))
            .and_then(|journal| quality::results_value(&journal))
        {
            Ok(v) => v,
            Err(e) => {
                eprintln!("quality_baseline: repeat {repeat} journal: {e}");
                return ExitCode::from(2);
            }
        };
        let _ = std::fs::remove_file(&journal_path);
        let fingerprint = match serde_json::to_string(&results) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("quality_baseline: cannot serialize results: {e:?}");
                return ExitCode::from(2);
            }
        };
        println!(
            "[repeat {}/{repeats}] sessions={} cache hits={} misses={}",
            repeat + 1,
            quality::MATRIX.len(),
            exec.cache.hits,
            exec.cache.misses
        );
        results_blocks.push((results, fingerprint));
    }

    // The determinism contract, enforced: every repeat must fold to the
    // same results block (fresh cache and journal per repeat, fixed
    // seeds, diag capture consuming no randomness).
    for (repeat, (_, fingerprint)) in results_blocks.iter().enumerate().skip(1) {
        if fingerprint != &results_blocks[0].1 {
            eprintln!(
                "quality_baseline: results block of repeat {repeat} differs from repeat 0 — \
                 determinism bug; not writing a baseline"
            );
            return ExitCode::from(1);
        }
    }

    let artifact = Value::Object(vec![
        ("schema".to_string(), Value::Number(Number::PosInt(1))),
        (
            "build".to_string(),
            Value::Object(vec![
                ("version".to_string(), Value::String(env!("CARGO_PKG_VERSION").to_string())),
                (
                    "profile".to_string(),
                    Value::String(
                        if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
                    ),
                ),
                ("repeats".to_string(), Value::Number(Number::PosInt(repeats as u64))),
                ("iters".to_string(), Value::Number(Number::PosInt(iters as u64))),
                ("knobs".to_string(), Value::Number(Number::PosInt(quality::KNOBS as u64))),
                ("seed".to_string(), Value::Number(Number::PosInt(quality::SEED))),
                (
                    "matrix".to_string(),
                    Value::Array(
                        quality::MATRIX
                            .iter()
                            .map(|&(w, o)| Value::String(quality::session_label(w, o)))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("results".to_string(), results_blocks.swap_remove(0).0),
    ]);

    let write_path = PathBuf::from(&write);
    let text = match serde_json::to_string_pretty(&artifact) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("quality_baseline: cannot serialize artifact: {e:?}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::write(&write_path, text + "\n") {
        eprintln!("quality_baseline: cannot write {}: {e}", write_path.display());
        return ExitCode::from(2);
    }
    println!("[wrote {}]", write_path.display());

    if against.is_empty() {
        return ExitCode::SUCCESS;
    }
    let against_path = Path::new(&against);
    if !against_path.exists() {
        println!("[no baseline at {against} — nothing to compare]");
        return ExitCode::SUCCESS;
    }
    let (base, cur) = match (
        load_json_file(against_path).and_then(|v| parse_quality_baseline(&v)),
        parse_quality_baseline(&artifact),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("quality_baseline: {e}");
            return ExitCode::from(2);
        }
    };
    if base.results_fingerprint == cur.results_fingerprint {
        println!("\n[diff vs {against}] OK — quality results identical");
        return ExitCode::SUCCESS;
    }
    println!("\n[diff vs {against}] quality results DRIFTED; per-session deltas:");
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.6}"));
    let keys: std::collections::BTreeSet<&String> =
        base.sessions.keys().chain(cur.sessions.keys()).collect();
    for key in keys {
        match (base.sessions.get(key), cur.sessions.get(key)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(&(bb, br, _)), Some(&(cb, cr, _))) => println!(
                "  {key}: final best {bb:.6} -> {cb:.6}, regret {} -> {}",
                fmt(br),
                fmt(cr)
            ),
            (Some(_), None) => println!("  {key}: missing from current run"),
            (None, Some(_)) => println!("  {key}: missing from baseline"),
            (None, None) => {}
        }
    }
    println!(
        "(a quality drift means an optimizer's trajectory changed — intended improvements \
         should regenerate BENCH_quality.json in the same commit)"
    );
    if gate {
        ExitCode::from(1)
    } else {
        println!("(mode=warn: exiting 0; use mode=gate to fail)");
        ExitCode::SUCCESS
    }
}
