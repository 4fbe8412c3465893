#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Compares two trace journals of the same driver configuration,
//! aligning them by span name and metric key.
//!
//! Usage: `trace_diff <base.jsonl> <current.jsonl> [mode=warn|gate]
//! [rel=0.30] [floor_ms=5]`
//!
//! Deterministic quantities — counters, gauges, span counts, cell
//! counts — must match **exactly**: the tuning loop's control flow never
//! depends on wall clock, so any delta means the two runs did different
//! work. Wall times are compared on each span's fastest observation
//! (min-of-N) and flagged only beyond the relative threshold `rel` AND
//! the absolute floor `floor_ms`.
//!
//! Exit codes: 0 clean (or `mode=warn`), 1 flagged deltas under
//! `mode=gate`, 2 usage or unreadable/invalid journal.

use dbtune_bench::artifact::load_journal;
use dbtune_trace::{diff_summaries, summarize, DiffConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: trace_diff <base.jsonl> <current.jsonl> [mode=warn|gate] [rel=0.30] [floor_ms=5]";

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut gate = false;
    let mut cfg = DiffConfig::default();
    for arg in std::env::args().skip(1) {
        if let Some((key, value)) = arg.split_once('=') {
            match key {
                "mode" => match value {
                    "warn" => gate = false,
                    "gate" => gate = true,
                    other => {
                        eprintln!("trace_diff: bad mode '{other}' (expected warn|gate)");
                        return ExitCode::from(2);
                    }
                },
                "rel" => match value.parse::<f64>() {
                    Ok(v) if v >= 0.0 => cfg.rel_threshold = v,
                    _ => {
                        eprintln!("trace_diff: bad rel '{value}'");
                        return ExitCode::from(2);
                    }
                },
                "floor_ms" => {
                    match value.parse::<u64>().ok().and_then(|v| v.checked_mul(1_000_000)) {
                        Some(nanos) => cfg.abs_floor_nanos = nanos,
                        None => {
                            eprintln!("trace_diff: bad floor_ms '{value}'");
                            eprintln!("{USAGE}");
                            return ExitCode::from(2);
                        }
                    }
                }
                _ => {
                    eprintln!("trace_diff: unknown flag '{key}'");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let (base, cur) = match (load_journal(base_path), load_journal(cur_path)) {
        (Ok(b), Ok(c)) => (summarize(&b), summarize(&c)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("trace_diff: {e}");
            return ExitCode::from(2);
        }
    };

    let entries = diff_summaries(&base, &cur, &cfg);
    let flagged: Vec<_> = entries.iter().filter(|e| e.flagged).collect();
    println!(
        "base    : {} ({} spans, {} counters)",
        base_path.display(),
        base.spans.len(),
        base.counters.len()
    );
    println!(
        "current : {} ({} spans, {} counters)",
        cur_path.display(),
        cur.spans.len(),
        cur.counters.len()
    );
    println!(
        "compared: {} keys (rel>{:.0}%, floor {}ms on wall times; counts exact)",
        entries.len(),
        cfg.rel_threshold * 100.0,
        cfg.abs_floor_nanos / 1_000_000
    );
    println!();
    if flagged.is_empty() {
        println!("OK — no deltas beyond threshold, zero counter deltas");
        return ExitCode::SUCCESS;
    }
    println!("{} flagged delta(s):", flagged.len());
    for entry in &flagged {
        let fmt = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.0}"));
        println!(
            "  {:<40} {:>14} -> {:<14} {}",
            entry.key,
            fmt(entry.base),
            fmt(entry.cur),
            entry.note
        );
    }
    if gate {
        ExitCode::from(1)
    } else {
        println!("\n(mode=warn: exiting 0; use mode=gate to fail)");
        ExitCode::SUCCESS
    }
}
