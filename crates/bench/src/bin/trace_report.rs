#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Renders a trace journal as a human-readable span-tree report and
//! exports it for external viewers: a collapsed-stack file
//! (`<journal>.folded`, flamegraph-compatible) and a Chrome
//! `trace_event` file (`<journal>.chrome.json`, opens in
//! `chrome://tracing` or Perfetto).
//!
//! Usage: `trace_report <journal.jsonl> [out=<dir>]`
//!
//! The report shows the *merged* span tree (all occurrences of the same
//! root→…→name path folded together, across threads and repeats) with
//! total and **self** time per path — self time is a span's duration
//! minus its direct children's, so the column sums exactly to the
//! instrumented wall time. Exit codes: 0 ok, 1 structurally invalid
//! journal, 2 usage or I/O error.
//!
//! Journals with profiled spans (memprof latched on, see
//! docs/observability.md) additionally get a top-allocating-spans table
//! and a **bytes-weighted** collapsed-stack file (`<journal>.mem.folded`)
//! where frame width is self-allocated bytes instead of nanoseconds.

use dbtune_bench::artifact::load_journal;
use dbtune_trace::{
    build_trees, chrome_trace, collapsed_stacks, merge_paths, summarize, MemSummary, MergedNode,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut journal_path = None;
    let mut out_dir = None;
    for arg in std::env::args().skip(1) {
        if let Some(dir) = arg.strip_prefix("out=") {
            out_dir = Some(PathBuf::from(dir));
        } else if journal_path.is_none() {
            journal_path = Some(PathBuf::from(arg));
        } else {
            eprintln!("usage: trace_report <journal.jsonl> [out=<dir>]");
            return ExitCode::from(2);
        }
    }
    let Some(journal_path) = journal_path else {
        eprintln!("usage: trace_report <journal.jsonl> [out=<dir>]");
        return ExitCode::from(2);
    };

    let journal = match load_journal(&journal_path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("trace_report: {e}");
            return ExitCode::from(2);
        }
    };
    let trees = match build_trees(&journal.events) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: {}: {e}", journal_path.display());
            return ExitCode::from(1);
        }
    };

    let merged = merge_paths(&trees);
    let roots_total: u64 = trees.iter().map(|t| t.total_nanos()).sum();
    println!("journal : {} (source: {})", journal_path.display(), journal.source);
    println!("events  : {}", journal.events.len());
    println!(
        "threads : {} ({} root spans, {:.3} s instrumented)",
        trees.len(),
        trees.iter().map(|t| t.roots.len()).sum::<usize>(),
        roots_total as f64 / 1e9,
    );
    println!();
    println!("{:<42} {:>8} {:>12} {:>12} {:>6}", "span path", "count", "total", "self", "self%");
    print_merged(&merged, "", roots_total);
    let self_total = merged.deep_self_nanos();
    println!();
    println!(
        "self-time sum: {:.3} s of {:.3} s instrumented ({:.2}%)",
        self_total as f64 / 1e9,
        roots_total as f64 / 1e9,
        if roots_total > 0 { self_total as f64 / roots_total as f64 * 100.0 } else { 100.0 },
    );

    // Memory attribution (present only when the run had memprof latched
    // on): per-span-name allocation totals, self-sorted so churn sources
    // top the table.
    let mem = summarize(&journal).mem;
    let profiled = !mem.is_empty();
    if profiled {
        let mut rows: Vec<(String, MemSummary)> = mem.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_bytes.cmp(&a.1.self_bytes).then(a.0.cmp(&b.0)));
        println!();
        println!(
            "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "top allocating spans",
            "closes",
            "self bytes",
            "self allocs",
            "total bytes",
            "total allocs"
        );
        for (name, m) in rows.iter().take(10) {
            println!(
                "{name:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
                m.closes,
                format_bytes(m.self_bytes),
                m.self_allocs,
                format_bytes(m.total_bytes),
                m.total_allocs,
            );
        }
    }

    let stem = journal_path.file_stem().map(|s| s.to_string_lossy().to_string());
    let stem = stem.unwrap_or_else(|| "trace".to_string());
    let dir =
        out_dir.unwrap_or_else(|| journal_path.parent().unwrap_or(Path::new(".")).to_path_buf());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("trace_report: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let folded_path = dir.join(format!("{stem}.folded"));
    let chrome_path = dir.join(format!("{stem}.chrome.json"));
    let mut exports = vec![
        (folded_path, collapsed_stacks(&merged, |n| n.self_nanos)),
        (chrome_path, chrome_trace(&trees, &journal.source)),
    ];
    // Bytes-weighted flamegraph: the same merged tree, weighted by each
    // path's recorded self bytes (spans that opened before a mid-run
    // latch add none).
    if profiled {
        let mem_folded = collapsed_stacks(&merged, |n| n.self_bytes);
        exports.push((dir.join(format!("{stem}.mem.folded")), mem_folded));
    }
    for (path, content) in &exports {
        if let Err(e) = std::fs::write(path, content) {
            eprintln!("trace_report: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("[wrote {}]", path.display());
    }
    ExitCode::SUCCESS
}

/// Prints the merged tree depth-first with box-drawing indentation.
fn print_merged(node: &MergedNode, indent: &str, grand_total: u64) {
    let n = node.children.len();
    for (i, (name, child)) in node.children.iter().enumerate() {
        let last = i + 1 == n;
        let connector = if last { "└ " } else { "├ " };
        let pct = if grand_total > 0 {
            child.self_nanos as f64 / grand_total as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<42} {:>8} {:>12} {:>12} {:>5.1}%",
            format!("{indent}{connector}{name}"),
            child.count,
            format_nanos(child.total_nanos),
            format_nanos(child.self_nanos),
            pct,
        );
        let child_indent = format!("{indent}{}", if last { "  " } else { "│ " });
        print_merged(child, &child_indent, grand_total);
    }
}

/// Bytes with an adaptive binary unit.
fn format_bytes(bytes: u64) -> String {
    if bytes >= 1 << 30 {
        format!("{:.2}GiB", bytes as f64 / (1u64 << 30) as f64)
    } else if bytes >= 1 << 20 {
        format!("{:.2}MiB", bytes as f64 / (1u64 << 20) as f64)
    } else if bytes >= 1 << 10 {
        format!("{:.1}KiB", bytes as f64 / (1u64 << 10) as f64)
    } else {
        format!("{bytes}B")
    }
}

/// Nanoseconds with an adaptive unit.
fn format_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}
