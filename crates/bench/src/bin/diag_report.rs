#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Renders the optimizer-quality flight recorder's diagnostics from a
//! JSONL trace journal taken with `diag=on`: one convergence /
//! calibration report per session, then the cross-optimizer ranking
//! table (best final incumbent first).
//!
//! Usage: `diag_report <journal.jsonl> [out=<report.md>]`
//!
//! The report is a pure function of the journal bytes (fixed-precision
//! formatting, deterministic grouping), so CI can archive it as a build
//! artifact and two archives differ only when the tuning results did.
//! Exit codes: 0 ok, 1 journal holds no diag records, 2 usage or I/O
//! error. See docs/observability.md ("Optimizer-quality diagnostics")
//! for how to read the output.

use dbtune_bench::artifact::load_journal;
use dbtune_bench::ExpArgs;
use dbtune_diag::{
    calibration, extract_records, group_sessions, render_ranking, render_session_report,
    summarize_session,
};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut positional = std::env::args().skip(1).filter(|a| !a.contains('='));
    let (Some(path), None) = (positional.next(), positional.next()) else {
        eprintln!("usage: diag_report <journal.jsonl> [out=<report.md>]");
        return ExitCode::from(2);
    };
    let args = ExpArgs::parse(&["out"]);
    let out_path = args.get_str("out", "");

    let journal = match load_journal(Path::new(&path)) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("diag_report: {e}");
            return ExitCode::from(2);
        }
    };
    let records = extract_records(journal.events.iter().map(|l| &l.event));
    if records.is_empty() {
        eprintln!(
            "diag_report: {path} holds no diag records — was the run taken with diag=on \
             and a trace journal?"
        );
        return ExitCode::from(1);
    }

    let mut out = String::new();
    out.push_str(&format!(
        "# optimizer-quality report — {} ({} diag records)\n\n",
        journal.source,
        records.len()
    ));
    let rows: Vec<_> = group_sessions(&records)
        .iter()
        .map(|(session, recs)| (summarize_session(session, recs), calibration(recs)))
        .collect();
    for (summary, cal) in &rows {
        out.push_str(&render_session_report(summary, cal.as_ref()));
        out.push('\n');
    }
    out.push_str("# ranking\n\n");
    out.push_str(&render_ranking(&rows));

    print!("{out}");
    if !out_path.is_empty() {
        if let Err(e) = std::fs::write(&out_path, &out) {
            eprintln!("diag_report: cannot write {out_path}: {e}");
            return ExitCode::from(2);
        }
        println!("\n[wrote {out_path}]");
    }
    ExitCode::SUCCESS
}
