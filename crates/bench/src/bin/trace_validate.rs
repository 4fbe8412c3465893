#![allow(
    clippy::unwrap_used,
    reason = "driver binary: a panic here aborts one experiment run, not a library caller"
)]
//! Validates a JSONL trace journal written via `DBTUNE_TRACE=path` or a
//! driver's `trace=path` flag, in two passes:
//!
//! 1. **Line level** — every line must parse as a known [`TraceEvent`],
//!    the first line must be a `meta` event carrying the supported
//!    schema version, and `seq` must be strictly increasing.
//! 2. **Structural** (`dbtune_trace::check_structure`) — the span
//!    records must build into trees per thread (unique ids, every
//!    parent closing after its children — a truncated journal leaves
//!    some unclosed — and every child inside its parent's interval),
//!    profiled spans must claim no more self than total allocation,
//!    and counters must be monotonically non-decreasing across flushes.
//!
//! Usage: `trace_validate <journal.jsonl>`. Exit codes: 0 valid,
//! 1 invalid journal (violations are printed with line numbers), 2
//! usage or I/O error. CI runs this against a fresh trace from a tiny
//! driver run; see `docs/observability.md` for the schema itself.

use dbtune_core::telemetry::{TraceEvent, SCHEMA_VERSION};
use dbtune_trace::JournalLine;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(path), None) = (args.next(), args.next()) else {
        eprintln!("usage: trace_validate <journal.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_validate: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut errors = 0usize;
    let mut last_seq = 0u64;
    let mut lines = 0usize;
    let mut parsed: Vec<JournalLine> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            eprintln!("{path}:{lineno}: empty line");
            errors += 1;
            continue;
        }
        lines += 1;
        let event = match TraceEvent::parse_line(line) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("{path}:{lineno}: {e}");
                errors += 1;
                continue;
            }
        };
        match &event {
            TraceEvent::Meta { version, source } => {
                if lineno != 1 {
                    eprintln!("{path}:{lineno}: meta event must be the first line");
                    errors += 1;
                }
                if *version != SCHEMA_VERSION {
                    eprintln!(
                        "{path}:{lineno}: schema version {version} (validator supports {SCHEMA_VERSION})"
                    );
                    errors += 1;
                }
                if source.is_empty() {
                    eprintln!("{path}:{lineno}: meta source is empty");
                    errors += 1;
                }
            }
            _ => {
                if lineno == 1 {
                    eprintln!("{path}:{lineno}: first line must be a meta event");
                    errors += 1;
                }
                // seq is assigned under the writer lock, so within a
                // journal it must be strictly increasing.
                let seq = event.seq();
                if seq <= last_seq {
                    eprintln!(
                        "{path}:{lineno}: seq {seq} not greater than previous seq {last_seq}"
                    );
                    errors += 1;
                }
                last_seq = seq.max(last_seq);
            }
        }
        *counts.entry(event.kind()).or_insert(0) += 1;
        if !matches!(event, TraceEvent::Meta { .. }) {
            parsed.push(JournalLine { line: lineno, event });
        }
    }
    if lines == 0 {
        eprintln!("{path}: journal is empty");
        errors += 1;
    }

    // Cross-line structural invariants over whatever parsed (so a journal
    // with one bad line still gets its tree and counters checked).
    for violation in dbtune_trace::check_structure(&parsed) {
        eprintln!("{path}:{}: {}", violation.line, violation.message);
        errors += 1;
    }

    if errors > 0 {
        eprintln!("{path}: INVALID — {errors} error(s) across {lines} line(s)");
        return ExitCode::from(1);
    }
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{path}: OK — {lines} events ({})", summary.join(", "));
    ExitCode::SUCCESS
}
