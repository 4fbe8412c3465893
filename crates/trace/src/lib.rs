//! Trace *analysis*: everything that consumes the JSONL journal
//! `dbtune-obs` produces.
//!
//! PR 3 made every layer of the stack emit structured telemetry; this
//! crate closes the loop by turning those journals into products a human
//! (or a CI gate) can act on:
//!
//! * [`tree`] — builds the span tree per thread by grouping `span`
//!   records on their parent's id, and computes **self time** (a span's
//!   duration minus its children's) so hot paths show up where the time
//!   is actually spent, not where it is merely enclosed.
//! * [`export`] — renders trees as collapsed-stack lines
//!   (`a;b;c <value>`, flamegraph-compatible, weighted by self time or by
//!   self-allocated bytes) and as Chrome `trace_event` JSON on the
//!   recorded timeline, which opens directly in `chrome://tracing` or
//!   Perfetto.
//! * [`summary`] / [`diff`] — folds a journal into a per-name summary
//!   and aligns two runs by span name and metric key, flagging wall-time regressions with a noise-aware
//!   threshold while holding deterministic counters (`exec.cache.*`,
//!   `sim.evals`, span counts) to **exact** equality.
//! * [`validate`] — structural invariants beyond line-level parsing:
//!   span trees that build (unique ids, closed parents, children inside
//!   their parents), monotonic counters.
//!
//! The crate is std-only (its one dependency is `dbtune-obs`, itself
//! dependency-free): journals must be analyzable on any machine,
//! including CI runners with nothing but the repo checkout. Artifact
//! JSON parsing (driver outputs, `BENCH_quality.json`) lives in
//! `dbtune-bench`.

pub mod diff;
pub mod export;
pub mod summary;
pub mod tree;
pub mod validate;

pub use diff::{diff_summaries, DiffConfig, DiffEntry, DiffKind};
pub use export::{chrome_trace, collapsed_stacks};
pub use summary::{summarize, MemSummary, RunSummary, SpanSummary};
pub use tree::{build_trees, merge_paths, MergedNode, SpanNode, ThreadTree, TreeError};
pub use validate::{check_structure, Violation};

use dbtune_obs::journal::{parse_journal, SCHEMA_VERSION};
use dbtune_obs::TraceEvent;

/// One parsed journal line with its 1-based line number (kept so every
/// analysis error can name the offending line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalLine {
    /// 1-based line number in the journal file.
    pub line: usize,
    /// The parsed event.
    pub event: TraceEvent,
}

/// A fully loaded journal: the leading `meta` line plus every event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalData {
    /// Producer recorded in the `meta` line (driver name or "env").
    pub source: String,
    /// Schema version from the `meta` line.
    pub version: u64,
    /// Every event after `meta`, in file (= sequence) order.
    pub events: Vec<JournalLine>,
}

/// Strictly loads a journal from its text: every line must parse, the
/// first line must be a supported `meta` event. Errors name the line.
///
/// One deliberate exception to strictness: lines whose only defect is an
/// *unknown event type* are skipped, not fatal. A journal written by a
/// newer toolkit (same schema version, extra event kinds — exactly how
/// `diag` arrived) stays analyzable by older tools; malformed JSON and
/// bad fields on known kinds still abort with the line number.
///
/// This is the loader the analysis tools use — for *validation*, where
/// each bad line should be reported rather than aborting, iterate
/// [`dbtune_obs::journal::parse_journal`] directly.
pub fn load_journal_str(text: &str) -> Result<JournalData, String> {
    let mut source = None;
    let mut version = 0;
    let mut events = Vec::new();
    for (line, parsed) in parse_journal(text) {
        let event = match parsed {
            Ok(event) => event,
            Err(e) if e.contains("unknown event type") && line > 1 => continue,
            Err(e) => return Err(format!("line {line}: {e}")),
        };
        match (&event, line) {
            (TraceEvent::Meta { version: v, source: s }, 1) => {
                if *v != SCHEMA_VERSION {
                    return Err(format!(
                        "line 1: schema version {v} (this toolkit supports {SCHEMA_VERSION})"
                    ));
                }
                version = *v;
                source = Some(s.clone());
            }
            (TraceEvent::Meta { .. }, _) => {
                return Err(format!("line {line}: meta event must be the first line"));
            }
            (_, 1) => return Err("line 1: first line must be a meta event".to_string()),
            _ => events.push(JournalLine { line, event }),
        }
    }
    let source = source.ok_or_else(|| "journal is empty".to_string())?;
    Ok(JournalData { source, version, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The leading `meta` line of a current journal from `source`.
    fn meta(source: &str) -> String {
        TraceEvent::Meta { version: SCHEMA_VERSION, source: source.into() }.to_jsonl() + "\n"
    }

    #[test]
    fn loads_a_minimal_journal() {
        let text = meta("unit")
            + concat!(
                "{\"type\":\"span\",\"name\":\"a\",\"id\":1,\"parent_id\":null,",
                "\"start_nanos\":0,\"dur_nanos\":5,\"thread\":0,\"seq\":1}\n",
            );
        let j = load_journal_str(&text).expect("valid journal");
        assert_eq!(j.source, "unit");
        assert_eq!(j.version, SCHEMA_VERSION);
        assert_eq!(j.events.len(), 1);
        assert_eq!(j.events[0].line, 2);
    }

    #[test]
    fn skips_unknown_event_kinds_but_keeps_other_errors_fatal() {
        // Forward compatibility: a journal from a newer toolkit with an
        // extra event kind still loads; its known lines are kept.
        let text = meta("unit")
            + concat!(
                "{\"type\":\"hologram\",\"name\":\"x\",\"seq\":1}\n",
                "{\"type\":\"counter\",\"name\":\"sim.evals\",\"value\":3,\"seq\":2}\n",
            );
        let j = load_journal_str(&text).expect("unknown kinds are skipped");
        assert_eq!(j.events.len(), 1);
        assert_eq!(j.events[0].line, 3);

        // The skip applies only to unknown *kinds*: a known kind with a
        // bad field still aborts with the line number.
        let bad_field =
            meta("unit") + "{\"type\":\"counter\",\"name\":\"c\",\"value\":\"oops\",\"seq\":1}\n";
        assert!(load_journal_str(&bad_field).expect_err("must be rejected").contains("line 2"));

        // And the first line must still be a meta event, even if its
        // kind is unknown.
        let unknown_first = "{\"type\":\"hologram\",\"name\":\"x\",\"seq\":1}";
        assert!(load_journal_str(unknown_first).expect_err("must be rejected").contains("line 1"));
    }

    #[test]
    fn meta_only_journal_loads_with_zero_events() {
        let j = load_journal_str(&meta("unit")).expect("meta-only journal is valid");
        assert_eq!(j.source, "unit");
        assert!(j.events.is_empty());
    }

    #[test]
    fn rejects_missing_meta_bad_lines_and_future_schemas() {
        let no_meta = "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"seq\":1}";
        assert!(load_journal_str(no_meta).expect_err("must be rejected").contains("meta"));
        assert!(load_journal_str("").expect_err("must be rejected").contains("empty"));
        let bad = meta("x") + "nope";
        assert!(load_journal_str(&bad).expect_err("must be rejected").contains("line 2"));
        let future = "{\"type\":\"meta\",\"version\":99,\"source\":\"x\"}";
        assert!(load_journal_str(future).expect_err("must be rejected").contains("version 99"));
        // Version 1 journals recorded span parents by name, not by id.
        let old = "{\"type\":\"meta\",\"version\":1,\"source\":\"x\"}";
        assert!(load_journal_str(old).expect_err("must be rejected").contains("version 1"));
    }

    #[test]
    fn rejects_version_2_journals_by_their_meta_line() {
        // Version 2 journals could carry `hist` events, which schema 3
        // dropped; the loader names the version instead of the first
        // `hist` line it would otherwise skip.
        let v2 = concat!(
            "{\"type\":\"meta\",\"version\":2,\"source\":\"x\"}\n",
            "{\"type\":\"hist\",\"name\":\"exec.cell_nanos\",\"count\":1,",
            "\"p50_nanos\":5,\"p99_nanos\":5,\"seq\":1}\n",
        );
        assert_eq!(
            load_journal_str(v2).expect_err("must be rejected"),
            format!("line 1: schema version 2 (this toolkit supports {SCHEMA_VERSION})")
        );
    }

    #[test]
    fn rejects_version_3_journals_and_knows_no_cell_events() {
        // Version 3 journals carried one `cell` line per grid cell, which
        // schema 4 dropped (each cell is timed by its `exec.cell` span
        // and counted by `exec.cells`). The loader names the version; a
        // `cell` line on its own is an event type the parser does not know.
        let cell = concat!(
            "{\"type\":\"cell\",\"index\":0,\"cache_hits\":1,\"cache_misses\":2,",
            "\"dur_nanos\":5,\"thread\":0,\"seq\":1}",
        );
        let v3 = format!("{{\"type\":\"meta\",\"version\":3,\"source\":\"x\"}}\n{cell}\n");
        assert_eq!(
            load_journal_str(&v3).expect_err("must be rejected"),
            format!("line 1: schema version 3 (this toolkit supports {SCHEMA_VERSION})")
        );
        assert_eq!(
            TraceEvent::parse_line(cell).expect_err("cell is no event type"),
            "unknown event type 'cell'"
        );
    }
}
