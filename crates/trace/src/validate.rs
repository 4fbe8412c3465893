//! Structural invariants beyond line-level parsing.
//!
//! `TraceEvent::parse_line` catches malformed lines; this module checks
//! the properties that hold *across* lines when the writer behaved:
//!
//! * the span records per thread build into trees — ids are unique,
//!   every parent closes after its children, and every child lies inside
//!   its parent's interval (delegated to [`crate::tree::build_trees`],
//!   which names the first violating line);
//! * counters are cumulative, so successive flushes of the same name
//!   are monotonically non-decreasing;
//! * profiled spans satisfy `self <= total` for both bytes and counts
//!   (self is total minus children — negative deltas cannot be encoded
//!   at all, `u64` fields reject them at parse time), and when both
//!   memory gauges are flushed, `mem.peak_bytes >= mem.live_bytes`.
//!
//! Unlike the strict loader, validation reports *every* violation it
//! can find rather than stopping at the first, so a corrupted journal
//! yields a full damage report.

use crate::tree::build_trees;
use crate::JournalLine;
use dbtune_obs::TraceEvent;
use std::collections::BTreeMap;

/// One structural violation, anchored to the journal line that
/// exhibited it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// 1-based journal line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Checks every cross-line invariant over parsed journal events,
/// returning all violations found (empty = structurally sound). Events
/// must be in file order, as produced by [`crate::load_journal_str`].
pub fn check_structure(events: &[JournalLine]) -> Vec<Violation> {
    let mut out = Vec::new();

    // Span nesting: build_trees stops at the first structural error —
    // everything after it is unattributable anyway.
    if let Err(e) = build_trees(events) {
        out.push(Violation { line: e.line, message: e.message });
    }

    // Counters are cumulative: name -> (line of last flush, last value).
    let mut counters: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    // Last flushed memory gauges: (line, value).
    let mut mem_peak: Option<(usize, i64)> = None;
    let mut mem_live: Option<(usize, i64)> = None;
    for jl in events {
        match &jl.event {
            TraceEvent::Counter { name, value, .. } => {
                if let Some((prev_line, prev)) = counters.get(name.as_str()) {
                    if value < prev {
                        out.push(Violation {
                            line: jl.line,
                            message: format!(
                                "counter '{name}' went backwards: {prev} (line {prev_line}) \
                                 -> {value}"
                            ),
                        });
                    }
                }
                counters.insert(name, (jl.line, *value));
            }
            TraceEvent::Gauge { name, value, .. } => match name.as_str() {
                "mem.peak_bytes" => mem_peak = Some((jl.line, *value)),
                "mem.live_bytes" => mem_live = Some((jl.line, *value)),
                _ => {}
            },
            TraceEvent::Span { name, mem: Some(m), .. } => {
                if m.self_bytes > m.total_bytes {
                    out.push(Violation {
                        line: jl.line,
                        message: format!(
                            "span '{name}' has self_bytes {} > total_bytes {}",
                            m.self_bytes, m.total_bytes
                        ),
                    });
                }
                if m.self_allocs > m.total_allocs {
                    out.push(Violation {
                        line: jl.line,
                        message: format!(
                            "span '{name}' has self_allocs {} > total_allocs {}",
                            m.self_allocs, m.total_allocs
                        ),
                    });
                }
            }
            _ => {}
        }
    }

    // Peak is a high-water mark of live, so the last flush of both
    // gauges must satisfy peak >= live (the writer re-clamps at
    // snapshot time — a violation means a corrupted or forged journal).
    if let (Some((_, peak)), Some((live_line, live))) = (mem_peak, mem_live) {
        if peak < live {
            out.push(Violation {
                line: live_line,
                message: format!("mem.peak_bytes {peak} < mem.live_bytes {live}"),
            });
        }
    }

    out.sort_by_key(|v| v.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtune_obs::MemDelta;

    fn line(line: usize, event: TraceEvent) -> JournalLine {
        JournalLine { line, event }
    }

    fn counter(l: usize, name: &str, value: u64) -> JournalLine {
        line(l, TraceEvent::Counter { name: name.into(), value, seq: l as u64 })
    }

    #[test]
    fn sound_journal_has_no_violations() {
        let events = vec![
            span(2, "fit", 2, Some(1), None),
            span(3, "suggest", 1, None, None),
            counter(4, "sim.evals", 3),
            counter(5, "sim.evals", 8),
        ];
        assert_eq!(check_structure(&events), vec![]);
    }

    #[test]
    fn flags_backwards_counter_with_both_lines() {
        let events = vec![counter(2, "sim.evals", 8), counter(3, "sim.evals", 3)];
        let v = check_structure(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("went backwards: 8 (line 2) -> 3"), "{}", v[0].message);
    }

    /// A span close on thread 0 over `[0, 9 - id]`, so parents (lower
    /// ids) enclose their children.
    fn span(
        l: usize,
        name: &str,
        id: u64,
        parent_id: Option<u64>,
        mem: Option<MemDelta>,
    ) -> JournalLine {
        line(
            l,
            TraceEvent::Span {
                name: name.into(),
                id,
                parent_id,
                start_nanos: 0,
                dur_nanos: 9 - id,
                thread: 0,
                mem,
                seq: l as u64,
            },
        )
    }

    fn mem(
        l: usize,
        name: &str,
        self_b: u64,
        self_a: u64,
        total_b: u64,
        total_a: u64,
    ) -> JournalLine {
        let m = MemDelta {
            self_bytes: self_b,
            self_allocs: self_a,
            total_bytes: total_b,
            total_allocs: total_a,
        };
        span(l, name, l as u64, None, Some(m))
    }

    fn gauge(l: usize, name: &str, value: i64) -> JournalLine {
        line(l, TraceEvent::Gauge { name: name.into(), value, seq: l as u64 })
    }

    #[test]
    fn sound_profiled_spans_and_gauges_pass() {
        let events = vec![
            mem(2, "fit", 100, 2, 300, 5),
            mem(3, "session", 0, 0, 300, 5),
            gauge(4, "mem.live_bytes", 1_000),
            gauge(5, "mem.peak_bytes", 2_000),
        ];
        assert_eq!(check_structure(&events), vec![]);
    }

    #[test]
    fn flags_profiled_self_exceeding_total() {
        let events = vec![mem(2, "fit", 400, 2, 300, 5), mem(3, "acq", 0, 9, 10, 5)];
        let v = check_structure(&events);
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("self_bytes 400 > total_bytes 300"), "{}", v[0].message);
        assert!(v[1].message.contains("self_allocs 9 > total_allocs 5"), "{}", v[1].message);
    }

    #[test]
    fn flags_peak_below_live() {
        let events = vec![gauge(2, "mem.peak_bytes", 500), gauge(3, "mem.live_bytes", 900)];
        let v = check_structure(&events);
        assert_eq!(v.len(), 1);
        assert!(
            v[0].message.contains("mem.peak_bytes 500 < mem.live_bytes 900"),
            "{}",
            v[0].message
        );
        // One-sided gauges are fine (a run may flush peak without live).
        assert_eq!(check_structure(&[gauge(2, "mem.peak_bytes", 500)]), vec![]);
    }

    #[test]
    fn tree_errors_surface_as_violations_alongside_metric_errors() {
        // A truncated journal (unclosed parent) *and* a backwards counter:
        // both must be reported, tree error sorted last (line 0 = EOF).
        let events = vec![
            span(2, "child", 2, Some(1), None),
            counter(3, "sim.evals", 9),
            counter(4, "sim.evals", 2),
        ];
        let v = check_structure(&events);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 2, "the truncated tree names the orphan's line");
        assert!(v[0].message.contains("never closed"), "{}", v[0].message);
        assert_eq!(v[1].line, 4, "the metric violation follows by line");
    }
}
