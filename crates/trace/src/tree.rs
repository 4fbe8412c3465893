//! Span trees from the journal's span records.
//!
//! The journal records one `span` event per *close* (there are no open
//! events — a disabled journal must cost one atomic load, and opens
//! would double the line count for no analytical gain). Each event
//! carries its per-thread `id`, the `parent_id` of the span that
//! enclosed it, and its real `[start, start + dur]` interval, so a tree
//! is a group-by: the children of span `p` on thread `t` are the events
//! with `(thread, parent_id) == (t, p)`, in close (= chronological)
//! order.
//!
//! [`build_trees`] checks what a well-behaved writer guarantees, and names
//! the offending line when a journal breaks it:
//!
//! * every `(thread, id)` closes once;
//! * a child's parent closes after it — the last spans of a truncated
//!   journal have parents that never closed;
//! * a child's interval lies inside its parent's.
//!
//! That is how `trace_validate` turns "every span close has a matching
//! open" into a checkable invariant.

use crate::JournalLine;
use dbtune_obs::{MemDelta, TraceEvent};
use std::collections::BTreeMap;

/// One reconstructed span occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Per-thread id from the journal.
    pub id: u64,
    /// Open time, as an offset from the journal's epoch.
    pub start_nanos: u64,
    /// Recorded monotonic duration.
    pub dur_nanos: u64,
    /// Allocation attribution, when the span was profiled.
    pub mem: Option<MemDelta>,
    /// Child spans, in close (= chronological) order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Close time, as an offset from the journal's epoch.
    pub fn end_nanos(&self) -> u64 {
        self.start_nanos.saturating_add(self.dur_nanos)
    }

    /// Summed duration of direct children.
    pub fn child_nanos(&self) -> u64 {
        self.children.iter().map(|c| c.dur_nanos).sum()
    }

    /// Time spent in this span but not in any child. Children lie inside
    /// their parent and one thread runs them one after another, so this
    /// never saturates on a journal [`build_trees`] accepts.
    pub fn self_nanos(&self) -> u64 {
        self.dur_nanos.saturating_sub(self.child_nanos())
    }

    /// This node plus all descendants.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::node_count).sum::<usize>()
    }
}

/// All root spans reconstructed for one thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadTree {
    /// Per-process thread ordinal from the journal.
    pub thread: u64,
    /// Top-level spans in close order.
    pub roots: Vec<SpanNode>,
}

impl ThreadTree {
    /// Summed duration of the thread's root spans (the thread's
    /// instrumented wall time).
    pub fn total_nanos(&self) -> u64 {
        self.roots.iter().map(|r| r.dur_nanos).sum()
    }
}

/// A structural violation found while building the trees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeError {
    /// 1-based journal line of the violating span event.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// A closed span whose parent has not closed yet, with its line.
struct Waiting {
    line: usize,
    node: SpanNode,
}

/// Builds the span trees of every thread from a journal's events
/// (non-`span` events are ignored). Returns one [`ThreadTree`] per
/// thread ordinal that closed a span, sorted by ordinal, or the first
/// structural violation.
pub fn build_trees(events: &[JournalLine]) -> Result<Vec<ThreadTree>, TreeError> {
    // Line of every close so far, by (thread, id).
    let mut closed: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    // Closed spans whose parent has not closed yet, by (thread, parent id).
    let mut waiting: BTreeMap<(u64, u64), Vec<Waiting>> = BTreeMap::new();
    let mut roots: BTreeMap<u64, Vec<SpanNode>> = BTreeMap::new();
    for jl in events {
        let TraceEvent::Span { name, id, parent_id, start_nanos, dur_nanos, thread, mem, .. } =
            &jl.event
        else {
            continue;
        };
        if let Some(first) = closed.insert((*thread, *id), jl.line) {
            return Err(TreeError {
                line: jl.line,
                message: format!(
                    "span '{name}' reuses id {id} of thread {thread} (closed on line {first})"
                ),
            });
        }
        let mut node = SpanNode {
            name: name.clone(),
            id: *id,
            start_nanos: *start_nanos,
            dur_nanos: *dur_nanos,
            mem: *mem,
            children: Vec::new(),
        };
        for child in waiting.remove(&(*thread, *id)).unwrap_or_default() {
            let c = &child.node;
            if c.start_nanos < node.start_nanos || c.end_nanos() > node.end_nanos() {
                return Err(TreeError {
                    line: child.line,
                    message: format!(
                        "span '{}' [{}, {}] lies outside its parent '{name}' [{}, {}] (line {})",
                        c.name,
                        c.start_nanos,
                        c.end_nanos(),
                        node.start_nanos,
                        node.end_nanos(),
                        jl.line
                    ),
                });
            }
            node.children.push(child.node);
        }
        match parent_id {
            None => roots.entry(*thread).or_default().push(node),
            Some(parent) => {
                waiting.entry((*thread, *parent)).or_default().push(Waiting { line: jl.line, node })
            }
        }
    }
    // Whatever still waits has a parent that never closed after it: the
    // journal was cut short, or the id names no span that could enclose
    // it.
    let orphan = waiting.iter().flat_map(|(&key, w)| w.iter().map(move |w| (key, w)));
    if let Some(((thread, parent), w)) = orphan.min_by_key(|(_, w)| w.line) {
        return Err(TreeError {
            line: w.line,
            message: format!(
                "span '{}' has parent id {parent} on thread {thread}, which never closed \
                 after it — journal truncated?",
                w.node.name
            ),
        });
    }
    Ok(roots.into_iter().map(|(thread, roots)| ThreadTree { thread, roots }).collect())
}

/// One node of the *merged* tree: all occurrences of the same span path
/// (root→…→name), across repeats and threads, folded together.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedNode {
    /// Occurrences of this path.
    pub count: u64,
    /// Summed duration over all occurrences.
    pub total_nanos: u64,
    /// Summed self time over all occurrences.
    pub self_nanos: u64,
    /// Summed recorded self bytes over the profiled occurrences.
    pub self_bytes: u64,
    /// Children keyed by span name (sorted — BTreeMap order).
    pub children: BTreeMap<String, MergedNode>,
}

impl MergedNode {
    fn fold(&mut self, node: &SpanNode) {
        let slot = self.children.entry(node.name.clone()).or_default();
        slot.count += 1;
        slot.total_nanos += node.dur_nanos;
        slot.self_nanos += node.self_nanos();
        slot.self_bytes += node.mem.map_or(0, |m| m.self_bytes);
        for child in &node.children {
            slot.fold(child);
        }
    }

    /// Sum of self time over this node and all descendants.
    pub fn deep_self_nanos(&self) -> u64 {
        self.self_nanos + self.children.values().map(MergedNode::deep_self_nanos).sum::<u64>()
    }
}

/// Merges every thread's trees into one path-keyed tree (the root node
/// is synthetic: `count == 0`, children are the real top-level spans).
pub fn merge_paths(trees: &[ThreadTree]) -> MergedNode {
    let mut root = MergedNode::default();
    for tree in trees {
        for node in &tree.roots {
            root.fold(node);
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span close on `thread`: `[start, start + dur]`, under `parent`.
    fn span(
        name: &str,
        id: u64,
        parent_id: Option<u64>,
        start: u64,
        dur: u64,
        thread: u64,
    ) -> TraceEvent {
        TraceEvent::Span {
            name: name.to_string(),
            id,
            parent_id,
            start_nanos: start,
            dur_nanos: dur,
            thread,
            mem: None,
            seq: 0,
        }
    }

    fn journal(events: Vec<TraceEvent>) -> Vec<JournalLine> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalLine { line: i + 2, event })
            .collect()
    }

    #[test]
    fn rebuilds_nesting_from_parent_ids() {
        // a [0,100] { b [5,15], c [20,40] { d [25,30] } }, closes in order.
        let events = journal(vec![
            span("b", 2, Some(1), 5, 10, 0),
            span("d", 4, Some(3), 25, 5, 0),
            span("c", 3, Some(1), 20, 20, 0),
            span("a", 1, None, 0, 100, 0),
        ]);
        let trees = build_trees(&events).expect("valid");
        assert_eq!(trees.len(), 1);
        let a = &trees[0].roots[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.children.len(), 2);
        assert_eq!(a.children[0].name, "b");
        assert_eq!(a.children[1].name, "c");
        assert_eq!(a.children[1].start_nanos, 20);
        assert_eq!(a.children[1].children[0].name, "d");
        assert_eq!(a.child_nanos(), 30);
        assert_eq!(a.self_nanos(), 70);
        assert_eq!(a.children[1].self_nanos(), 15);
        assert_eq!(a.node_count(), 4);
    }

    #[test]
    fn threads_are_reconstructed_independently() {
        // Both threads use id 1: ids are per thread.
        let events = journal(vec![
            span("inner", 2, Some(1), 1, 3, 1),
            span("solo", 1, None, 0, 7, 2),
            span("outer", 1, None, 0, 9, 1),
        ]);
        let trees = build_trees(&events).expect("valid");
        assert_eq!(trees.len(), 2);
        assert_eq!(trees[0].thread, 1);
        assert_eq!(trees[0].roots[0].children[0].name, "inner");
        assert_eq!(trees[1].thread, 2);
        assert_eq!(trees[1].total_nanos(), 7);
    }

    #[test]
    fn self_time_sums_to_root_time() {
        let events = journal(vec![
            span("fit", 2, Some(1), 0, 40, 0),
            span("acq", 3, Some(1), 50, 25, 0),
            span("suggest", 1, None, 0, 80, 0),
            span("evaluate", 4, None, 80, 50, 0),
        ]);
        let trees = build_trees(&events).expect("valid");
        let merged = merge_paths(&trees);
        let roots_total: u64 = trees.iter().map(ThreadTree::total_nanos).sum();
        assert_eq!(merged.deep_self_nanos(), roots_total);
        assert_eq!(merged.children["suggest"].self_nanos, 15);
    }

    #[test]
    fn merge_folds_repeated_paths() {
        let events = journal(vec![
            span("fit", 2, Some(1), 0, 10, 0),
            span("suggest", 1, None, 0, 30, 0),
            span("fit", 2, Some(1), 0, 20, 1),
            span("suggest", 1, None, 0, 50, 1),
        ]);
        let merged = merge_paths(&build_trees(&events).expect("valid"));
        let suggest = &merged.children["suggest"];
        assert_eq!(suggest.count, 2);
        assert_eq!(suggest.total_nanos, 80);
        assert_eq!(suggest.children["fit"].count, 2);
        assert_eq!(suggest.children["fit"].total_nanos, 30);
    }

    #[test]
    fn merged_self_bytes_sum_the_recorded_self_bytes() {
        let profiled = |event: TraceEvent, self_bytes: u64, total_bytes: u64| match event {
            TraceEvent::Span {
                name, id, parent_id, start_nanos, dur_nanos, thread, seq, ..
            } => TraceEvent::Span {
                name,
                id,
                parent_id,
                start_nanos,
                dur_nanos,
                thread,
                mem: Some(MemDelta { self_bytes, self_allocs: 1, total_bytes, total_allocs: 2 }),
                seq,
            },
            other => other,
        };
        // session { fit (400 B) ; acq (100 B) ; 500 B of its own }, run
        // twice; one unprofiled span adds no bytes.
        let events = journal(vec![
            profiled(span("fit", 2, Some(1), 0, 1, 0), 400, 400),
            profiled(span("acq", 3, Some(1), 1, 1, 0), 100, 100),
            profiled(span("session", 1, None, 0, 3, 0), 500, 1000),
            profiled(span("fit", 5, Some(4), 3, 1, 0), 400, 400),
            span("acq", 6, Some(4), 4, 1, 0),
            profiled(span("session", 4, None, 3, 3, 0), 500, 900),
        ]);
        let merged = merge_paths(&build_trees(&events).expect("valid"));
        let session = &merged.children["session"];
        assert_eq!(session.self_bytes, 1000);
        assert_eq!(session.children["fit"].self_bytes, 800);
        assert_eq!(session.children["acq"].self_bytes, 100);
    }

    #[test]
    fn rejects_duplicate_ids() {
        let events = journal(vec![span("a", 1, None, 0, 1, 0), span("b", 1, None, 2, 1, 0)]);
        let err = build_trees(&events).expect_err("must be rejected");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("reuses id 1 of thread 0 (closed on line 2)"), "{err}");
        // The same id on another thread is another span.
        let events = journal(vec![span("a", 1, None, 0, 1, 0), span("b", 1, None, 2, 1, 1)]);
        assert!(build_trees(&events).is_ok());
    }

    #[test]
    fn rejects_children_outside_their_parent() {
        for (start, dur) in [(4, 2), (9, 2), (12, 1)] {
            let events = journal(vec![
                span("child", 2, Some(1), start, dur, 0),
                span("top", 1, None, 5, 5, 0),
            ]);
            let err = build_trees(&events).expect_err("must be rejected");
            assert_eq!(err.line, 2, "the child's line is named");
            assert!(err.message.contains("lies outside its parent 'top' [5, 10]"), "{err}");
        }
        // Touching both ends is inside.
        let events =
            journal(vec![span("child", 2, Some(1), 5, 5, 0), span("top", 1, None, 5, 5, 0)]);
        assert!(build_trees(&events).is_ok());
    }

    #[test]
    fn rejects_truncated_journal_with_unclosed_parent() {
        // A child close whose parent never closes (truncation), and one
        // whose parent closed on an earlier line.
        for parent in [2, 1] {
            let events = journal(vec![
                span("root", 1, None, 0, 9, 0),
                span("child", 3, Some(parent), 1, 1, 0),
            ]);
            let err = build_trees(&events).expect_err("must be rejected");
            assert_eq!(err.line, 3, "the waiting child's line is named");
            let expected = format!("parent id {parent} on thread 0, which never closed after it");
            assert!(err.message.contains(&expected), "{err}");
        }
    }
}
