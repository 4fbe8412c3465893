//! Property tests for what the analysis tools build from span records:
//! trees that do not depend on how threads interleave in the journal,
//! flamegraph weights that add up to the roots' totals, and a Chrome
//! export that keeps every span at its recorded offset inside its
//! parent.
//!
//! The journals are synthetic: each thread runs a random open/close
//! program against a virtual clock, so intervals, ids and allocation
//! fields are exactly those a well-behaved writer would record.

use dbtune_obs::{MemDelta, TraceEvent};
use dbtune_trace::{build_trees, chrome_trace, collapsed_stacks, merge_paths, JournalLine};
use proptest::collection;
use proptest::prelude::*;

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// An open span of a synthetic program.
struct Open {
    name: &'static str,
    id: u64,
    start: u64,
    child_bytes: u64,
    child_allocs: u64,
}

/// The span closes of one thread running `program`: before each step the
/// virtual clock advances by `v % 5` ns (so zero-length spans and shared
/// boundaries occur); a value divisible by 3 closes the innermost open
/// span, any other value opens one. Every span is profiled, with self
/// bytes and allocations derived from its id and totals that include its
/// children's.
fn synth(program: &[u32], thread: u64) -> Vec<TraceEvent> {
    let (mut clock, mut last_id) = (0u64, 0u64);
    let mut open: Vec<Open> = Vec::new();
    let mut out = Vec::new();
    let close = |open: &mut Vec<Open>, out: &mut Vec<TraceEvent>, clock: u64| {
        let span = open.pop().expect("an open span to close");
        let mem = MemDelta {
            self_bytes: span.id * 7 % 100,
            self_allocs: span.id % 3,
            total_bytes: span.id * 7 % 100 + span.child_bytes,
            total_allocs: span.id % 3 + span.child_allocs,
        };
        if let Some(parent) = open.last_mut() {
            parent.child_bytes += mem.total_bytes;
            parent.child_allocs += mem.total_allocs;
        }
        out.push(TraceEvent::Span {
            name: span.name.to_string(),
            id: span.id,
            parent_id: open.last().map(|p| p.id),
            start_nanos: span.start,
            dur_nanos: clock - span.start,
            thread,
            mem: Some(mem),
            seq: 0,
        });
    };
    for &v in program {
        clock += u64::from(v % 5);
        if v % 3 == 0 && !open.is_empty() {
            close(&mut open, &mut out, clock);
        } else {
            last_id += 1;
            let name = NAMES[v as usize % NAMES.len()];
            open.push(Open { name, id: last_id, start: clock, child_bytes: 0, child_allocs: 0 });
        }
    }
    while !open.is_empty() {
        clock += 1;
        close(&mut open, &mut out, clock);
    }
    out
}

/// Numbers `events` as journal lines 2, 3, … (line 1 is `meta`).
fn lines(events: Vec<TraceEvent>) -> Vec<JournalLine> {
    events.into_iter().enumerate().map(|(i, event)| JournalLine { line: i + 2, event }).collect()
}

/// Merges per-thread close sequences into one journal: each pick takes
/// the next close of thread `pick % threads` (when it has one left), and
/// what remains follows in thread order. Each thread's own order is kept,
/// as one writer lock guarantees.
fn interleave(per_thread: &[Vec<TraceEvent>], picks: &[usize]) -> Vec<TraceEvent> {
    let mut next = vec![0usize; per_thread.len()];
    let mut out = Vec::new();
    for &pick in picks {
        let t = pick % per_thread.len();
        if let Some(ev) = per_thread[t].get(next[t]) {
            out.push(ev.clone());
            next[t] += 1;
        }
    }
    for (t, events) in per_thread.iter().enumerate() {
        out.extend(events[next[t]..].iter().cloned());
    }
    out
}

/// The value of `key` in one line of a Chrome export, as written.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + key.len() + 3..];
    &rest[..rest.find([',', '}']).expect("value ends")]
}

/// A Chrome microsecond value (`12`, `12.3`, `0.045`) back to exact
/// nanoseconds.
fn nanos(micros: &str) -> u64 {
    let (whole, frac) = micros.split_once('.').unwrap_or((micros, ""));
    assert!(frac.len() <= 3, "more than nanosecond precision: {micros}");
    let whole: u64 = whole.parse().expect("whole microseconds");
    let frac: u64 = format!("{frac:0<3}").parse().expect("nanosecond fraction");
    whole * 1_000 + frac
}

fn programs() -> impl Strategy<Value = Vec<Vec<u32>>> {
    collection::vec(collection::vec(0..12u32, 1..40), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn thread_interleaving_does_not_change_the_trees(
        programs in programs(),
        picks in collection::vec(0..3usize, 0..120),
    ) {
        let per_thread: Vec<Vec<TraceEvent>> =
            programs.iter().enumerate().map(|(t, p)| synth(p, t as u64)).collect();
        let one_by_one = build_trees(&lines(per_thread.concat())).expect("a sound journal builds");
        let mixed = build_trees(&lines(interleave(&per_thread, &picks)))
            .expect("an interleaved journal builds");
        prop_assert_eq!(&mixed, &one_by_one);
        prop_assert_eq!(mixed.len(), per_thread.iter().filter(|e| !e.is_empty()).count());
        for tree in &mixed {
            let spans: usize = tree.roots.iter().map(|r| r.node_count()).sum();
            prop_assert_eq!(spans, per_thread[tree.thread as usize].len());
        }
    }

    #[test]
    fn folded_weights_sum_to_the_roots_totals(programs in programs()) {
        let events: Vec<TraceEvent> =
            programs.iter().enumerate().flat_map(|(t, p)| synth(p, t as u64)).collect();
        let trees = build_trees(&lines(events)).expect("a sound journal builds");
        let merged = merge_paths(&trees);
        let sum = |folded: String| -> u64 {
            folded
                .lines()
                .map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok()).expect("value"))
                .sum()
        };
        let roots = trees.iter().flat_map(|t| &t.roots);
        let wall: u64 = roots.clone().map(|r| r.dur_nanos).sum();
        let bytes: u64 = roots.map(|r| r.mem.expect("profiled").total_bytes).sum();
        prop_assert_eq!(sum(collapsed_stacks(&merged, |n| n.self_nanos)), wall);
        prop_assert_eq!(sum(collapsed_stacks(&merged, |n| n.self_bytes)), bytes);
        prop_assert_eq!(merged.deep_self_nanos(), wall);
    }

    #[test]
    fn chrome_events_sit_at_their_offsets_inside_their_parents(programs in programs()) {
        let events: Vec<TraceEvent> =
            programs.iter().enumerate().flat_map(|(t, p)| synth(p, t as u64)).collect();
        let trees = build_trees(&lines(events.clone())).expect("a sound journal builds");
        let json = chrome_trace(&trees, "tree_props");
        // (tid, id) -> (parent id, start, end), read back from the export.
        let mut spans = std::collections::BTreeMap::new();
        for line in json.lines().filter(|l| l.contains(r#""ph":"X""#)) {
            let tid: u64 = field(line, "tid").parse().expect("tid");
            let id: u64 = field(line, "id").parse().expect("id");
            let parent = field(line, "parent_id").parse::<u64>().ok();
            let start = nanos(field(line, "ts"));
            let end = start + nanos(field(line, "dur"));
            prop_assert!(spans.insert((tid, id), (parent, start, end)).is_none(), "{line}");
        }
        prop_assert_eq!(spans.len(), events.len());
        for ev in &events {
            let TraceEvent::Span { id, parent_id, start_nanos, dur_nanos, thread, .. } = ev else {
                unreachable!("synth writes spans only")
            };
            let (parent, start, end) = spans[&(*thread, *id)];
            prop_assert_eq!((parent, start, end), (*parent_id, *start_nanos, start_nanos + dur_nanos));
            if let Some(p) = parent {
                let (_, p_start, p_end) = spans[&(*thread, p)];
                prop_assert!(p_start <= start && end <= p_end, "{id} outside {p} on {thread}");
            }
        }
    }
}
