//! Property tests for the journal wire format: `TraceEvent::to_jsonl`
//! and `TraceEvent::parse_line` must be exact inverses for every
//! representable event — including names and sources that need JSON
//! escaping, and span events with and without allocation fields — and
//! the parser must fail gracefully (never panic) on malformed or
//! truncated lines. A last property writes real span records through a
//! private `Telemetry` and checks that `build_trees` returns exactly the
//! nesting that was opened.

use dbtune_obs::{MemDelta, Telemetry, TraceEvent};
use dbtune_trace::{build_trees, load_journal_str, SpanNode};
use proptest::collection;
use proptest::prelude::*;
use proptest::sample::select;

/// String fragments chosen to stress the JSON escaper: quotes,
/// backslashes, control characters, multi-byte UTF-8, and the literal
/// escape sequences themselves.
fn tricky_string() -> impl Strategy<Value = String> {
    collection::vec(
        select(vec![
            "a",
            "exec.cache",
            "\"",
            "\\",
            "\n",
            "\t",
            "\r",
            "\u{1}",
            "\u{1f}",
            "λ",
            "嗨",
            "🔥",
            "\\n",
            "\\\"",
            "{",
            "}",
            ",",
            ":",
            " ",
            "",
        ]),
        0..8,
    )
    .prop_map(|parts| parts.concat())
}

fn any_event() -> impl Strategy<Value = TraceEvent> {
    (
        0..5u32,
        (tricky_string(), 0..4u32),
        (0..u64::MAX, 0..u64::MAX, 1..u64::MAX),
        (0..16u64, i64::MIN..i64::MAX, 0..u64::MAX),
    )
        .prop_map(|(kind, (name, shape), (a, b, seq), (thread, signed, c))| match kind {
            0 => TraceEvent::Meta { version: a, source: name },
            // `shape` picks a root or a child, profiled or not.
            1 => TraceEvent::Span {
                name,
                id: a,
                parent_id: (shape & 1 == 1).then_some(b),
                start_nanos: b,
                dur_nanos: c,
                thread,
                mem: (shape & 2 == 2).then_some(MemDelta {
                    self_bytes: b.min(c),
                    self_allocs: a.min(c),
                    total_bytes: b.max(c),
                    total_allocs: a.max(c),
                }),
                seq,
            },
            2 => TraceEvent::Counter { name, value: a, seq },
            3 => TraceEvent::Gauge { name, value: signed, seq },
            _ => TraceEvent::Cell {
                index: a,
                cache_hits: b,
                cache_misses: c,
                dur_nanos: b,
                thread,
                seq,
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_jsonl_parse_line_round_trips(event in any_event()) {
        let line = event.to_jsonl();
        prop_assert!(!line.contains('\n'), "serialized event must stay one line: {line:?}");
        let back = TraceEvent::parse_line(&line)
            .unwrap_or_else(|e| panic!("own output must parse: {e}\nline: {line:?}"));
        prop_assert_eq!(&back, &event, "round trip changed the event; line: {:?}", line);
        // Serialization is canonical: a second trip is byte-identical.
        prop_assert_eq!(back.to_jsonl(), line);
    }

    #[test]
    fn truncated_lines_error_instead_of_panicking(event in any_event(), cut in 0..4096usize) {
        let line = event.to_jsonl();
        // Every strict prefix has unbalanced braces, so it must parse as
        // an error — never a panic, never a silently different event.
        let mut cut = cut % line.len().max(1);
        while !line.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &line[..cut];
        prop_assert!(
            TraceEvent::parse_line(prefix).is_err(),
            "truncated line parsed: {prefix:?}"
        );
    }

    #[test]
    fn corrupted_bytes_never_panic(event in any_event(), pos in 0..4096usize, junk in select(vec![b'X', b'{', b'"', b'\\', b'7', 0xffu8])) {
        let line = event.to_jsonl();
        let mut bytes = line.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] = junk;
        // The mutation may or may not leave valid UTF-8 / JSON; the only
        // contract is graceful handling. When it still parses, the result
        // must itself round-trip (the parser never fabricates
        // unserializable events).
        if let Ok(text) = String::from_utf8(bytes) {
            if let Ok(parsed) = TraceEvent::parse_line(&text) {
                let again = parsed.to_jsonl();
                prop_assert_eq!(TraceEvent::parse_line(&again).expect("round-tripped line parses"), parsed);
            }
        }
    }
}

#[test]
fn malformed_lines_report_errors_not_panics() {
    let cases = [
        "",
        "{}",
        "null",
        "[1,2,3]",
        "{\"type\":\"nope\",\"seq\":1}",
        "{\"type\":\"counter\",\"name\":\"c\"}",
        "{\"type\":\"counter\",\"name\":\"c\",\"value\":-1,\"seq\":1}",
        "{\"type\":\"span\",\"name\":\"s\",\"id\":1,\"parent_id\":\"a\",\"start_nanos\":0,\"dur_nanos\":1,\"thread\":0,\"seq\":1}",
        "{\"type\":\"span\",\"name\":\"s\",\"id\":1,\"parent_id\":null,\"start_nanos\":0,\"dur_nanos\":1,\"thread\":0,\"self_bytes\":1,\"seq\":1}",
        "{\"type\":\"meta\",\"version\":\"one\",\"source\":\"x\"}",
        "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"seq\":1}trailing",
        "not json at all",
        "{\"type\":\"cell\",\"index\":1,\"cache_hits\":1,\"cache_misses\":",
    ];
    for case in cases {
        let result = TraceEvent::parse_line(case);
        assert!(result.is_err(), "{case:?} unexpectedly parsed: {result:?}");
    }
}

/// Span names the nesting property opens (span names are `'static`).
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// A span as opened: its name and the spans opened inside it.
#[derive(Debug, PartialEq)]
struct Opened(&'static str, Vec<Opened>);

/// Runs one thread's `program` through `tele`'s span guards: a value
/// divisible by 3 closes the innermost open span (when there is one),
/// any other value opens a span named by it. Returns the thread's
/// ordinal and the roots it opened.
fn run_program(tele: &Telemetry, program: &[u32]) -> (u64, Vec<Opened>) {
    let (mut guards, mut open, mut roots) = (Vec::new(), Vec::<Opened>::new(), Vec::new());
    let close = |open: &mut Vec<Opened>, roots: &mut Vec<Opened>| {
        let done = open.pop().expect("an open span to close");
        match open.last_mut() {
            Some(parent) => parent.1.push(done),
            None => roots.push(done),
        }
    };
    for &v in program {
        if v % 3 == 0 && !guards.is_empty() {
            drop(guards.pop());
            close(&mut open, &mut roots);
        } else {
            let name = NAMES[v as usize % NAMES.len()];
            guards.push(tele.span(name));
            open.push(Opened(name, Vec::new()));
        }
    }
    while let Some(guard) = guards.pop() {
        drop(guard);
        close(&mut open, &mut roots);
    }
    (dbtune_obs::journal::thread_ordinal(), roots)
}

/// The nesting of a built span, checking on the way down that every
/// child lies inside its parent's interval.
fn built(node: &SpanNode) -> Opened {
    for child in &node.children {
        assert!(
            child.start_nanos >= node.start_nanos && child.end_nanos() <= node.end_nanos(),
            "'{}' lies outside '{}'",
            child.name,
            node.name
        );
    }
    let name = NAMES.into_iter().find(|n| *n == node.name).expect("a name the property opened");
    Opened(name, node.children.iter().map(built).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn built_trees_are_the_nesting_that_was_opened(
        programs in collection::vec(collection::vec(0..12u32, 1..30), 1..=3),
    ) {
        let path = std::env::temp_dir()
            .join(format!("dbtune_journal_props_nesting_{}.jsonl", std::process::id()));
        let tele = Telemetry::new();
        tele.enable_journal(&path, "journal_props").expect("journal opens");
        let mut opened: Vec<(u64, Vec<Opened>)> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                programs.iter().map(|p| scope.spawn(|| run_program(&tele, p))).collect();
            handles.into_iter().map(|h| h.join().expect("program thread")).collect()
        });
        tele.journal.disable();
        let text = std::fs::read_to_string(&path).expect("journal written");
        let _ = std::fs::remove_file(&path);

        opened.sort_by_key(|(thread, _)| *thread);
        let journal = load_journal_str(&text).expect("journal loads");
        let trees = build_trees(&journal.events).expect("a written journal builds");
        let got: Vec<(u64, Vec<Opened>)> =
            trees.iter().map(|t| (t.thread, t.roots.iter().map(built).collect())).collect();
        prop_assert_eq!(got, opened);

        // Cut after any child's close: its parent closes on a later line,
        // so the prefix has a parent that never closed.
        let lines: Vec<&str> = text.lines().collect();
        for (k, line) in lines.iter().enumerate().skip(1) {
            if line.contains("\"parent_id\":null") {
                continue;
            }
            let prefix = lines[..=k].join("\n");
            let events = load_journal_str(&prefix).expect("a prefix loads").events;
            let err = build_trees(&events).expect_err("a cut journal must not build");
            prop_assert!(err.message.contains("never closed"), "line {}: {err}", k + 1);
        }
    }
}
