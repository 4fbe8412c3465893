//! Tests of the telemetry layer through its public API, one module per
//! source module: the journal's wire format and sink, span ids and
//! nesting as the journal records them, span-attributed allocation
//! totals, the metrics registry, and metric flushes.

use std::path::PathBuf;

/// A fresh path under the system temp dir for one test's journal.
fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dbtune_obs_instruments");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

mod journal {
    use super::temp_path;
    use dbtune_obs::journal::{thread_ordinal, SCHEMA_VERSION};
    use dbtune_obs::{parse_journal, Journal, TraceEvent};

    fn round_trip(ev: TraceEvent) {
        let line = ev.to_jsonl();
        let back = TraceEvent::parse_line(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
        assert_eq!(back, ev, "line was {line}");
    }

    /// One event of every kind, as the writer would produce them.
    fn one_of_each() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta { version: SCHEMA_VERSION, source: "unit".into() },
            TraceEvent::Span {
                name: "fit".into(),
                id: 2,
                parent_id: Some(1),
                start_nanos: 3,
                dur_nanos: 4,
                thread: 0,
                mem: None,
                seq: 5,
            },
            TraceEvent::Counter { name: "c".into(), value: 1, seq: 6 },
            TraceEvent::Gauge { name: "g".into(), value: -1, seq: 7 },
            TraceEvent::Diag {
                session: "s".into(),
                iter: 0,
                outcome: "ok".into(),
                score_bits: 0,
                best_bits: 0,
                regret_bits: None,
                cum_regret_bits: None,
                novelty_bits: None,
                pred_mean_bits: None,
                pred_var_bits: None,
                seq: 8,
            },
        ]
    }

    #[test]
    fn kind_is_the_serialized_type_tag() {
        let kinds: Vec<&str> = one_of_each().iter().map(TraceEvent::kind).collect();
        assert_eq!(kinds, ["meta", "span", "counter", "gauge", "diag"]);
        for ev in one_of_each() {
            let tag = format!(r#"{{"type":"{}","#, ev.kind());
            assert!(ev.to_jsonl().starts_with(&tag), "{}", ev.to_jsonl());
        }
    }

    #[test]
    fn seq_reads_every_kind_and_emit_renumbers_in_write_order() {
        let seqs: Vec<u64> = one_of_each().iter().map(TraceEvent::seq).collect();
        assert_eq!(seqs, [0, 5, 6, 7, 8], "meta carries no sequence number");
        let path = temp_path("emit_seq.jsonl");
        let j = Journal::new();
        j.enable(&path, "unit").expect("enable");
        for ev in one_of_each().into_iter().skip(1).rev() {
            j.emit(ev);
        }
        j.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let written: Vec<(&'static str, u64)> = text
            .lines()
            .map(|l| TraceEvent::parse_line(l).expect("valid line"))
            .map(|ev| (ev.kind(), ev.seq()))
            .collect();
        assert_eq!(written, [("meta", 0), ("diag", 1), ("gauge", 2), ("counter", 3), ("span", 4)]);
    }

    #[test]
    fn gauge_values_follow_i64_bounds() {
        let parse_gauge = |value: &str| {
            TraceEvent::parse_line(&format!(
                r#"{{"type":"gauge","name":"g","value":{value},"seq":1}}"#
            ))
        };
        let value = |ev: TraceEvent| match ev {
            TraceEvent::Gauge { value, .. } => value,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(value(parse_gauge("9223372036854775807").expect("i64::MAX")), i64::MAX);
        assert_eq!(value(parse_gauge("-9223372036854775808").expect("i64::MIN")), i64::MIN);
        assert_eq!(
            parse_gauge("9223372036854775808").expect_err("one past i64::MAX"),
            "field 'value' overflows i64"
        );
        assert!(parse_gauge("-9223372036854775809").is_err(), "one below i64::MIN");
        assert!(parse_gauge("\"5\"").is_err(), "a string is not an integer");
    }

    #[test]
    fn unicode_escapes_and_control_characters_round_trip() {
        round_trip(TraceEvent::Counter {
            name: "bell\u{7}nul\u{0}del\u{7f}".into(),
            value: 1,
            seq: 1,
        });
        round_trip(TraceEvent::Gauge {
            name: "kn\u{f6}b \u{2014} \u{1f4be}".into(),
            value: 0,
            seq: 2,
        });
        let ev = TraceEvent::Counter { name: "a\u{1}b".into(), value: 1, seq: 1 };
        assert_eq!(ev.to_jsonl(), r#"{"type":"counter","name":"a\u0001b","value":1,"seq":1}"#);
        // Escapes the writer never produces still parse.
        let parsed =
            TraceEvent::parse_line(r#"{"type":"counter","name":"\u00e9\/x","value":1,"seq":1}"#);
        assert_eq!(parsed, Ok(TraceEvent::Counter { name: "\u{e9}/x".into(), value: 1, seq: 1 }));
    }

    #[test]
    fn parse_reports_where_a_line_goes_wrong() {
        let err = |line: &str| TraceEvent::parse_line(line).expect_err(line);
        assert_eq!(err(r#"{"type":"counter"} x"#), "trailing data after object at byte 20");
        assert_eq!(err(r#"{"type" "counter"}"#), "expected ':' at byte 7");
        assert_eq!(err(r#"{"type":"c\q"}"#), "bad escape at byte 10");
        assert_eq!(err(r#"{"type":"c\u12"}"#), "bad \\u escape at byte 10");
        assert_eq!(err(r#"{"type":"counter"#), "unterminated string at byte 16");
        assert_eq!(err(r#"{"parent_id":nul}"#), "expected 'null' at byte 13");
        assert_eq!(err(r#"{"type":true}"#), "expected value at byte 8");
        assert_eq!(err(r#"{"n":1-2}"#), "bad integer '1-2' at byte 5");
        assert_eq!(err("{}"), "missing field 'type'");
        assert_eq!(err(r#"{"type":7}"#), "field 'type' is not a string: UInt(7)");
    }

    #[test]
    fn parse_ignores_surrounding_whitespace() {
        let line = "  \t{\"type\":\"counter\",\"name\":\"c\",\"value\":3,\"seq\":1}\r ";
        assert_eq!(
            TraceEvent::parse_line(line),
            Ok(TraceEvent::Counter { name: "c".into(), value: 3, seq: 1 })
        );
    }

    #[test]
    fn hist_lines_are_not_an_event_kind() {
        // Schema 2 flushed metric histograms as `hist` events; schema 3
        // has no histogram kind, so the strict parser rejects the line.
        let line = r#"{"type":"hist","name":"exec.cell_nanos","count":7,"p50_nanos":100,"p99_nanos":900,"seq":4}"#;
        assert_eq!(TraceEvent::parse_line(line), Err("unknown event type 'hist'".to_string()));
    }

    #[test]
    fn span_parent_ids_are_unsigned_or_null() {
        let span = |parent: &str| {
            TraceEvent::parse_line(&format!(
                concat!(
                    r#"{{"type":"span","name":"a","id":2,"parent_id":{},"start_nanos":0,"#,
                    r#""dur_nanos":1,"thread":0,"seq":1}}"#
                ),
                parent
            ))
        };
        assert!(matches!(span("1"), Ok(TraceEvent::Span { parent_id: Some(1), .. })));
        assert!(matches!(span("null"), Ok(TraceEvent::Span { parent_id: None, .. })));
        for bad in ["-1", "\"1\""] {
            let err = span(bad).expect_err(bad);
            assert!(
                err.starts_with("field 'parent_id' is not a non-negative integer or null"),
                "{err}"
            );
        }
    }

    #[test]
    fn parse_journal_reports_empty_lines() {
        let meta = TraceEvent::Meta { version: SCHEMA_VERSION, source: "t".into() };
        let text = format!("{}\n\n\n", meta.to_jsonl());
        let lines: Vec<(usize, Result<TraceEvent, String>)> = parse_journal(&text).collect();
        assert_eq!(lines.len(), 3, "the final newline ends a line, it starts none");
        assert_eq!(lines[1], (2, Err("empty line".to_string())));
        assert_eq!(lines[2], (3, Err("empty line".to_string())));
    }

    #[test]
    fn an_unwritable_path_leaves_the_journal_off() {
        let j = Journal::new();
        let path = temp_path("no_such_dir").join("nested").join("j.jsonl");
        assert!(j.enable(&path, "unit").is_err());
        assert!(!j.is_enabled());
        j.emit(TraceEvent::Counter { name: "c".into(), value: 1, seq: 0 });
        j.flush();
        j.disable();
        assert!(!path.exists());
    }

    #[test]
    fn re_enabling_truncates_and_restarts_the_sequence() {
        let path = temp_path("reenable.jsonl");
        let j = Journal::new();
        j.enable(&path, "first").expect("enable");
        for value in 0..3 {
            j.emit(TraceEvent::Counter { name: "c".into(), value, seq: 0 });
        }
        j.disable();
        j.emit(TraceEvent::Counter { name: "dropped".into(), value: 9, seq: 0 });
        j.enable(&path, "second").expect("re-enable");
        j.emit(TraceEvent::Counter { name: "c".into(), value: 7, seq: 0 });
        j.flush();
        let text = std::fs::read_to_string(&path).expect("read journal");
        j.disable();
        assert_eq!(
            text,
            format!(
                "{{\"type\":\"meta\",\"version\":{SCHEMA_VERSION},\"source\":\"second\"}}\n{}\n",
                "{\"type\":\"counter\",\"name\":\"c\",\"value\":7,\"seq\":1}"
            )
        );
    }

    #[test]
    fn thread_ordinals_are_stable_per_thread_and_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(thread_ordinal(), mine);
        let others: Vec<u64> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let first = thread_ordinal();
                    assert_eq!(thread_ordinal(), first);
                    first
                })
                .join()
                .expect("worker")
            })
            .collect();
        let mut all = others.clone();
        all.push(mine);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4, "ordinals {others:?} and {mine}");
    }
}

mod span {
    use super::temp_path;
    use dbtune_obs::journal::thread_ordinal;
    use dbtune_obs::span::phase_secs;
    use dbtune_obs::{collect_phases, memprof, PhaseRecord, Telemetry, TraceEvent};
    use std::path::Path;

    /// One span record as the journal wrote it.
    struct Record {
        name: String,
        id: u64,
        parent_id: Option<u64>,
        thread: u64,
    }

    /// The span records of the journal at `path`, in file order.
    fn spans_of(path: &Path) -> Vec<Record> {
        let text = std::fs::read_to_string(path).expect("read journal");
        text.lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Span { name, id, parent_id, thread, .. } => {
                    Record { name, id, parent_id, thread }
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    #[test]
    fn ids_are_never_reused_on_a_thread() {
        let path = temp_path("span_ids.jsonl");
        let tele = Telemetry::new();
        tele.enable_journal(&path, "unit").expect("enable");
        for _ in 0..3 {
            let _sibling = tele.span("sibling_span");
        }
        tele.journal.disable();
        // The stack is empty again after each close, but the next id moves
        // on, so siblings never share an id in one journal.
        let ids: Vec<(u64, Option<u64>)> =
            spans_of(&path).iter().map(|s| (s.id, s.parent_id)).collect();
        let first = ids[0].0;
        assert_eq!(ids, [(first, None), (first + 1, None), (first + 2, None)]);
    }

    #[test]
    fn each_thread_numbers_its_spans_from_one() {
        let path = temp_path("span_threads.jsonl");
        let tele = Telemetry::new();
        tele.enable_journal(&path, "unit").expect("enable");
        let main = tele.span("main_thread_span");
        let worker = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _outer = tele.span("worker_outer");
                    let _inner = tele.span("worker_inner");
                    thread_ordinal()
                })
                .join()
                .expect("worker")
        });
        drop(main);
        tele.journal.disable();
        let on_worker: Vec<(String, u64, Option<u64>)> = spans_of(&path)
            .into_iter()
            .filter(|s| s.thread == worker)
            .map(|s| (s.name, s.id, s.parent_id))
            .collect();
        assert_eq!(
            on_worker,
            [("worker_inner".to_string(), 2, Some(1)), ("worker_outer".to_string(), 1, None)]
        );
    }

    #[test]
    fn phase_secs_sums_only_the_named_records() {
        let records = [
            PhaseRecord { name: "surrogate_fit", nanos: 1_500_000_000 },
            PhaseRecord { name: "acquisition", nanos: 250_000_000 },
            PhaseRecord { name: "surrogate_fit", nanos: 500_000_000 },
        ];
        assert_eq!(phase_secs(&records, "surrogate_fit"), 2.0);
        assert_eq!(phase_secs(&records, "acquisition"), 0.25);
        assert_eq!(phase_secs(&records, "evaluate"), 0.0);
        assert_eq!(phase_secs(&[], "surrogate_fit"), 0.0);
    }

    #[test]
    fn collectors_see_only_their_own_threads_spans() {
        let tele = Telemetry::new();
        let ((), records) = collect_phases(|| {
            let _mine = tele.span("collector_own_thread");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _theirs = tele.span("collector_other_thread");
                });
            });
        });
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["collector_own_thread"]);
    }

    #[test]
    fn collectors_record_spans_in_close_order() {
        let tele = Telemetry::new();
        let ((), records) = collect_phases(|| {
            let _outer = tele.span("order_outer");
            let _ = tele.span("order_first");
            let _ = tele.span("order_second");
        });
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["order_first", "order_second", "order_outer"]);
        let outer = records[2].nanos;
        assert!(records[..2].iter().all(|r| r.nanos <= outer), "{records:?}");
    }

    #[test]
    fn journal_events_name_the_enclosing_span_and_lie_inside_it() {
        let path = temp_path("span_nesting.jsonl");
        let tele = Telemetry::new();
        tele.enable_journal(&path, "unit").expect("enable");
        {
            let _outer = tele.span("journal_outer");
            let _middle = tele.span("journal_middle");
            let _leaf = tele.span("journal_leaf");
        }
        {
            let _second_root = tele.span("journal_root");
        }
        tele.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let spans: Vec<(String, u64, Option<u64>, u64, u64, u64)> = text
            .lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Span {
                    name, id, parent_id, start_nanos, dur_nanos, thread, ..
                } => (name, id, parent_id, start_nanos, start_nanos + dur_nanos, thread),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let names: Vec<&str> = spans.iter().map(|s| s.0.as_str()).collect();
        assert_eq!(names, ["journal_leaf", "journal_middle", "journal_outer", "journal_root"]);
        let (leaf, middle, outer, root) = (&spans[0], &spans[1], &spans[2], &spans[3]);
        assert_eq!(leaf.2, Some(middle.1), "the leaf names the innermost enclosing span");
        assert_eq!(middle.2, Some(outer.1));
        assert_eq!(outer.2, None);
        assert_eq!(root.2, None);
        assert_eq!([outer.1 + 1, outer.1 + 2, outer.1 + 3], [middle.1, leaf.1, root.1]);
        for (child, parent) in [(leaf, middle), (middle, outer)] {
            assert!(parent.3 <= child.3 && child.4 <= parent.4, "child inside parent: {text}");
        }
        assert!(outer.4 <= root.3, "the second root opens after the first closed: {text}");
        let me = thread_ordinal();
        assert!(spans.iter().all(|s| s.5 == me), "{text}");
    }

    #[test]
    fn an_unobserved_span_allocates_nothing_after_warm_up() {
        // No journal and no phase collector: an open and close is a frame
        // push and pop and two clock reads. The memprof latch only counts
        // allocations here (its baselines live in the frame itself).
        memprof::enable();
        let tele = Telemetry::new();
        let churn = || {
            for _ in 0..100 {
                let _outer = tele.span("unobserved_outer");
                let _inner = tele.span("unobserved_inner");
            }
        };
        churn(); // grows this thread's frame stack once
        let before = memprof::thread_stats();
        churn();
        let after = memprof::thread_stats();
        assert_eq!(after.alloc_count, before.alloc_count, "{before:?} -> {after:?}");
        assert_eq!(after.alloc_bytes, before.alloc_bytes);
    }
}

mod memprof {
    use super::temp_path;
    use dbtune_obs::{memprof, MemDelta, Telemetry, TraceEvent};
    use std::hint::black_box;

    /// One profiled span record as the journal wrote it.
    #[derive(Debug)]
    struct Record {
        name: String,
        id: u64,
        parent_id: Option<u64>,
        mem: MemDelta,
    }

    /// Latches memprof, runs `scenario` once without a journal to warm
    /// the thread's span stack, then again with the journal at `file`, and
    /// returns the second run's span records in close order.
    fn journaled(file: &str, scenario: impl Fn(&Telemetry)) -> Vec<Record> {
        let path = temp_path(file);
        let tele = Telemetry::new();
        memprof::enable();
        scenario(&tele);
        tele.enable_journal(&path, "unit").expect("enable");
        scenario(&tele);
        tele.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        text.lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Span { name, id, parent_id, mem: Some(mem), .. } => {
                    Record { name, id, parent_id, mem }
                }
                other => panic!("a span opened while latched is profiled: {other:?}"),
            })
            .collect()
    }

    /// A child's allocations as (self bytes, self allocs, total bytes,
    /// total allocs). A child is held exactly: its baseline closes before
    /// its journal event is built.
    fn fields(r: &Record) -> (u64, u64, u64, u64) {
        (r.mem.self_bytes, r.mem.self_allocs, r.mem.total_bytes, r.mem.total_allocs)
    }

    /// Checks a parent against its direct children: whatever the parent
    /// allocated itself, including the children's journal emission (which
    /// runs after each child's baseline closed), is its self part, and
    /// the children's totals make up the rest.
    fn holds_its_children(parent: &Record, records: &[Record]) {
        let children: Vec<&Record> =
            records.iter().filter(|r| r.parent_id == Some(parent.id)).collect();
        assert!(!children.is_empty(), "{} has children", parent.name);
        let bytes: u64 = children.iter().map(|c| c.mem.total_bytes).sum();
        let allocs: u64 = children.iter().map(|c| c.mem.total_allocs).sum();
        assert_eq!(parent.mem.total_bytes, parent.mem.self_bytes + bytes, "{parent:?}");
        assert_eq!(parent.mem.total_allocs, parent.mem.self_allocs + allocs, "{parent:?}");
    }

    /// Allocates `bytes` once, where the optimizer cannot elide it.
    fn allocate(bytes: usize) {
        drop(black_box(Vec::<u8>::with_capacity(bytes)));
    }

    #[test]
    fn sibling_children_both_fold_into_the_parent() {
        let records = journaled("memprof_siblings.jsonl", |tele| {
            let _parent = tele.span("memprof_sib_parent");
            {
                let _a = tele.span("memprof_sib_a");
                allocate(100);
            }
            {
                let _b = tele.span("memprof_sib_b");
                allocate(40);
            }
            allocate(7);
        });
        let [a, b, parent] = &records[..] else { panic!("three spans expected: {records:?}") };
        assert_eq!((a.name.as_str(), b.name.as_str()), ("memprof_sib_a", "memprof_sib_b"));
        assert_eq!(fields(a), (100, 1, 100, 1));
        assert_eq!(fields(b), (40, 1, 40, 1));
        assert!(parent.mem.self_bytes >= 7 && parent.mem.self_allocs >= 1, "{parent:?}");
        holds_its_children(parent, &records);
    }

    #[test]
    fn grandchild_bytes_are_claimed_once_by_the_direct_parent() {
        let records = journaled("memprof_grandchild.jsonl", |tele| {
            let _top = tele.span("memprof_gc_top");
            let _mid = tele.span("memprof_gc_mid");
            {
                let _leaf = tele.span("memprof_gc_leaf");
                allocate(500);
            }
            allocate(30);
        });
        let [leaf, mid, top] = &records[..] else { panic!("three spans expected: {records:?}") };
        assert_eq!(leaf.name, "memprof_gc_leaf");
        assert_eq!(fields(leaf), (500, 1, 500, 1));
        assert!(mid.mem.self_bytes >= 30, "{mid:?}");
        holds_its_children(mid, &records);
        // The leaf's bytes reach the top through the middle span's total,
        // and are subtracted there once.
        holds_its_children(top, &records);
        assert!(top.mem.total_bytes >= 530, "{top:?}");
    }

    #[test]
    fn profiled_span_events_carry_their_allocations() {
        let path = temp_path("profiled.jsonl");
        let tele = Telemetry::new();
        tele.enable_memprof();
        assert!(tele.memprof_enabled() && memprof::enabled());
        tele.enable_journal(&path, "unit").expect("enable");
        {
            let _outer = tele.span("memprof_journal_outer");
            let own = black_box(Vec::<u8>::with_capacity(512));
            {
                let _inner = tele.span("memprof_journal_inner");
                allocate(2048);
            }
            drop(own);
        }
        tele.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let mems: Vec<MemDelta> = text
            .lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Span { mem: Some(m), .. } => m,
                other => panic!("a span opened while latched is profiled: {other:?}"),
            })
            .collect();
        let [inner, outer] = mems[..] else { panic!("two spans expected: {text}") };
        assert!(inner.total_bytes >= 2048 && inner.self_bytes == inner.total_bytes, "{text}");
        assert!(outer.self_bytes >= 512, "{text}");
        assert_eq!(outer.total_bytes, outer.self_bytes + inner.total_bytes, "{text}");
        assert_eq!(outer.total_allocs, outer.self_allocs + inner.total_allocs, "{text}");
    }
}

mod metrics {
    use dbtune_obs::{Counter, Gauge, Registry};

    #[test]
    fn instrument_kinds_keep_separate_namespaces() {
        let r = Registry::new();
        r.counter("exec.cells").add(2);
        r.gauge("exec.cells").set(-4);
        assert_eq!(r.counter("exec.cells").get(), 2);
        assert_eq!(r.gauge("exec.cells").get(), -4);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("exec.cells".to_string(), 2)]);
        assert_eq!(snap.gauges, vec![("exec.cells".to_string(), -4)]);
    }

    #[test]
    fn detached_instruments_start_at_zero_and_clones_share_state() {
        let c = Counter::new();
        let g = Gauge::new();
        assert_eq!((c.get(), g.get()), (0, 0));
        let (c2, g2) = (c.clone(), g.clone());
        c2.add(u64::MAX - 1);
        c.inc();
        g2.set_max(-5);
        assert_eq!(g.get(), 0, "set_max keeps the larger value");
        g2.set(-5);
        assert_eq!((c.get(), g.get()), (u64::MAX, -5));
    }
}

mod telemetry {
    use super::temp_path;
    use dbtune_obs::{collect_phases, span, Telemetry, TraceEvent};

    #[test]
    fn flush_metrics_writes_each_kind_sorted_by_name() {
        let path = temp_path("flush_order.jsonl");
        let t = Telemetry::new();
        t.metrics.counter("sim.evals").add(7);
        t.metrics.counter("exec.cells").add(2);
        t.metrics.gauge("mem.live_bytes").set(5);
        t.metrics.gauge("exec.cache.entries").set(-3);
        t.enable_journal(&path, "test").expect("enable");
        t.flush_metrics();
        // A second flush appends the cumulative values again.
        t.metrics.counter("sim.evals").inc();
        t.flush_metrics();
        t.journal.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let rows: Vec<(String, String)> = text
            .lines()
            .skip(1)
            .map(|l| match TraceEvent::parse_line(l).expect("valid line") {
                TraceEvent::Counter { name, value, .. } => (name, value.to_string()),
                TraceEvent::Gauge { name, value, .. } => (name, value.to_string()),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected = |evals: &str| {
            [
                ("exec.cells", "2"),
                ("sim.evals", evals),
                ("exec.cache.entries", "-3"),
                ("mem.live_bytes", "5"),
            ]
            .map(|(n, v)| (n.to_string(), v.to_string()))
        };
        assert_eq!(rows[..4], expected("7"), "{text}");
        assert_eq!(rows[4..], expected("8"), "{text}");
    }

    #[test]
    fn the_span_shorthand_reports_to_the_phase_collector() {
        let ((), records) = collect_phases(|| {
            let _s = span("telemetry_global_shorthand");
        });
        let names: Vec<&str> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["telemetry_global_shorthand"]);
    }
}
