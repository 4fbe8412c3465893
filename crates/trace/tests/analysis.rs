//! Unit-level tests of the trace analysis crate through its public API,
//! one module per source module: tree building and its rejections, the
//! collapsed-stack and Chrome exporters, the strict journal loader,
//! structural validation and run summaries.

mod tree {
    use dbtune_obs::TraceEvent;
    use dbtune_trace::{build_trees, merge_paths, JournalLine, MergedNode, SpanNode};

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

    /// Numbers `events` as journal lines 2, 3, … (line 1 is `meta`).
    fn journal(events: Vec<TraceEvent>) -> Vec<JournalLine> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| JournalLine { line: i + 2, event })
            .collect()
    }

    #[test]
    fn non_span_events_are_ignored() {
        let counter = |value| TraceEvent::Counter { name: "sim.evals".into(), value, seq: 0 };
        let events = journal(vec![
            counter(1),
            span("fit", 2, Some(1), 1, 2, 0),
            TraceEvent::Gauge { name: "exec.queue.depth".into(), value: -1, seq: 0 },
            span("suggest", 1, None, 0, 5, 0),
            counter(2),
        ]);
        let trees = build_trees(&events).expect("valid");
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].roots[0].node_count(), 2);
        // A journal without span events builds no trees at all.
        assert_eq!(build_trees(&journal(vec![counter(1), counter(2)])), Ok(vec![]));
        assert_eq!(build_trees(&[]), Ok(vec![]));
    }

    #[test]
    fn siblings_and_roots_keep_close_order() {
        // Close order is chronological on one thread; the builder keeps it
        // for children and for roots alike, whatever the ids say.
        let events = journal(vec![
            span("late_id", 9, Some(1), 1, 1, 0),
            span("early_id", 2, Some(1), 3, 1, 0),
            span("first_root", 1, None, 0, 5, 0),
            span("second_root", 3, None, 6, 1, 0),
        ]);
        let trees = build_trees(&events).expect("valid");
        let names = |nodes: &[SpanNode]| nodes.iter().map(|n| n.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&trees[0].roots), ["first_root", "second_root"]);
        assert_eq!(names(&trees[0].roots[0].children), ["late_id", "early_id"]);
        assert_eq!(trees[0].total_nanos(), 6);
    }

    #[test]
    fn deep_chains_attach_each_span_to_its_direct_parent() {
        // s1 [0,50] > s2 [1,48] > s3 [2,46] > s4 [3,44] > s5 [4,42],
        // closing innermost first.
        let events = journal(
            (1..=5u64)
                .rev()
                .map(|id| {
                    let parent = if id == 1 { None } else { Some(id - 1) };
                    span("level", id, parent, id - 1, 52 - 2 * id, 0)
                })
                .collect(),
        );
        let trees = build_trees(&events).expect("valid");
        let mut node = &trees[0].roots[0];
        for id in 1..=5u64 {
            assert_eq!(node.id, id);
            assert_eq!(node.node_count() as u64, 6 - id);
            if id < 5 {
                assert_eq!(node.children.len(), 1);
                // Only the direct child is subtracted: 2 ns per level.
                assert_eq!(node.self_nanos(), 2);
                node = &node.children[0];
            }
        }
        assert_eq!(node.self_nanos(), 42, "the leaf keeps its whole duration");
    }

    #[test]
    fn a_parent_on_another_thread_adopts_no_child() {
        // Id 1 closes on thread 0; the child on thread 1 names id 1 too,
        // but ids are per thread, so its parent never closed.
        let events =
            journal(vec![span("root", 1, None, 0, 10, 0), span("child", 2, Some(1), 1, 1, 1)]);
        let err = build_trees(&events).expect_err("must be rejected");
        assert_eq!(err.line, 3);
        assert!(err.message.contains("parent id 1 on thread 1"), "{err}");
    }

    #[test]
    fn the_earliest_orphan_is_reported() {
        // Three spans wait for parents that never close; the error names
        // the first of them in file order, whatever its key sorts as.
        let events = journal(vec![
            span("ok", 1, None, 0, 1, 0),
            span("first", 5, Some(9), 1, 1, 2),
            span("second", 6, Some(3), 1, 1, 0),
            span("third", 7, Some(4), 1, 1, 1),
        ]);
        let err = build_trees(&events).expect_err("must be rejected");
        assert_eq!(err.line, 3);
        assert!(err.message.starts_with("span 'first' has parent id 9 on thread 2"), "{err}");
        assert_eq!(err.to_string(), format!("line 3: {}", err.message));
    }

    #[test]
    fn interval_errors_name_the_parents_line_too() {
        // The child on line 3 starts before its parent, which closes on
        // line 4.
        let events = journal(vec![
            span("other", 9, None, 0, 1, 0),
            span("early", 2, Some(1), 3, 1, 0),
            span("top", 1, None, 4, 4, 0),
        ]);
        let err = build_trees(&events).expect_err("must be rejected");
        assert_eq!(err.line, 3);
        assert_eq!(
            err.message,
            "span 'early' [3, 4] lies outside its parent 'top' [4, 8] (line 4)"
        );
    }

    #[test]
    fn end_offsets_saturate_instead_of_wrapping() {
        let node = SpanNode {
            name: "late".into(),
            id: 1,
            start_nanos: u64::MAX - 1,
            dur_nanos: 5,
            mem: None,
            children: vec![],
        };
        assert_eq!(node.end_nanos(), u64::MAX);
        // A child ending past u64::MAX still lies inside a parent that
        // ends there too.
        let events = journal(vec![
            span("child", 2, Some(1), u64::MAX - 1, 5, 0),
            span("parent", 1, None, u64::MAX - 3, 3, 0),
        ]);
        assert!(build_trees(&events).is_ok());
    }

    #[test]
    fn merged_root_is_synthetic() {
        let events = journal(vec![
            span("suggest", 1, None, 0, 4, 0),
            span("evaluate", 2, None, 4, 6, 0),
            span("suggest", 3, None, 10, 2, 0),
        ]);
        let merged = merge_paths(&build_trees(&events).expect("valid"));
        assert_eq!(merged.count, 0, "the root stands for no span");
        assert_eq!(merged.total_nanos, 0);
        assert_eq!(merged.self_nanos, 0);
        let names: Vec<&str> = merged.children.keys().map(String::as_str).collect();
        assert_eq!(names, ["evaluate", "suggest"], "children sort by name");
        assert_eq!(merged.children["suggest"].count, 2);
        assert_eq!(merged.deep_self_nanos(), 12);
        assert_eq!(merge_paths(&[]), MergedNode::default());
    }
}

mod export {
    use dbtune_trace::{chrome_trace, collapsed_stacks, merge_paths, SpanNode, ThreadTree};

    fn node(name: &str, id: u64, start: u64, dur: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode { name: name.into(), id, start_nanos: start, dur_nanos: dur, mem: None, children }
    }

    /// The `traceEvents` array of a Chrome export, parsed.
    fn trace_events(json: &str) -> Vec<serde::Value> {
        let value: serde::Value = serde_json::from_str(json).expect("valid JSON");
        let Some(events) = value.as_object().and_then(|o| {
            o.iter().find(|(k, _)| k == "traceEvents").and_then(|(_, v)| v.as_array())
        }) else {
            panic!("missing traceEvents array in {json}")
        };
        events.to_vec()
    }

    #[test]
    fn semicolons_in_span_names_become_colons() {
        let trees = vec![ThreadTree {
            thread: 0,
            roots: vec![node("a;b", 1, 0, 10, vec![node("c", 2, 0, 4, vec![])])],
        }];
        let folded = collapsed_stacks(&merge_paths(&trees), |n| n.self_nanos);
        assert_eq!(folded, "a:b 6\na:b;c 4\n", "one frame per span, not three");
    }

    #[test]
    fn bytes_weighted_stacks_use_the_recorded_self_bytes() {
        let profiled = |mut n: SpanNode, self_bytes: u64, total_bytes: u64| {
            n.mem = Some(dbtune_obs::MemDelta {
                self_bytes,
                self_allocs: 1,
                total_bytes,
                total_allocs: 2,
            });
            n
        };
        // Two threads run the same path; the bytes weighting sums each
        // path's self bytes, and a zero-byte path has no line.
        let tree = |thread, fit_bytes| ThreadTree {
            thread,
            roots: vec![profiled(
                node(
                    "session",
                    1,
                    0,
                    10,
                    vec![
                        profiled(node("fit", 2, 0, 5, vec![]), fit_bytes, fit_bytes),
                        profiled(node("acq", 3, 5, 5, vec![]), 0, 0),
                    ],
                ),
                100,
                100 + fit_bytes,
            )],
        };
        let merged = merge_paths(&[tree(0, 400), tree(1, 24)]);
        assert_eq!(collapsed_stacks(&merged, |n| n.self_bytes), "session 200\nsession;fit 424\n");
    }

    #[test]
    fn chrome_export_escapes_names_and_source() {
        let name = "quote\" back\\slash\ttab\u{1}ctl";
        let trees = vec![ThreadTree { thread: 3, roots: vec![node(name, 1, 0, 1, vec![])] }];
        let json = chrome_trace(&trees, "C:\\runs\n\"x\"");
        let events = trace_events(&json);
        assert_eq!(events.len(), 2);
        let field = |v: &serde::Value, key: &str| {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()))
                .unwrap_or_else(|| panic!("missing {key} in {v:?}"))
        };
        assert_eq!(field(&events[1], "name").as_str(), Some(name), "{json}");
        assert!(json.contains(r#""name":"quote\" back\\slash\ttab\u0001ctl""#), "{json}");
        assert!(json.contains(r#""source":"C:\\runs\n\"x\"""#), "{json}");
    }

    #[test]
    fn chrome_export_without_spans_is_valid_json() {
        let json = chrome_trace(&[], "empty");
        assert!(trace_events(&json).is_empty(), "{json}");
        assert!(json.contains(r#""source":"empty""#));
    }

    #[test]
    fn chrome_export_names_each_thread_and_parents_by_id() {
        let trees = vec![
            ThreadTree {
                thread: 0,
                roots: vec![node("outer", 7, 0, 10, vec![node("inner", 8, 2, 3, vec![])])],
            },
            ThreadTree { thread: 5, roots: vec![node("worker", 7, 4, 2, vec![])] },
        ];
        let json = chrome_trace(&trees, "unit");
        assert_eq!(trace_events(&json).len(), 5, "two thread names + three spans");
        let lines: Vec<&str> = json.lines().collect();
        // Each thread's name event comes before its spans, and every span
        // carries its tid; the child names its parent's id.
        assert!(lines[1].contains(r#""tid":0,"args":{"name":"thread 0"}"#), "{json}");
        assert!(lines[2].contains(r#""name":"outer""#) && lines[2].contains(r#""tid":0"#));
        assert!(lines[3].contains(r#""name":"inner""#));
        assert!(lines[3].contains(r#""ts":0.002,"dur":0.003"#), "{json}");
        assert!(lines[3].contains(r#""args":{"id":8,"parent_id":7}"#), "{json}");
        assert!(lines[4].contains(r#""tid":5,"args":{"name":"thread 5"}"#), "{json}");
        assert!(lines[5].contains(r#""tid":5,"args":{"id":7,"parent_id":null}"#), "{json}");
    }

    #[test]
    fn chrome_timestamps_keep_every_digit_of_large_offsets() {
        let trees = vec![ThreadTree {
            thread: 0,
            roots: vec![
                node("late", 1, u64::MAX - 1_000, 1_000, vec![]),
                node("whole", 2, 1_000_000_000_000, 1_000_000_001, vec![]),
            ],
        }];
        let json = chrome_trace(&trees, "unit");
        assert!(json.contains(r#""ts":18446744073709550.615,"dur":1,"#), "{json}");
        assert!(json.contains(r#""ts":1000000000,"dur":1000000.001,"#), "{json}");
    }
}

mod loader {
    use dbtune_obs::journal::SCHEMA_VERSION;
    use dbtune_obs::TraceEvent;
    use dbtune_trace::load_journal_str;

    /// The leading `meta` line of a current journal.
    fn meta() -> String {
        TraceEvent::Meta { version: SCHEMA_VERSION, source: "unit".into() }.to_jsonl() + "\n"
    }

    #[test]
    fn rejects_a_second_meta_line() {
        let text = format!(
            "{}{{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"seq\":1}}\n{}",
            meta(),
            meta()
        );
        assert_eq!(
            load_journal_str(&text).expect_err("must be rejected"),
            "line 3: meta event must be the first line"
        );
    }

    #[test]
    fn a_blank_line_is_fatal_and_named() {
        let text =
            format!("{}\n{{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"seq\":1}}\n", meta());
        assert_eq!(load_journal_str(&text).expect_err("must be rejected"), "line 2: empty line");
    }

    #[test]
    fn a_partial_allocation_set_is_fatal_and_named() {
        let text = format!(
            "{}{}\n",
            meta(),
            concat!(
                "{\"type\":\"span\",\"name\":\"a\",\"id\":1,\"parent_id\":null,",
                "\"start_nanos\":0,\"dur_nanos\":5,\"thread\":0,\"self_bytes\":1,\"seq\":1}"
            )
        );
        let err = load_journal_str(&text).expect_err("must be rejected");
        assert!(err.starts_with("line 2: missing field 'self_allocs'"), "{err}");
    }

    #[test]
    fn events_keep_file_order_and_line_numbers() {
        let text = format!(
            "{}{}\n{}\n{}\n",
            meta(),
            "{\"type\":\"counter\",\"name\":\"b\",\"value\":1,\"seq\":1}",
            "{\"type\":\"unknown_kind\",\"seq\":2}",
            "{\"type\":\"counter\",\"name\":\"a\",\"value\":2,\"seq\":3}",
        );
        let j = load_journal_str(&text).expect("valid journal");
        let seen: Vec<(usize, u64)> = j.events.iter().map(|l| (l.line, l.event.seq())).collect();
        assert_eq!(seen, [(2, 1), (4, 3)], "the skipped line keeps its number");
    }
}

mod validate {
    use dbtune_obs::TraceEvent;
    use dbtune_trace::{check_structure, JournalLine};

    fn line(line: usize, event: TraceEvent) -> JournalLine {
        JournalLine { line, event }
    }

    fn counter(l: usize, name: &str, value: u64) -> JournalLine {
        line(l, TraceEvent::Counter { name: name.into(), value, seq: l as u64 })
    }

    fn gauge(l: usize, name: &str, value: i64) -> JournalLine {
        line(l, TraceEvent::Gauge { name: name.into(), value, seq: l as u64 })
    }

    /// An unprofiled span close on thread 0 over `[0, 9 - id]`, so
    /// parents (lower ids) enclose their children.
    fn span(l: usize, name: &str, id: u64, parent_id: Option<u64>) -> JournalLine {
        line(
            l,
            TraceEvent::Span {
                name: name.into(),
                id,
                parent_id,
                start_nanos: 0,
                dur_nanos: 9 - id,
                thread: 0,
                mem: None,
                seq: l as u64,
            },
        )
    }

    #[test]
    fn duplicate_span_ids_surface_as_violations() {
        let events = vec![span(2, "fit", 3, None), span(3, "acq", 3, None)];
        let v = check_structure(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("reuses id 3 of thread 0 (closed on line 2)"), "{}", v[0]);
    }

    #[test]
    fn children_outside_their_parent_surface_as_violations() {
        // `span` makes a child with a higher id shorter than its parent,
        // so a child with a *lower* id overruns it.
        let events = vec![span(2, "child", 1, Some(2)), span(3, "parent", 2, None)];
        let v = check_structure(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2, "the child's line is named");
        assert!(v[0].message.contains("lies outside its parent 'parent' [0, 7]"), "{}", v[0]);
    }

    #[test]
    fn counters_are_tracked_per_name_and_may_stay_level() {
        let events = vec![
            counter(2, "sim.evals", 5),
            counter(3, "exec.cells", 2),
            counter(4, "sim.evals", 5),
            counter(5, "exec.cells", 3),
            counter(6, "sim.evals", 6),
        ];
        assert_eq!(check_structure(&events), vec![]);
    }

    #[test]
    fn only_the_last_memory_gauge_flushes_are_compared() {
        // An early inverted pair is superseded by a sound final flush ...
        let events = vec![
            gauge(2, "mem.peak_bytes", 500),
            gauge(3, "mem.live_bytes", 900),
            gauge(4, "mem.peak_bytes", 1_000),
        ];
        assert_eq!(check_structure(&events), vec![]);
        // ... and a sound early pair does not excuse an inverted final one,
        // which is reported at the last live flush.
        let events = vec![
            gauge(2, "mem.peak_bytes", 1_000),
            gauge(3, "mem.live_bytes", 900),
            gauge(4, "mem.live_bytes", 1_100),
        ];
        let v = check_structure(&events);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 4);
        assert!(v[0].message.contains("mem.peak_bytes 1000 < mem.live_bytes 1100"), "{}", v[0]);
    }

    #[test]
    fn violations_come_back_sorted_by_line() {
        // The gauge check runs last and the tree check first, yet the
        // report lists every violation in file order.
        let events = vec![
            gauge(2, "mem.peak_bytes", 1),
            counter(3, "sim.evals", 9),
            gauge(4, "mem.live_bytes", 2),
            counter(5, "sim.evals", 1),
            span(6, "orphan", 2, Some(1)),
            counter(7, "sim.evals", 0),
        ];
        let lines: Vec<usize> = check_structure(&events).iter().map(|v| v.line).collect();
        assert_eq!(lines, [4, 5, 6, 7]);
    }
}

mod summary {
    use dbtune_obs::journal::SCHEMA_VERSION;
    use dbtune_obs::TraceEvent;
    use dbtune_trace::{summarize, JournalData, JournalLine, SpanSummary};

    fn line(event: TraceEvent) -> JournalLine {
        JournalLine { line: 0, event }
    }

    fn span(name: &str, id: u64, dur: u64, thread: u64) -> JournalLine {
        line(TraceEvent::Span {
            name: name.into(),
            id,
            parent_id: None,
            start_nanos: 0,
            dur_nanos: dur,
            thread,
            mem: None,
            seq: id,
        })
    }

    #[test]
    fn meta_events_leave_the_summary_unchanged() {
        let base = vec![
            span("fit", 1, 5, 0),
            line(TraceEvent::Counter { name: "sim.evals".into(), value: 2, seq: 2 }),
        ];
        let mut noisy = base.clone();
        noisy.insert(1, line(TraceEvent::Meta { version: SCHEMA_VERSION, source: "other".into() }));
        noisy.push(line(TraceEvent::Meta { version: SCHEMA_VERSION, source: "other".into() }));
        let summary = |events| {
            summarize(&JournalData { source: "unit".into(), version: SCHEMA_VERSION, events })
        };
        assert_eq!(summary(noisy), summary(base));
    }

    #[test]
    fn one_close_is_every_quantile_and_gauges_keep_their_last_flush() {
        let gauge =
            |name: &str, value| line(TraceEvent::Gauge { name: name.into(), value, seq: 0 });
        let journal = JournalData {
            source: "unit".into(),
            version: SCHEMA_VERSION,
            events: vec![
                span("evaluate", 1, 0, 0),
                span("observe", 2, 42, 3),
                gauge("exec.queue.depth", 4),
                gauge("mem.live_bytes", 10),
                gauge("exec.queue.depth", -1),
            ],
        };
        let s = summarize(&journal);
        assert_eq!(
            s.spans["observe"],
            SpanSummary { count: 1, total_nanos: 42, min_nanos: 42, p50_nanos: 42, p99_nanos: 42 }
        );
        assert_eq!(s.spans["evaluate"].total_nanos, 0, "zero-length closes still count");
        assert_eq!(s.spans["evaluate"].count, 1);
        let gauges: Vec<(&str, i64)> = s.gauges.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(gauges, [("exec.queue.depth", -1), ("mem.live_bytes", 10)]);
        assert!(s.counters.is_empty());
    }
}
