//! Exporters: collapsed-stack lines for flamegraph tooling and Chrome
//! `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! The Chrome export places every span at its recorded start offset
//! (monotonic, from the journal's epoch — no wall-clock date), so idle
//! gaps between siblings and the overlap of worker threads show as they
//! happened.

use crate::tree::{MergedNode, SpanNode, ThreadTree};
use std::fmt::Write as _;

/// Renders the merged path tree as collapsed-stack lines:
/// `root;child;leaf <value>`, one line per path with a nonzero value,
/// sorted by path (BTreeMap order) so output is diffable. `self_value`
/// picks the weight — `|n| n.self_nanos` for time, `|n| n.self_bytes`
/// for allocated bytes. Self values make flamegraph frame widths sum
/// correctly up the stack, so the total flame width is the roots' total.
pub fn collapsed_stacks(merged: &MergedNode, self_value: fn(&MergedNode) -> u64) -> String {
    let mut out = String::new();
    let mut path = Vec::new();
    fold_into(&mut out, &mut path, merged, self_value);
    out
}

fn fold_into(
    out: &mut String,
    path: &mut Vec<String>,
    node: &MergedNode,
    self_value: fn(&MergedNode) -> u64,
) {
    for (name, child) in &node.children {
        // Semicolons separate stack frames in the collapsed format;
        // span names are a fixed taxonomy that never contains one, but a
        // hand-written journal could.
        path.push(name.replace(';', ":"));
        let value = self_value(child);
        if value > 0 {
            let _ = writeln!(out, "{} {value}", path.join(";"));
        }
        fold_into(out, path, child, self_value);
        path.pop();
    }
}

/// Renders per-thread trees as Chrome `trace_event` JSON (the
/// "JSON object format": a `traceEvents` array of complete `"ph":"X"`
/// events plus thread-name metadata). Each event's `ts` is its span's
/// recorded start offset, and its `args` carry the span's id and parent
/// id. `source` labels the process.
pub fn chrome_trace(trees: &[ThreadTree], source: &str) -> String {
    let mut events = Vec::new();
    for tree in trees {
        let mut meta = String::new();
        let _ = write!(
            meta,
            r#"{{"name":"thread_name","ph":"M","pid":0,"tid":{},"args":{{"name":"#,
            tree.thread
        );
        json_string(&mut meta, &format!("thread {}", tree.thread));
        meta.push_str("}}");
        events.push(meta);
        for root in &tree.roots {
            emit_span(&mut events, root, None, tree.thread);
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"source\":");
    json_string(&mut out, source);
    out.push_str("}}\n");
    out
}

/// Writes one complete event for `node`, then one for each descendant.
fn emit_span(events: &mut Vec<String>, node: &SpanNode, parent_id: Option<u64>, tid: u64) {
    let mut line = String::with_capacity(128);
    line.push_str("{\"name\":");
    json_string(&mut line, &node.name);
    let _ = write!(
        line,
        r#","cat":"span","ph":"X","ts":{},"dur":{},"pid":0,"tid":{tid},"args":{{"id":{}"#,
        micros(node.start_nanos),
        micros(node.dur_nanos),
        node.id,
    );
    let _ = match parent_id {
        Some(p) => write!(line, r#","parent_id":{p}}}}}"#),
        None => write!(line, r#","parent_id":null}}}}"#),
    };
    events.push(line);
    for child in &node.children {
        emit_span(events, child, Some(node.id), tid);
    }
}

/// Nanoseconds as the microsecond string Chrome expects (fractional
/// part keeps full nanosecond precision, trailing zeros trimmed so
/// integral values print as integers).
fn micros(nanos: u64) -> String {
    let whole = nanos / 1_000;
    let frac = nanos % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}").trim_end_matches('0').to_string()
    }
}

/// JSON-escapes `s` (quotes included) into `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::merge_paths;

    fn node(name: &str, id: u64, start: u64, dur: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode { name: name.into(), id, start_nanos: start, dur_nanos: dur, mem: None, children }
    }

    fn sample_trees() -> Vec<ThreadTree> {
        vec![ThreadTree {
            thread: 0,
            roots: vec![node(
                "session",
                1,
                1_000,
                100,
                vec![node("suggest", 2, 1_000, 60, vec![]), node("evaluate", 3, 1_070, 30, vec![])],
            )],
        }]
    }

    #[test]
    fn collapsed_lines_carry_self_time_and_sum_to_wall() {
        let trees = sample_trees();
        let folded = collapsed_stacks(&merge_paths(&trees), |n| n.self_nanos);
        let mut lines: Vec<&str> = folded.lines().collect();
        lines.sort_unstable();
        assert_eq!(
            lines,
            vec!["session 10", "session;evaluate 30", "session;suggest 60"],
            "full output:\n{folded}"
        );
        let total: u64 = folded
            .lines()
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .expect("folded line has a count")
                    .parse::<u64>()
                    .expect("count parses")
            })
            .sum();
        assert_eq!(total, 100, "self times sum to the root wall time");
    }

    #[test]
    fn zero_self_time_paths_are_omitted() {
        let trees = vec![ThreadTree {
            thread: 0,
            roots: vec![node("outer", 1, 0, 10, vec![node("inner", 2, 0, 10, vec![])])],
        }];
        let folded = collapsed_stacks(&merge_paths(&trees), |n| n.self_nanos);
        assert_eq!(folded, "outer;inner 10\n", "outer has zero self time");
        // Nothing was profiled, so the bytes weighting has no lines.
        assert_eq!(collapsed_stacks(&merge_paths(&trees), |n| n.self_bytes), "");
    }

    #[test]
    fn chrome_export_places_spans_at_their_recorded_offsets() {
        let json = chrome_trace(&sample_trees(), "unit");
        // Dev-dependency serde_json checks the output is valid JSON with
        // the documented top-level shape.
        let value: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let Some(events) = value.as_object().and_then(|o| {
            o.iter().find(|(k, _)| k == "traceEvents").and_then(|(_, v)| v.as_array())
        }) else {
            panic!("missing traceEvents array in {json}")
        };
        assert_eq!(events.len(), 4, "thread meta + three spans");
        assert!(json.contains(r#""name":"thread_name","ph":"M""#));
        // session at 1µs for 0.1µs; evaluate at its own start, leaving the
        // 10ns gap after suggest in place.
        assert!(json.contains(concat!(
            r#""name":"session","cat":"span","ph":"X","ts":1,"dur":0.1,"pid":0,"tid":0,"#,
            r#""args":{"id":1,"parent_id":null}}"#
        )));
        assert!(json.contains(concat!(
            r#""name":"evaluate","cat":"span","ph":"X","ts":1.07,"dur":0.03,"pid":0,"tid":0,"#,
            r#""args":{"id":3,"parent_id":1}}"#
        )));
        assert!(json.contains(r#""source":"unit""#));
    }

    #[test]
    fn micros_formats_nanosecond_precision() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_230), "1.23");
        assert_eq!(micros(999), "0.999");
    }
}
