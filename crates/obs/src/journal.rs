//! The JSONL trace journal: one structured event per line.
//!
//! Enabled by pointing it at a file (`DBTUNE_TRACE=<path>` or the
//! drivers' `trace=<path>` flag); when disabled, emission costs one
//! relaxed atomic load. Every event serializes with a **fixed field
//! order** (documented per variant below and in docs/observability.md),
//! so journals are diffable and greppable; `seq` is assigned under the
//! writer lock, so line order and sequence order always agree.
//!
//! The schema is versioned: the first line of every journal is a `meta`
//! event carrying [`SCHEMA_VERSION`]. [`TraceEvent::parse_line`] parses a
//! journal line back into the event struct (round-trip tested here and
//! against real driver output by `trace_validate`).

use crate::memprof::MemDelta;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version stamped into the journal's leading `meta` event.
pub const SCHEMA_VERSION: u64 = 3;

/// One journal event. Field order in the serialized JSON is exactly the
/// declaration order of each variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// First line of every journal:
    /// `{"type":"meta","version":N,"source":S}`.
    Meta {
        /// Schema version ([`SCHEMA_VERSION`]).
        version: u64,
        /// What produced the journal (driver name or "env").
        source: String,
    },
    /// A span closed — the one record per span:
    /// `{"type":"span","name":S,"id":N,"parent_id":N|null,"start_nanos":N,"dur_nanos":N,"thread":N[,"self_bytes":N,"self_allocs":N,"total_bytes":N,"total_allocs":N],"seq":N}`.
    ///
    /// The four allocation fields are present exactly when the memprof
    /// latch was on as the span opened (see `memprof::enable`). `total_*`
    /// counts everything allocated on the span's thread while it was
    /// open; `self_*` is the total minus what its direct children
    /// claimed, so `self <= total` always (checked by `trace_validate`).
    /// Deallocations never reduce these — they measure churn, not
    /// residency.
    Span {
        /// Span name (see the taxonomy in docs/observability.md).
        name: String,
        /// Per-thread id, assigned when the span opened.
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent_id: Option<u64>,
        /// Monotonic open time, as an offset from the journal's epoch
        /// (read when the [`Journal`] was created).
        start_nanos: u64,
        /// Monotonic duration.
        dur_nanos: u64,
        /// Per-process thread ordinal (see [`thread_ordinal`]).
        thread: u64,
        /// Allocation attribution, when the span was profiled.
        mem: Option<MemDelta>,
        /// Journal sequence number (assigned at write time).
        seq: u64,
    },
    /// A counter's value at flush:
    /// `{"type":"counter","name":S,"value":N,"seq":N}`.
    Counter {
        /// Instrument name.
        name: String,
        /// Cumulative count.
        value: u64,
        /// Journal sequence number.
        seq: u64,
    },
    /// A gauge's value at flush:
    /// `{"type":"gauge","name":S,"value":N,"seq":N}`.
    Gauge {
        /// Instrument name.
        name: String,
        /// Instantaneous value.
        value: i64,
        /// Journal sequence number.
        seq: u64,
    },
    /// One executor grid cell completed:
    /// `{"type":"cell","index":N,"cache_hits":N,"cache_misses":N,"dur_nanos":N,"thread":N,"seq":N}`.
    Cell {
        /// Grid-order cell index.
        index: u64,
        /// Evaluation-cache hits observed by this cell's session.
        cache_hits: u64,
        /// Evaluation-cache misses observed by this cell's session.
        cache_misses: u64,
        /// Wall-clock cell duration.
        dur_nanos: u64,
        /// Per-process thread ordinal.
        thread: u64,
        /// Journal sequence number.
        seq: u64,
    },
    /// One tuner iteration's optimizer-quality record (emitted only when
    /// diagnostics are enabled — see `Telemetry::enable_diag`):
    /// `{"type":"diag","session":S,"iter":N,"outcome":S,"score_bits":N,"best_bits":N,"regret_bits":N|null,"cum_regret_bits":N|null,"novelty_bits":N|null,"pred_mean_bits":N|null,"pred_var_bits":N|null,"seq":N}`.
    ///
    /// All floats travel as IEEE-754 bit words (`f64::to_bits`) so the
    /// journal's flat integer parser round-trips them exactly — the same
    /// convention session checkpoints use. Oriented score scale
    /// throughout (ln-throughput / −ln-latency); optional fields are
    /// `null` when the quantity does not exist for the iteration (no
    /// known optimum, model-free optimizer, LHS warm-up, first
    /// iteration's novelty).
    Diag {
        /// Session label (driver-assigned; groups one session's records).
        session: String,
        /// Iteration index within the session (0-based).
        iter: u64,
        /// How the evaluation ended: `ok`, `crash`, or `fault`.
        outcome: String,
        /// This iteration's oriented score, as bits.
        score_bits: u64,
        /// Incumbent (best-so-far) oriented score after this iteration.
        best_bits: u64,
        /// Simple regret `optimum − best`, when the workload's simulated
        /// optimum is known.
        regret_bits: Option<u64>,
        /// Cumulative regret `Σ (optimum − score_i)` up to this iteration.
        cum_regret_bits: Option<u64>,
        /// L∞ distance in unit space to the nearest previously evaluated
        /// configuration (`null` on the first iteration).
        novelty_bits: Option<u64>,
        /// Surrogate's pre-observation predictive mean at the chosen
        /// point (model-based optimizers only).
        pred_mean_bits: Option<u64>,
        /// Surrogate's pre-observation predictive variance.
        pred_var_bits: Option<u64>,
        /// Journal sequence number.
        seq: u64,
    },
}

impl TraceEvent {
    /// The event's `"type"` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Meta { .. } => "meta",
            TraceEvent::Span { .. } => "span",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::Gauge { .. } => "gauge",
            TraceEvent::Cell { .. } => "cell",
            TraceEvent::Diag { .. } => "diag",
        }
    }

    /// Serializes to one JSONL line (no trailing newline), fields in the
    /// documented order.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            TraceEvent::Meta { version, source } => {
                let _ = write!(s, r#"{{"type":"meta","version":{version},"source":"#);
                escape_into(&mut s, source);
                s.push('}');
            }
            TraceEvent::Span { name, id, parent_id, start_nanos, dur_nanos, thread, mem, seq } => {
                let _ = write!(s, r#"{{"type":"span","name":"#);
                escape_into(&mut s, name);
                let _ = match parent_id {
                    Some(p) => write!(s, r#","id":{id},"parent_id":{p}"#),
                    None => write!(s, r#","id":{id},"parent_id":null"#),
                };
                let _ = write!(
                    s,
                    r#","start_nanos":{start_nanos},"dur_nanos":{dur_nanos},"thread":{thread}"#
                );
                if let Some(m) = mem {
                    let _ = write!(
                        s,
                        r#","self_bytes":{},"self_allocs":{},"total_bytes":{},"total_allocs":{}"#,
                        m.self_bytes, m.self_allocs, m.total_bytes, m.total_allocs
                    );
                }
                let _ = write!(s, r#","seq":{seq}}}"#);
            }
            TraceEvent::Counter { name, value, seq } => {
                let _ = write!(s, r#"{{"type":"counter","name":"#);
                escape_into(&mut s, name);
                let _ = write!(s, r#","value":{value},"seq":{seq}}}"#);
            }
            TraceEvent::Gauge { name, value, seq } => {
                let _ = write!(s, r#"{{"type":"gauge","name":"#);
                escape_into(&mut s, name);
                let _ = write!(s, r#","value":{value},"seq":{seq}}}"#);
            }
            TraceEvent::Cell { index, cache_hits, cache_misses, dur_nanos, thread, seq } => {
                let _ = write!(
                    s,
                    r#"{{"type":"cell","index":{index},"cache_hits":{cache_hits},"cache_misses":{cache_misses},"dur_nanos":{dur_nanos},"thread":{thread},"seq":{seq}}}"#
                );
            }
            TraceEvent::Diag {
                session,
                iter,
                outcome,
                score_bits,
                best_bits,
                regret_bits,
                cum_regret_bits,
                novelty_bits,
                pred_mean_bits,
                pred_var_bits,
                seq,
            } => {
                let _ = write!(s, r#"{{"type":"diag","session":"#);
                escape_into(&mut s, session);
                let _ = write!(s, r#","iter":{iter},"outcome":"#);
                escape_into(&mut s, outcome);
                let _ = write!(s, r#","score_bits":{score_bits},"best_bits":{best_bits}"#);
                let mut opt = |key: &str, v: &Option<u64>| {
                    let _ = match v {
                        Some(v) => write!(s, r#","{key}":{v}"#),
                        None => write!(s, r#","{key}":null"#),
                    };
                };
                opt("regret_bits", regret_bits);
                opt("cum_regret_bits", cum_regret_bits);
                opt("novelty_bits", novelty_bits);
                opt("pred_mean_bits", pred_mean_bits);
                opt("pred_var_bits", pred_var_bits);
                let _ = write!(s, r#","seq":{seq}}}"#);
            }
        }
        s
    }

    /// Parses one journal line back into the event struct. Errors name
    /// the offending field so `trace_validate` output is actionable.
    pub fn parse_line(line: &str) -> Result<TraceEvent, String> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&FlatValue, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field '{key}'"))
        };
        let get_str = |key: &str| -> Result<String, String> {
            match get(key)? {
                FlatValue::Str(s) => Ok(s.clone()),
                other => Err(format!("field '{key}' is not a string: {other:?}")),
            }
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            match get(key)? {
                FlatValue::UInt(u) => Ok(*u),
                other => Err(format!("field '{key}' is not a non-negative integer: {other:?}")),
            }
        };
        let get_i64 = |key: &str| -> Result<i64, String> {
            match get(key)? {
                FlatValue::UInt(u) => {
                    i64::try_from(*u).map_err(|_| format!("field '{key}' overflows i64"))
                }
                FlatValue::Int(i) => Ok(*i),
                other => Err(format!("field '{key}' is not an integer: {other:?}")),
            }
        };
        let get_opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match get(key)? {
                FlatValue::Null => Ok(None),
                FlatValue::UInt(u) => Ok(Some(*u)),
                other => {
                    Err(format!("field '{key}' is not a non-negative integer or null: {other:?}"))
                }
            }
        };
        match get_str("type")?.as_str() {
            "meta" => {
                Ok(TraceEvent::Meta { version: get_u64("version")?, source: get_str("source")? })
            }
            "span" => Ok(TraceEvent::Span {
                name: get_str("name")?,
                id: get_u64("id")?,
                parent_id: get_opt_u64("parent_id")?,
                start_nanos: get_u64("start_nanos")?,
                dur_nanos: get_u64("dur_nanos")?,
                thread: get_u64("thread")?,
                // The allocation fields travel together: any one of them
                // makes all four required.
                mem: if fields.iter().any(|(k, _)| MEM_FIELDS.contains(&k.as_str())) {
                    Some(MemDelta {
                        self_bytes: get_u64("self_bytes")?,
                        self_allocs: get_u64("self_allocs")?,
                        total_bytes: get_u64("total_bytes")?,
                        total_allocs: get_u64("total_allocs")?,
                    })
                } else {
                    None
                },
                seq: get_u64("seq")?,
            }),
            "counter" => Ok(TraceEvent::Counter {
                name: get_str("name")?,
                value: get_u64("value")?,
                seq: get_u64("seq")?,
            }),
            "gauge" => Ok(TraceEvent::Gauge {
                name: get_str("name")?,
                value: get_i64("value")?,
                seq: get_u64("seq")?,
            }),
            "cell" => Ok(TraceEvent::Cell {
                index: get_u64("index")?,
                cache_hits: get_u64("cache_hits")?,
                cache_misses: get_u64("cache_misses")?,
                dur_nanos: get_u64("dur_nanos")?,
                thread: get_u64("thread")?,
                seq: get_u64("seq")?,
            }),
            "diag" => Ok(TraceEvent::Diag {
                session: get_str("session")?,
                iter: get_u64("iter")?,
                outcome: get_str("outcome")?,
                score_bits: get_u64("score_bits")?,
                best_bits: get_u64("best_bits")?,
                regret_bits: get_opt_u64("regret_bits")?,
                cum_regret_bits: get_opt_u64("cum_regret_bits")?,
                novelty_bits: get_opt_u64("novelty_bits")?,
                pred_mean_bits: get_opt_u64("pred_mean_bits")?,
                pred_var_bits: get_opt_u64("pred_var_bits")?,
                seq: get_u64("seq")?,
            }),
            other => Err(format!("unknown event type '{other}'")),
        }
    }

    /// The event's `seq` field (0 for `meta`, which carries none).
    pub fn seq(&self) -> u64 {
        match self {
            TraceEvent::Meta { .. } => 0,
            TraceEvent::Span { seq, .. }
            | TraceEvent::Counter { seq, .. }
            | TraceEvent::Gauge { seq, .. }
            | TraceEvent::Cell { seq, .. }
            | TraceEvent::Diag { seq, .. } => *seq,
        }
    }

    fn with_seq(mut self, n: u64) -> Self {
        match &mut self {
            TraceEvent::Meta { .. } => {}
            TraceEvent::Span { seq, .. }
            | TraceEvent::Counter { seq, .. }
            | TraceEvent::Gauge { seq, .. }
            | TraceEvent::Cell { seq, .. }
            | TraceEvent::Diag { seq, .. } => *seq = n,
        }
        self
    }
}

/// The span event's optional allocation fields, in serialization order.
const MEM_FIELDS: [&str; 4] = ["self_bytes", "self_allocs", "total_bytes", "total_allocs"];

/// JSON-escapes `s` (quotes included) into `out`.
fn escape_into(out: &mut String, s: &str) {
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

/// A value in a flat (non-nested) JSON object.
#[derive(Clone, Debug, PartialEq)]
enum FlatValue {
    Null,
    Str(String),
    UInt(u64),
    Int(i64),
}

/// Parses a flat JSON object — strings, integers, and `null` only, which
/// is all the journal ever writes. Kept tiny and dependency-free on
/// purpose; full documents go through the workspace's `serde_json`.
fn parse_flat_object(line: &str) -> Result<Vec<(String, FlatValue)>, String> {
    let text = line.trim();
    let mut chars = text.char_indices().peekable();
    let mut fields = Vec::new();
    let err = |msg: &str, at: usize| {
        Err::<Vec<(String, FlatValue)>, String>(format!("{msg} at byte {at}"))
    };

    match chars.next() {
        Some((_, '{')) => {}
        _ => return err("expected '{'", 0),
    }
    // Empty object.
    if let Some(&(_, '}')) = chars.peek() {
        chars.next();
    } else {
        loop {
            let key = parse_string(text, &mut chars)?;
            match chars.next() {
                Some((_, ':')) => {}
                Some((at, _)) => return err("expected ':'", at),
                None => return err("unexpected end", text.len()),
            }
            let value = match chars.peek() {
                Some(&(_, '"')) => FlatValue::Str(parse_string(text, &mut chars)?),
                Some(&(at, 'n')) => {
                    for expect in ['n', 'u', 'l', 'l'] {
                        match chars.next() {
                            Some((_, c)) if c == expect => {}
                            _ => return err("expected 'null'", at),
                        }
                    }
                    FlatValue::Null
                }
                Some(&(at, c)) if c == '-' || c.is_ascii_digit() => {
                    let mut num = String::new();
                    while let Some(&(_, c)) = chars.peek() {
                        if c == '-' || c.is_ascii_digit() {
                            num.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    if num.starts_with('-') {
                        FlatValue::Int(
                            num.parse().map_err(|_| format!("bad integer '{num}' at byte {at}"))?,
                        )
                    } else {
                        FlatValue::UInt(
                            num.parse().map_err(|_| format!("bad integer '{num}' at byte {at}"))?,
                        )
                    }
                }
                Some(&(at, _)) => return err("expected value", at),
                None => return err("unexpected end", text.len()),
            };
            fields.push((key, value));
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                Some((at, _)) => return err("expected ',' or '}'", at),
                None => return err("unexpected end", text.len()),
            }
        }
    }
    if chars.next().is_some() {
        return err("trailing data after object", text.len());
    }
    Ok(fields)
}

/// Parses one JSON string literal (cursor positioned at the opening `"`).
fn parse_string(
    text: &str,
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
) -> Result<String, String> {
    match chars.next() {
        Some((_, '"')) => {}
        Some((at, _)) => return Err(format!("expected '\"' at byte {at}")),
        None => return Err(format!("unexpected end at byte {}", text.len())),
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some((_, '"')) => return Ok(out),
            Some((at, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|(_, c)| c.to_digit(16))
                            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
                        code = code * 16 + d;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("bad \\u escape at byte {at}"))?,
                    );
                }
                _ => return Err(format!("bad escape at byte {at}")),
            },
            Some((_, c)) => out.push(c),
            None => return Err(format!("unterminated string at byte {}", text.len())),
        }
    }
}

/// Iterates a journal's text as `(line_number, parse result)` pairs —
/// the shared reading layer under `trace_validate` and the analysis
/// tools in `dbtune-trace`. Line numbers are 1-based; parse failures are
/// yielded in place rather than aborting, so callers decide whether a
/// bad line is fatal (strict loaders) or reportable (validators).
pub fn parse_journal(text: &str) -> impl Iterator<Item = (usize, Result<TraceEvent, String>)> + '_ {
    text.lines().enumerate().map(|(idx, line)| {
        let parsed = if line.is_empty() {
            Err("empty line".to_string())
        } else {
            TraceEvent::parse_line(line)
        };
        (idx + 1, parsed)
    })
}

thread_local! {
    static THREAD_ORDINAL: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// A small, stable, per-process ordinal for the current thread (assigned
/// on first use; `std::thread::ThreadId` has no stable integer form).
pub fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|&t| t)
}

/// The JSONL sink. See the module docs for the enablement and cost
/// contract.
#[derive(Debug)]
pub struct Journal {
    enabled: AtomicBool,
    sink: Mutex<Option<JournalSink>>,
    /// Origin of every span's `start_nanos`: read when the journal is
    /// created, so no span that reports to it can open before it.
    epoch: Instant,
}

impl Default for Journal {
    fn default() -> Self {
        Self { enabled: AtomicBool::new(false), sink: Mutex::new(None), epoch: crate::span::now() }
    }
}

#[derive(Debug)]
struct JournalSink {
    writer: BufWriter<File>,
    seq: u64,
}

impl Journal {
    /// A disabled journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// `at` as a nanosecond offset from the journal's epoch — how span
    /// events record when they opened.
    pub(crate) fn offset_nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Whether events are currently being written — the one check hot
    /// paths make before constructing an event.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Starts writing to `path` (truncating), beginning with the `meta`
    /// schema line. `source` names the producer (driver name or "env").
    pub fn enable(&self, path: &Path, source: &str) -> std::io::Result<()> {
        let file = File::create(path)?;
        let mut sink = JournalSink { writer: BufWriter::new(file), seq: 0 };
        let meta = TraceEvent::Meta { version: SCHEMA_VERSION, source: source.to_string() };
        writeln!(sink.writer, "{}", meta.to_jsonl())?;
        *self.sink.lock().expect("journal lock") = Some(sink);
        self.enabled.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Stops writing and flushes the sink.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
        if let Some(mut sink) = self.sink.lock().expect("journal lock").take() {
            let _ = sink.writer.flush();
        }
    }

    /// Writes one event (no-op when disabled). The event's `seq` is
    /// overwritten with the journal's next sequence number under the
    /// writer lock, so file order always equals sequence order.
    pub fn emit(&self, event: TraceEvent) {
        if !self.is_enabled() {
            return;
        }
        let mut guard = self.sink.lock().expect("journal lock");
        if let Some(sink) = guard.as_mut() {
            sink.seq += 1;
            let line = event.with_seq(sink.seq).to_jsonl();
            let _ = writeln!(sink.writer, "{line}");
        }
    }

    /// Flushes buffered lines to disk without disabling.
    pub fn flush(&self) {
        if let Some(sink) = self.sink.lock().expect("journal lock").as_mut() {
            let _ = sink.writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ev: TraceEvent) {
        let line = ev.to_jsonl();
        let back = TraceEvent::parse_line(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
        assert_eq!(back, ev, "line was {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(TraceEvent::Meta { version: 1, source: "fig9_overhead".into() });
        round_trip(TraceEvent::Span {
            name: "surrogate_fit".into(),
            id: 7,
            parent_id: Some(5),
            start_nanos: 1_000_000,
            dur_nanos: 12_345,
            thread: 3,
            mem: None,
            seq: 17,
        });
        round_trip(TraceEvent::Span {
            name: "session".into(),
            id: 1,
            parent_id: None,
            start_nanos: 0,
            dur_nanos: 1,
            thread: 0,
            mem: Some(MemDelta {
                self_allocs: 0,
                self_bytes: 0,
                total_allocs: u64::MAX,
                total_bytes: u64::MAX,
            }),
            seq: 1,
        });
        round_trip(TraceEvent::Counter { name: "exec.cache.hits".into(), value: u64::MAX, seq: 2 });
        round_trip(TraceEvent::Gauge { name: "exec.queue.depth".into(), value: -5, seq: 3 });
        round_trip(TraceEvent::Cell {
            index: 6,
            cache_hits: 40,
            cache_misses: 2,
            dur_nanos: 1_000_000,
            thread: 1,
            seq: 5,
        });
        round_trip(TraceEvent::Diag {
            session: "bo/ro_heavy".into(),
            iter: 17,
            outcome: "ok".into(),
            score_bits: 4.2f64.to_bits(),
            best_bits: 4.5f64.to_bits(),
            regret_bits: Some(0.3f64.to_bits()),
            cum_regret_bits: Some(7.1f64.to_bits()),
            novelty_bits: Some(0.25f64.to_bits()),
            pred_mean_bits: Some(4.1f64.to_bits()),
            pred_var_bits: Some(0.02f64.to_bits()),
            seq: 6,
        });
        round_trip(TraceEvent::Diag {
            session: "random/wo_heavy".into(),
            iter: 0,
            outcome: "crash".into(),
            score_bits: (-1.0f64).to_bits(),
            best_bits: 0.0f64.to_bits(),
            regret_bits: None,
            cum_regret_bits: None,
            novelty_bits: None,
            pred_mean_bits: None,
            pred_var_bits: None,
            seq: 7,
        });
    }

    #[test]
    fn strings_with_special_characters_round_trip() {
        round_trip(TraceEvent::Meta { version: 1, source: "C:\\tmp\\\"x\"\nresults".into() });
    }

    #[test]
    fn field_order_is_stable() {
        let ev = TraceEvent::Span {
            name: "a".into(),
            id: 3,
            parent_id: None,
            start_nanos: 1,
            dur_nanos: 2,
            thread: 0,
            mem: None,
            seq: 9,
        };
        assert_eq!(
            ev.to_jsonl(),
            concat!(
                r#"{"type":"span","name":"a","id":3,"parent_id":null,"start_nanos":1,"#,
                r#""dur_nanos":2,"thread":0,"seq":9}"#
            )
        );
    }

    #[test]
    fn mem_field_order_is_stable() {
        let ev = TraceEvent::Span {
            name: "a".into(),
            id: 4,
            parent_id: Some(3),
            start_nanos: 1,
            dur_nanos: 2,
            thread: 0,
            mem: Some(MemDelta { self_bytes: 1, self_allocs: 2, total_bytes: 3, total_allocs: 4 }),
            seq: 9,
        };
        assert_eq!(
            ev.to_jsonl(),
            concat!(
                r#"{"type":"span","name":"a","id":4,"parent_id":3,"start_nanos":1,"#,
                r#""dur_nanos":2,"thread":0,"#,
                r#""self_bytes":1,"self_allocs":2,"total_bytes":3,"total_allocs":4,"seq":9}"#
            )
        );
    }

    #[test]
    fn diag_field_order_is_stable() {
        let ev = TraceEvent::Diag {
            session: "s".into(),
            iter: 3,
            outcome: "ok".into(),
            score_bits: 10,
            best_bits: 11,
            regret_bits: Some(12),
            cum_regret_bits: None,
            novelty_bits: Some(13),
            pred_mean_bits: None,
            pred_var_bits: None,
            seq: 9,
        };
        assert_eq!(
            ev.to_jsonl(),
            concat!(
                r#"{"type":"diag","session":"s","iter":3,"outcome":"ok","#,
                r#""score_bits":10,"best_bits":11,"regret_bits":12,"cum_regret_bits":null,"#,
                r#""novelty_bits":13,"pred_mean_bits":null,"pred_var_bits":null,"seq":9}"#
            )
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(TraceEvent::parse_line("not json").is_err());
        assert!(TraceEvent::parse_line(r#"{"type":"span"}"#).is_err(), "missing fields");
        assert!(
            TraceEvent::parse_line(concat!(
                r#"{"type":"span","name":"a","id":1,"parent_id":null,"start_nanos":0,"#,
                r#""dur_nanos":2,"thread":0,"total_bytes":3,"seq":9}"#
            ))
            .is_err(),
            "allocation fields travel together"
        );
        assert!(TraceEvent::parse_line(r#"{"type":"wat","x":1}"#).is_err(), "unknown type");
        assert!(
            TraceEvent::parse_line(r#"{"type":"counter","name":"n","value":-1,"seq":0}"#).is_err(),
            "counters are unsigned"
        );
    }

    #[test]
    fn parse_journal_yields_line_numbers_and_keeps_going_past_errors() {
        let text = format!(
            "{}\nnot json\n{{\"type\":\"counter\",\"name\":\"c\",\"value\":3,\"seq\":1}}",
            TraceEvent::Meta { version: SCHEMA_VERSION, source: "t".into() }.to_jsonl()
        );
        let lines: Vec<(usize, Result<TraceEvent, String>)> = parse_journal(&text).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].0, 1);
        assert!(matches!(lines[0].1, Ok(TraceEvent::Meta { .. })));
        assert!(lines[1].1.is_err(), "bad line is yielded, not fatal");
        match &lines[2].1 {
            Ok(ev @ TraceEvent::Counter { .. }) => assert_eq!(ev.seq(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disabled_journal_drops_events_and_enable_writes_meta_first() {
        let dir = std::env::temp_dir().join("dbtune_obs_journal_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("j.jsonl");
        let j = Journal::new();
        j.emit(TraceEvent::Counter { name: "dropped".into(), value: 1, seq: 0 });
        assert!(!j.is_enabled());
        j.enable(&path, "test").expect("enable");
        j.emit(TraceEvent::Counter { name: "kept".into(), value: 1, seq: 0 });
        j.emit(TraceEvent::Gauge { name: "g".into(), value: 2, seq: 0 });
        j.disable();
        let text = std::fs::read_to_string(&path).expect("read journal");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "meta + two events: {text}");
        match TraceEvent::parse_line(lines[0]).expect("meta parses") {
            TraceEvent::Meta { version, source } => {
                assert_eq!(version, SCHEMA_VERSION);
                assert_eq!(source, "test");
            }
            other => panic!("first line must be meta, got {other:?}"),
        }
        // Sequence numbers are assigned in write order, starting at 1.
        match TraceEvent::parse_line(lines[1]).expect("counter parses") {
            TraceEvent::Counter { name, seq, .. } => {
                assert_eq!(name, "kept");
                assert_eq!(seq, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match TraceEvent::parse_line(lines[2]).expect("gauge parses") {
            TraceEvent::Gauge { seq, .. } => assert_eq!(seq, 2),
            other => panic!("unexpected {other:?}"),
        }
    }
}
