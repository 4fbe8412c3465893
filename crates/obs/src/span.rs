//! Hierarchical spans with thread-safe, per-name aggregation.
//!
//! A span is opened by [`crate::Telemetry::span`] (usually through the
//! [`crate::span`] convenience on the global instance) and closed when its
//! RAII guard drops. Closing a span:
//!
//! 1. folds the monotonic duration into the per-name [`SpanStats`]
//!    aggregate (count / total / min / max + log-scale histogram);
//! 2. appends a `(name, nanos)` record to the thread-local *phase
//!    collector* when one is installed (see [`collect_phases`] — this is
//!    how the session driver attributes `suggest()` time to
//!    `surrogate_fit` vs `acquisition` without the optimizers knowing
//!    about sessions);
//! 3. emits a journal event when tracing is enabled (one atomic load
//!    otherwise).
//!
//! Nesting is tracked per thread: each guard records its parent span's
//! name and depth, which the journal preserves so traces can be
//! reassembled into a tree.

use crate::hist::LogHistogram;
use crate::journal::{Journal, TraceEvent};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Thread-safe aggregate for one span name.
#[derive(Debug, Default)]
pub struct SpanStats {
    count: AtomicU64,
    total_nanos: AtomicU64,
    min_nanos: AtomicU64, // u64::MAX sentinel while empty (0 count)
    max_nanos: AtomicU64,
    hist: LogHistogram,
}

impl SpanStats {
    fn new() -> Self {
        Self { min_nanos: AtomicU64::new(u64::MAX), ..Default::default() }
    }

    /// Folds one duration into the aggregate.
    pub fn record(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.min_nanos.fetch_min(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        self.hist.record(nanos);
    }

    /// Point-in-time summary.
    pub fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min_nanos.load(Ordering::Relaxed);
        SpanSnapshot {
            count,
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            min_nanos: if count == 0 { 0 } else { min },
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
            p50_nanos: self.hist.quantile(0.50),
            p99_nanos: self.hist.quantile(0.99),
        }
    }
}

/// Summary of one span name at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Closed spans under this name.
    pub count: u64,
    /// Summed duration.
    pub total_nanos: u64,
    /// Fastest close (0 while empty).
    pub min_nanos: u64,
    /// Slowest close.
    pub max_nanos: u64,
    /// Approximate median duration.
    pub p50_nanos: u64,
    /// Approximate 99th-percentile duration.
    pub p99_nanos: u64,
}

/// Name → aggregate table. Span names are `&'static str` by design: the
/// taxonomy is fixed and documented (docs/observability.md), and static
/// names keep the hot path free of allocation.
#[derive(Debug, Default)]
pub struct SpanTable {
    inner: RwLock<HashMap<&'static str, Arc<SpanStats>>>,
}

impl SpanTable {
    /// The aggregate for `name`, created on first use.
    pub fn stats(&self, name: &'static str) -> Arc<SpanStats> {
        if let Some(s) = self.inner.read().expect("span table lock").get(name) {
            return s.clone();
        }
        let mut w = self.inner.write().expect("span table lock");
        w.entry(name).or_insert_with(|| Arc::new(SpanStats::new())).clone()
    }

    /// All aggregates, sorted by name (the stable order every report and
    /// journal flush uses).
    pub fn snapshot(&self) -> Vec<(&'static str, SpanSnapshot)> {
        let mut out: Vec<(&'static str, SpanSnapshot)> = self
            .inner
            .read()
            .expect("span table lock")
            .iter()
            .map(|(&name, stats)| (name, stats.snapshot()))
            .collect();
        out.sort_by_key(|(name, _)| *name);
        out
    }
}

thread_local! {
    /// Stack of open span names on this thread (for parent/depth).
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Optional per-scope sink for closed-span records (phase attribution).
    static COLLECTOR: RefCell<Option<Vec<PhaseRecord>>> = const { RefCell::new(None) };
}

/// One closed span observed by a phase collector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Span name.
    pub name: &'static str,
    /// Duration.
    pub nanos: u64,
}

/// Runs `f` with a fresh thread-local phase collector installed and
/// returns its result plus every span closed on this thread during the
/// call. Nested calls stack: the inner collector temporarily replaces the
/// outer one, so an outer scope never sees an inner scope's records.
pub fn collect_phases<R>(f: impl FnOnce() -> R) -> (R, Vec<PhaseRecord>) {
    let previous = COLLECTOR.with(|c| c.borrow_mut().replace(Vec::new()));
    let result = f();
    let records = COLLECTOR.with(|c| {
        let mut slot = c.borrow_mut();
        let records = slot.take().unwrap_or_default();
        *slot = previous;
        records
    });
    (result, records)
}

/// Sum of the collected durations for one span name, in seconds.
pub fn phase_secs(records: &[PhaseRecord], name: &str) -> f64 {
    records.iter().filter(|r| r.name == name).map(|r| r.nanos).sum::<u64>() as f64 * 1e-9
}

/// The span context a new span (or an externally timed
/// [`crate::Telemetry::span_record`]) would be attributed to on this
/// thread right now: the innermost open span's name and the nesting
/// depth. `(None, 0)` outside any span.
pub fn current_context() -> (Option<&'static str>, u32) {
    STACK.with(|s| {
        let s = s.borrow();
        (s.last().copied(), s.len() as u32)
    })
}

/// RAII timer for one span; see the module docs for close semantics.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard<'a> {
    name: &'static str,
    parent: Option<&'static str>,
    depth: u32,
    start: Instant,
    stats: Arc<SpanStats>,
    journal: &'a Journal,
    /// Whether a memprof attribution frame was opened for this span
    /// (only when the latch was already on at open — keeps the frame
    /// stack aligned with the span stack across a mid-span latch flip).
    mem_frame: bool,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span (called by [`crate::Telemetry::span`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "span timing is the telemetry layer's job; durations never reach a results payload"
    )]
    pub(crate) fn open(name: &'static str, stats: Arc<SpanStats>, journal: &'a Journal) -> Self {
        let (parent, depth) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            let depth = s.len() as u32;
            s.push(name);
            (parent, depth)
        });
        let mem_frame = crate::memprof::frame_open();
        Self { name, parent, depth, start: Instant::now(), stats, journal, mem_frame }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        // Close the attribution frame before anything below allocates,
        // so journal-emission overhead lands on the parent span.
        let mem = if self.mem_frame { Some(crate::memprof::frame_close(self.name)) } else { None };
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.name), "span guards must close LIFO");
        });
        self.stats.record(nanos);
        COLLECTOR.with(|c| {
            if let Some(records) = c.borrow_mut().as_mut() {
                records.push(PhaseRecord { name: self.name, nanos });
            }
        });
        // The whole cost of a disabled journal: one relaxed atomic load.
        if self.journal.is_enabled() {
            self.journal.emit(TraceEvent::Span {
                name: self.name.to_string(),
                parent: self.parent.map(str::to_string),
                depth: self.depth,
                dur_nanos: nanos,
                thread: crate::journal::thread_ordinal(),
                seq: 0, // assigned by the journal
            });
            if let Some(d) = mem {
                self.journal.emit(TraceEvent::Mem {
                    name: self.name.to_string(),
                    parent: self.parent.map(str::to_string),
                    depth: self.depth,
                    self_bytes: d.self_bytes,
                    self_allocs: d.self_allocs,
                    total_bytes: d.total_bytes,
                    total_allocs: d.total_allocs,
                    thread: crate::journal::thread_ordinal(),
                    seq: 0, // assigned by the journal
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_count_total_min_max() {
        let s = SpanStats::new();
        for v in [100u64, 300, 200] {
            s.record(v);
        }
        let snap = s.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.total_nanos, 600);
        assert_eq!(snap.min_nanos, 100);
        assert_eq!(snap.max_nanos, 300);
        assert!(snap.p50_nanos > 0 && snap.p99_nanos >= snap.p50_nanos);
    }

    #[test]
    fn empty_stats_snapshot_is_all_zero() {
        let snap = SpanStats::new().snapshot();
        assert_eq!(
            snap,
            SpanSnapshot {
                count: 0,
                total_nanos: 0,
                min_nanos: 0,
                max_nanos: 0,
                p50_nanos: 0,
                p99_nanos: 0
            }
        );
    }

    #[test]
    fn table_returns_one_aggregate_per_name_sorted() {
        let t = SpanTable::default();
        t.stats("b").record(5);
        t.stats("a").record(7);
        t.stats("b").record(9);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "b");
        assert_eq!(snap[1].1.count, 2);
        assert_eq!(snap[1].1.total_nanos, 14);
    }

    #[test]
    fn table_aggregation_is_thread_safe() {
        let t = Arc::new(SpanTable::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.stats("hot").record(3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let snap = t.snapshot();
        assert_eq!(snap[0].1.count, 4000);
        assert_eq!(snap[0].1.total_nanos, 12000);
    }

    #[test]
    fn collector_scopes_nest_and_isolate() {
        let tele = crate::Telemetry::new();
        let (_, outer) = collect_phases(|| {
            let _a = tele.span("outer_phase");
            let ((), inner) = collect_phases(|| {
                let _b = tele.span("inner_phase");
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "inner_phase");
        });
        // The inner scope's records never leak out; the outer span closed
        // inside the outer scope is recorded there.
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].name, "outer_phase");
        assert!(phase_secs(&outer, "outer_phase") >= 0.0);
        assert_eq!(phase_secs(&outer, "inner_phase"), 0.0);
    }

    #[test]
    fn guards_track_parent_and_depth() {
        let tele = crate::Telemetry::new();
        let a = tele.span("parent_span");
        let b = tele.span("child_span");
        assert_eq!(a.depth, 0);
        assert_eq!(a.parent, None);
        assert_eq!(b.depth, 1);
        assert_eq!(b.parent, Some("parent_span"));
        drop(b);
        drop(a);
        let names: Vec<&str> = tele.spans.snapshot().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"parent_span") && names.contains(&"child_span"));
    }
}
