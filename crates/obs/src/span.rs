//! Hierarchical spans.
//!
//! A span is opened by [`crate::Telemetry::span`] (usually through the
//! [`crate::span()`] convenience on the global instance) and closed when its
//! RAII guard drops. Closing a span:
//!
//! 1. appends a `(name, nanos)` record to the thread-local *phase
//!    collector* when one is installed (see [`collect_phases`] — this is
//!    how the session driver attributes `suggest()` time to
//!    `surrogate_fit` vs `acquisition` without the optimizers knowing
//!    about sessions);
//! 2. emits the span's one journal event when tracing is enabled (one
//!    atomic load otherwise).
//!
//! Nothing else is kept: per-name counts, totals and quantiles are read
//! from the journal (`dbtune_trace::summarize`), so an open and close is
//! a frame push and pop, two clock reads, the collector check and the
//! journal's atomic load.
//!
//! Nesting is tracked per thread on one stack of open-span frames. Each
//! frame gets a per-thread id at open and, when the memprof latch is on
//! at that moment, the span's allocation baseline. The journal event
//! carries the id, the enclosing span's id and the open time, so traces
//! reassemble into trees by id and lay out on a real timeline.

use crate::journal::{Journal, TraceEvent};
use crate::memprof::Baseline;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::time::Instant;

/// One open span on this thread's stack.
struct Frame {
    /// Per-thread id, assigned at open.
    id: u64,
    /// Allocation baseline, when memprof was latched at open.
    mem: Option<Baseline>,
}

/// This thread's open spans, innermost last, and the last id handed out.
struct Stack {
    open: Vec<Frame>,
    last_id: u64,
}

thread_local! {
    /// The open spans on this thread.
    static STACK: RefCell<Stack> = const { RefCell::new(Stack { open: Vec::new(), last_id: 0 }) };
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

/// The monotonic clock every span duration and start offset is read from.
#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "span timing is the telemetry layer's job; durations and offsets never reach a results payload"
)]
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// RAII timer for one span; see the module docs for close semantics.
/// A guard closes on the thread that opened it (it is not `Send`), so
/// its frame is on that thread's stack.
#[must_use = "a span measures the scope of its guard"]
pub struct SpanGuard<'a> {
    name: &'static str,
    id: u64,
    start: Instant,
    journal: &'a Journal,
    _not_send: PhantomData<*const ()>,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span (called by [`crate::Telemetry::span`]).
    pub(crate) fn open(name: &'static str, journal: &'a Journal) -> Self {
        let mem = Baseline::take();
        let id = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.last_id += 1;
            let id = s.last_id;
            s.open.push(Frame { id, mem });
            id
        });
        Self { name, id, start: now(), journal, _not_send: PhantomData }
    }

    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos() as u64;
        // Pop the frame and close its allocation baseline before anything
        // below allocates, so journal-emission overhead lands on the
        // parent span. The pop stays a closure of its own, small enough to
        // inline; a profiled span then folds its total into the parent's
        // baseline.
        let (frame, parent_id) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            (s.open.pop(), s.open.last().map(|p| p.id))
        });
        debug_assert_eq!(frame.as_ref().map(|f| f.id), Some(self.id), "span guards close LIFO");
        let mem = frame.and_then(|f| f.mem).map(|b| {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                b.close(s.open.last_mut().and_then(|p| p.mem.as_mut()))
            })
        });
        COLLECTOR.with(|c| {
            if let Some(records) = c.borrow_mut().as_mut() {
                records.push(PhaseRecord { name: self.name, nanos });
            }
        });
        // The whole cost of a disabled journal: one relaxed atomic load.
        if self.journal.is_enabled() {
            self.journal.emit(TraceEvent::Span {
                name: self.name.to_string(),
                id: self.id,
                parent_id,
                start_nanos: self.journal.offset_nanos(self.start),
                dur_nanos: nanos,
                thread: crate::journal::thread_ordinal(),
                mem,
                seq: 0, // assigned by the journal
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn guards_take_increasing_ids_on_one_stack() {
        let tele = crate::Telemetry::new();
        let depth = || STACK.with(|s| s.borrow().open.len());
        let before = depth();
        let a = tele.span("parent_span");
        let b = tele.span("child_span");
        assert_eq!(b.id, a.id + 1);
        assert_eq!(depth(), before + 2);
        drop(b);
        drop(a);
        assert_eq!(depth(), before);
    }
}
