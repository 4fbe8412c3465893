//! Span-attributed memory profiling: a counting [`GlobalAlloc`] wrapper
//! around the system allocator, gated by a one-way process latch.
//!
//! The allocator is installed unconditionally (`#[global_allocator]`
//! lives in this module, so every binary linking `dbtune-obs` gets it),
//! but accounting is off until [`enable`] latches it on — the cost of an
//! unlatched allocation is one relaxed atomic load, mirroring the
//! disabled-journal contract. The latch is one-way for the process, like
//! `Telemetry::enable_diag`: profiling data accumulated under a latch
//! that could flip off would be uninterpretable.
//!
//! Three layers of accounting, cheapest first:
//!
//! 1. **Per-thread cumulative counters** (const-initialized
//!    `thread_local!` [`Cell`]s): alloc/dealloc counts and bytes. These
//!    are what span attribution samples — deltas between two points on
//!    the same thread are exact and race-free.
//! 2. **Global totals** ([`AtomicU64`]/[`AtomicI64`] statics):
//!    process-wide counts, bytes, live bytes, and peak bytes
//!    (`fetch_max` over live). [`global_stats`] snapshots them.
//! 3. **Span attribution**: a span that opens while latched keeps an
//!    allocation baseline of the thread's counters in its frame on the
//!    span stack ([`mod@crate::span`]). Closing it computes the span's
//!    *total* allocation delta (everything allocated on the thread while
//!    it was open) and its *self* delta (total minus what its children
//!    claimed), folds the total into the parent's baseline, and hands the
//!    [`MemDelta`] to the span's journal event. Per-name sums are read
//!    from the journal (`dbtune_trace::summarize`, `trace_report`).
//!
//! **Re-entrancy rule**: the allocator hooks touch *only* the latch,
//! the `Cell` counters, and the global atomics — never a `RefCell`, a
//! `Vec`, or anything lazily initialized. Allocating inside the
//! allocator would recurse; the span stack (which does allocate) is
//! touched only from span open/close, which run outside the allocator.
//!
//! **Determinism contract**: accounting is read-only with respect to
//! tuning. Nothing in the tuning stack reads these counters, so results
//! are byte-identical with the latch on or off at every worker count —
//! enforced end to end by `crates/bench/tests/observer_inertness.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// One-way process latch; off at startup.
static LATCHED: AtomicBool = AtomicBool::new(false);

// Process-wide totals, updated only while latched.
static G_ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static G_ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static G_DEALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
// Live/peak are signed: a dealloc of memory allocated *before* the latch
// flipped on has no matching credit, so live can dip below zero; reports
// clamp at zero and peak is `fetch_max` over live, so the reported
// invariant `peak >= live` always holds.
static G_LIVE: AtomicI64 = AtomicI64::new(0);
static G_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialized Cells: accessing them never allocates, which is
    // what makes them safe to touch from inside the allocator.
    static T_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static T_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static T_DEALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static T_DEALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Latches memory accounting on for the rest of the process. Idempotent.
pub fn enable() {
    LATCHED.store(true, Ordering::Relaxed);
}

/// Whether the accounting latch has been flipped.
#[inline]
pub fn enabled() -> bool {
    LATCHED.load(Ordering::Relaxed)
}

/// Applies one allocation of `size` bytes to a live/peak atomic pair.
/// Factored out so the arithmetic is unit-testable against closed forms
/// on local atomics (the process-wide statics can never be reset).
#[inline]
fn account_alloc_into(live: &AtomicI64, peak: &AtomicI64, size: u64) {
    let now = live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    peak.fetch_max(now, Ordering::Relaxed);
}

/// Applies one deallocation of `size` bytes to a live atomic.
#[inline]
fn account_dealloc_into(live: &AtomicI64, size: u64) {
    live.fetch_sub(size as i64, Ordering::Relaxed);
}

/// Records one successful allocation. Called from inside the allocator:
/// touches only Cells and atomics (see the module's re-entrancy rule).
#[inline]
fn record_alloc(size: u64) {
    // `try_with` instead of `with`: a dealloc can run during TLS
    // teardown, where the Cells are gone. Global totals still count.
    let _ = T_ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = T_ALLOC_BYTES.try_with(|c| c.set(c.get() + size));
    G_ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    G_ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    account_alloc_into(&G_LIVE, &G_PEAK, size);
}

/// Records one deallocation.
#[inline]
fn record_dealloc(size: u64) {
    let _ = T_DEALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = T_DEALLOC_BYTES.try_with(|c| c.set(c.get() + size));
    G_DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    G_DEALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    account_dealloc_into(&G_LIVE, size);
}

/// The counting allocator. Delegates every operation to [`System`];
/// when the latch is on, each successful call additionally bumps the
/// thread-local and global counters.
pub struct CountingAlloc;

// SAFETY: every path delegates verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the accounting side effects touch only
// atomics and const-initialized thread-local Cells, so they can never
// allocate (no recursion) and never unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        // lint: allow(C1) monotonic one-way latch guarding telemetry accounting only; a stale read merely skips counting an early allocation, never publication
        if !ptr.is_null() && LATCHED.load(Ordering::Relaxed) {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        // lint: allow(C1) monotonic one-way latch; see alloc()
        if !ptr.is_null() && LATCHED.load(Ordering::Relaxed) {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        // lint: allow(C1) monotonic one-way latch; see alloc()
        if LATCHED.load(Ordering::Relaxed) {
            record_dealloc(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        // lint: allow(C1) monotonic one-way latch; see alloc()
        if !new_ptr.is_null() && LATCHED.load(Ordering::Relaxed) {
            // One grow/shrink = one alloc of the new size plus one
            // dealloc of the old, so counts stay in closed form
            // (`Vec` growth via realloc matches alloc+copy+free).
            record_alloc(new_size as u64);
            record_dealloc(layout.size() as u64);
        }
        new_ptr
    }
}

/// The process allocator for every binary linking `dbtune-obs`.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Process-wide accounting totals at one instant. All zero until the
/// latch flips.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Successful allocations (allocs + reallocs).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Deallocations (frees + realloc releases).
    pub dealloc_count: u64,
    /// Bytes released by those deallocations.
    pub dealloc_bytes: u64,
    /// Bytes currently live (clamped at zero — see [`enable`]).
    pub live_bytes: u64,
    /// High-water mark of live bytes since the latch flipped.
    pub peak_bytes: u64,
}

/// Snapshot of the process-wide totals. `peak_bytes` is re-clamped to
/// `live_bytes` at read time, so `peak >= live` holds for every
/// snapshot even when the two atomics are read mid-update.
pub fn global_stats() -> MemStats {
    let live = G_LIVE.load(Ordering::Relaxed).max(0) as u64;
    let peak = (G_PEAK.load(Ordering::Relaxed).max(0) as u64).max(live);
    MemStats {
        alloc_count: G_ALLOC_COUNT.load(Ordering::Relaxed),
        alloc_bytes: G_ALLOC_BYTES.load(Ordering::Relaxed),
        dealloc_count: G_DEALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_bytes: G_DEALLOC_BYTES.load(Ordering::Relaxed),
        live_bytes: live,
        peak_bytes: peak,
    }
}

/// This thread's cumulative alloc/dealloc counters. Deltas between two
/// calls on the same thread are exact (no cross-thread noise) — the
/// primitive span attribution is built on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadMemStats {
    /// Allocations on this thread since the latch flipped.
    pub alloc_count: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Deallocations on this thread.
    pub dealloc_count: u64,
    /// Bytes those deallocations released.
    pub dealloc_bytes: u64,
}

/// Snapshot of the calling thread's cumulative counters.
pub fn thread_stats() -> ThreadMemStats {
    ThreadMemStats {
        alloc_count: T_ALLOC_COUNT.with(Cell::get),
        alloc_bytes: T_ALLOC_BYTES.with(Cell::get),
        dealloc_count: T_DEALLOC_COUNT.with(Cell::get),
        dealloc_bytes: T_DEALLOC_BYTES.with(Cell::get),
    }
}

/// One closed span's allocation attribution: `total` covers everything
/// allocated on the thread while the span was open, `self` is the total
/// minus what its direct children claimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Allocations not claimed by a child span.
    pub self_allocs: u64,
    /// Bytes not claimed by a child span.
    pub self_bytes: u64,
    /// All allocations while the span was open.
    pub total_allocs: u64,
    /// All bytes requested while the span was open.
    pub total_bytes: u64,
}

/// An open span's allocation baseline, held in its frame on the span
/// stack (see [`mod@crate::span`]).
pub(crate) struct Baseline {
    /// Thread alloc count when the span opened.
    start_count: u64,
    /// Thread alloc bytes when the span opened.
    start_bytes: u64,
    /// Allocations claimed by already-closed child spans.
    child_count: u64,
    /// Bytes claimed by already-closed child spans.
    child_bytes: u64,
}

impl Baseline {
    /// The calling thread's counters now, or `None` while the latch is
    /// off: a span that opens unlatched carries no baseline for its whole
    /// life, even if the latch flips before it closes.
    pub(crate) fn take() -> Option<Self> {
        if !enabled() {
            return None;
        }
        Some(Self {
            start_count: T_ALLOC_COUNT.with(Cell::get),
            start_bytes: T_ALLOC_BYTES.with(Cell::get),
            child_count: 0,
            child_bytes: 0,
        })
    }

    /// Closes the span: computes its deltas and folds its total into the
    /// enclosing span's baseline.
    pub(crate) fn close(self, parent: Option<&mut Baseline>) -> MemDelta {
        let total_allocs = T_ALLOC_COUNT.with(Cell::get) - self.start_count;
        let total_bytes = T_ALLOC_BYTES.with(Cell::get) - self.start_bytes;
        let delta = MemDelta {
            self_allocs: total_allocs.saturating_sub(self.child_count),
            self_bytes: total_bytes.saturating_sub(self.child_bytes),
            total_allocs,
            total_bytes,
        };
        if let Some(parent) = parent {
            parent.child_count += total_allocs;
            parent.child_bytes += total_bytes;
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process latch is one-way and the test binary shares one
    // process across tests, so every test here latches on and asserts
    // on *deltas* of the calling thread's counters (exact: nothing else
    // allocates on this thread) or on local atomics (exact closed
    // forms); global totals are only checked for monotonicity.

    #[test]
    fn enable_is_idempotent_and_counters_are_monotone() {
        let before = thread_stats();
        enable();
        assert!(enabled());
        enable();
        assert!(enabled());
        let after = thread_stats();
        assert!(after.alloc_count >= before.alloc_count);
        assert!(after.alloc_bytes >= before.alloc_bytes);
    }

    #[test]
    fn scripted_sequence_has_exact_thread_counts_and_bytes() {
        enable();
        let t0 = thread_stats();
        let a: Vec<u8> = Vec::with_capacity(1000); // 1 alloc, 1000 bytes
        let b: Vec<u8> = Vec::with_capacity(24); // 1 alloc, 24 bytes
        drop(a); // 1 dealloc, 1000 bytes
        let t1 = thread_stats();
        assert_eq!(t1.alloc_count - t0.alloc_count, 2);
        assert_eq!(t1.alloc_bytes - t0.alloc_bytes, 1024);
        assert_eq!(t1.dealloc_count - t0.dealloc_count, 1);
        assert_eq!(t1.dealloc_bytes - t0.dealloc_bytes, 1000);
        drop(b);
        let t2 = thread_stats();
        assert_eq!(t2.dealloc_count - t1.dealloc_count, 1);
        assert_eq!(t2.dealloc_bytes - t1.dealloc_bytes, 24);
    }

    #[test]
    fn boxed_allocations_count_exactly() {
        enable();
        let t0 = thread_stats();
        // black_box keeps the optimizer from deleting the allocation.
        let b = std::hint::black_box(Box::new([0u8; 4096])); // 1 alloc, 4096 bytes
        drop(b);
        let t1 = thread_stats();
        assert_eq!(t1.alloc_count - t0.alloc_count, 1);
        assert_eq!(t1.alloc_bytes - t0.alloc_bytes, 4096);
        assert_eq!(t1.dealloc_count - t0.dealloc_count, 1);
        assert_eq!(t1.dealloc_bytes - t0.dealloc_bytes, 4096);
    }

    #[test]
    fn realloc_growth_counts_alloc_plus_dealloc() {
        enable();
        let mut v: Vec<u8> = vec![0; 64]; // exact capacity 64
        let t0 = thread_stats();
        v.reserve_exact(128); // realloc 64 -> 192: +1 alloc(192), +1 dealloc(64)
        let t1 = thread_stats();
        assert_eq!(t1.alloc_count - t0.alloc_count, 1);
        assert_eq!(t1.alloc_bytes - t0.alloc_bytes, 192);
        assert_eq!(t1.dealloc_count - t0.dealloc_count, 1);
        assert_eq!(t1.dealloc_bytes - t0.dealloc_bytes, 64);
    }

    #[test]
    fn live_peak_arithmetic_matches_closed_form() {
        // Local atomics, so the peak is exact: a scripted
        // alloc/dealloc sequence and its high-water mark.
        let live = AtomicI64::new(0);
        let peak = AtomicI64::new(0);
        account_alloc_into(&live, &peak, 1000);
        account_alloc_into(&live, &peak, 500);
        account_dealloc_into(&live, 1000);
        account_alloc_into(&live, &peak, 200);
        assert_eq!(live.load(Ordering::Relaxed), 700);
        assert_eq!(peak.load(Ordering::Relaxed), 1500);
        account_dealloc_into(&live, 500);
        account_dealloc_into(&live, 200);
        assert_eq!(live.load(Ordering::Relaxed), 0);
        assert_eq!(peak.load(Ordering::Relaxed), 1500, "peak never decays");
    }

    #[test]
    fn pre_latch_dealloc_clamps_at_zero_and_keeps_peak_ge_live() {
        // A dealloc with no matching credit drives live negative; the
        // reported form clamps and preserves peak >= live.
        let live = AtomicI64::new(0);
        let peak = AtomicI64::new(0);
        account_dealloc_into(&live, 4096);
        assert_eq!(live.load(Ordering::Relaxed), -4096);
        account_alloc_into(&live, &peak, 100);
        let reported_live = live.load(Ordering::Relaxed).max(0) as u64;
        let reported_peak = (peak.load(Ordering::Relaxed).max(0) as u64).max(reported_live);
        assert_eq!(reported_live, 0);
        assert!(reported_peak >= reported_live);
    }

    #[test]
    fn global_stats_are_monotone_and_peak_ge_live() {
        enable();
        let s0 = global_stats();
        let v: Vec<u8> = vec![0; 1 << 16];
        let s1 = global_stats();
        drop(v);
        assert!(s1.alloc_count > s0.alloc_count);
        assert!(s1.alloc_bytes >= s0.alloc_bytes + (1 << 16));
        assert!(s1.peak_bytes >= s1.live_bytes, "snapshot invariant");
        assert!(s1.peak_bytes >= s0.peak_bytes, "peak is monotone");
    }

    #[test]
    fn frames_attribute_self_and_total_with_child_folding() {
        enable();
        // Baselines live on the caller's stack and closing one touches
        // only the thread's counters, so nothing below allocates behind
        // the measured sequence's back.
        let mut outer = Baseline::take().expect("latched");
        let _outer_buf: Vec<u8> = Vec::with_capacity(300);
        let inner = Baseline::take().expect("latched");
        let inner_buf: Vec<u8> = Vec::with_capacity(1000);
        drop(inner_buf); // deallocs do not reduce alloc attribution
        let inner = inner.close(Some(&mut outer));
        assert_eq!(inner.total_allocs, 1);
        assert_eq!(inner.total_bytes, 1000);
        assert_eq!(inner.self_allocs, 1);
        assert_eq!(inner.self_bytes, 1000);
        let _outer_buf2: Vec<u8> = Vec::with_capacity(50);
        let outer = outer.close(None);
        assert_eq!(outer.total_allocs, 3);
        assert_eq!(outer.total_bytes, 1350);
        assert_eq!(outer.self_allocs, 2, "inner span's alloc is claimed by the child");
        assert_eq!(outer.self_bytes, 350);
    }

    /// Allocates `bytes` once, where the optimizer cannot elide it.
    fn allocate(bytes: usize) {
        drop(std::hint::black_box(Vec::<u8>::with_capacity(bytes)));
    }

    /// A delta as (self bytes, self allocs, total bytes, total allocs).
    fn fields(d: MemDelta) -> (u64, u64, u64, u64) {
        (d.self_bytes, d.self_allocs, d.total_bytes, d.total_allocs)
    }

    #[test]
    fn sibling_children_both_fold_into_the_parent() {
        enable();
        let mut parent = Baseline::take().expect("latched");
        let a = Baseline::take().expect("latched");
        allocate(100);
        let a = a.close(Some(&mut parent));
        let b = Baseline::take().expect("latched");
        allocate(40);
        let b = b.close(Some(&mut parent));
        allocate(7);
        let parent = parent.close(None);
        assert_eq!(fields(a), (100, 1, 100, 1));
        assert_eq!(fields(b), (40, 1, 40, 1));
        assert_eq!(fields(parent), (7, 1, 147, 3), "both children's bytes are claimed");
    }

    #[test]
    fn grandchild_bytes_are_claimed_once_by_the_direct_parent() {
        enable();
        let mut top = Baseline::take().expect("latched");
        let mut mid = Baseline::take().expect("latched");
        let leaf = Baseline::take().expect("latched");
        allocate(500);
        let leaf = leaf.close(Some(&mut mid));
        allocate(30);
        let mid = mid.close(Some(&mut top));
        let top = top.close(None);
        assert_eq!(fields(leaf), (500, 1, 500, 1));
        assert_eq!(fields(mid), (30, 1, 530, 2));
        // The leaf's bytes reach the top through the middle span's total,
        // and are subtracted there once.
        assert_eq!(fields(top), (0, 0, 530, 2));
    }

    #[test]
    fn thread_counters_are_isolated_per_thread() {
        enable();
        let t0 = thread_stats();
        std::thread::spawn(|| {
            enable();
            let _big: Vec<u8> = vec![0; 1 << 20];
            let mine = thread_stats();
            assert!(mine.alloc_count >= 1);
        })
        .join()
        .expect("worker");
        let t1 = thread_stats();
        // The worker's 1 MiB allocation never lands on this thread's
        // counters (joining allocates a little on our side, so compare
        // bytes, which would jump by >= 1 MiB if isolation broke).
        assert!(t1.alloc_bytes - t0.alloc_bytes < (1 << 20));
    }
}
