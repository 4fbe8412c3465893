//! Structured telemetry for the tuning stack: spans, metrics, and an
//! optional JSONL trace journal (see `docs/observability.md`).
//!
//! Three layers, from cheapest to most detailed:
//!
//! * **Spans** ([`span`]): named, hierarchically nested timers. Closing a
//!   span folds its duration into a lock-free per-name aggregate
//!   (count / total / min / max, plus p50/p99 from a fixed-bucket
//!   log-scale [`hist::LogHistogram`]). This is how the paper's
//!   "algorithm overhead" (§7.4, Figure 9) is decomposed into
//!   `surrogate_fit` vs `acquisition` vs `bookkeeping` time.
//! * **Metrics** ([`metrics`]): a registry of named counters, gauges, and
//!   histograms for things that are counts rather than durations —
//!   evaluation-cache hits, simulator crash-region hits, executor queue
//!   depth.
//! * **Journal** ([`journal`]): an optional JSONL sink emitting one
//!   structured event per span close / metric flush. Enabled with the
//!   `DBTUNE_TRACE=<path>` environment variable or the drivers' `trace=`
//!   flag; when disabled it costs exactly one relaxed atomic load per
//!   span close.
//!
//! A fourth, orthogonal layer is **memory profiling** ([`memprof`]): a
//! counting `#[global_allocator]` wrapper, latched on one-way per
//! process (`mem=on` / [`Telemetry::enable_memprof`]), that attributes
//! allocation counts and bytes to the active span and emits `mem`
//! journal events at span close.
//!
//! **Determinism contract:** telemetry only *observes*. It never draws
//! randomness, never feeds timing back into tuning decisions, and keeps
//! wall-clock numbers out of every `"results"` payload — a traced run and
//! an untraced run produce byte-identical results (enforced by
//! `crates/bench/tests/observer_inertness.rs`).
//!
//! The crate is std-only (no external dependencies, not even the
//! workspace's vendored stubs) so any crate in the stack can depend on it.

#![expect(
    clippy::disallowed_types,
    reason = "span and memory tables are hash maps keyed by name; telemetry never feeds results"
)]

pub mod hist;
pub mod journal;
pub mod memprof;
pub mod metrics;
pub mod span;
pub mod telemetry;

pub use hist::{HistSnapshot, LogHistogram};
pub use journal::{parse_journal, Journal, TraceEvent};
pub use memprof::{MemAgg, MemDelta, MemStats, ThreadMemStats};
pub use metrics::{Counter, Gauge, MetricsSnapshot, Registry};
pub use span::{
    collect_phases, current_context, PhaseRecord, SpanGuard, SpanSnapshot, SpanStats, SpanTable,
};
pub use telemetry::{global, span, span_record, Telemetry, TelemetryReport};
