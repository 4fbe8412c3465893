//! Structured telemetry for the tuning stack: spans, metrics, and an
//! optional JSONL trace journal (see `docs/observability.md`).
//!
//! Three parts:
//!
//! * **Spans** ([`mod@span`]): named, hierarchically nested timers. Closing
//!   a span hands its duration to the thread's phase collector, when one
//!   is installed ([`collect_phases`]); this is how the paper's
//!   "algorithm overhead" (§7.4, Figure 9) is decomposed into
//!   `surrogate_fit` vs `acquisition` vs `bookkeeping` time. With the
//!   journal on, the close also writes the span's one record there, and
//!   per-name counts, totals and quantiles are read from the journal
//!   (`dbtune_trace::summarize`), not kept in process.
//! * **Metrics** ([`metrics`]): a registry of named counters and gauges
//!   for things that are counts rather than durations — evaluation-cache
//!   hits, simulator crash-region hits, executor queue depth.
//! * **Journal** ([`journal`]): an optional JSONL sink emitting one
//!   structured event per span close / metric flush. Enabled with the
//!   `DBTUNE_TRACE=<path>` environment variable or the drivers' `trace=`
//!   flag; when disabled it costs exactly one relaxed atomic load per
//!   span close.
//!
//! An orthogonal addition is **memory profiling** ([`memprof`]): a
//! counting `#[global_allocator]` wrapper, latched on one-way per
//! process (`mem=on` / [`Telemetry::enable_memprof`]), that attributes
//! allocation counts and bytes to the active span; the span's journal
//! event carries them.
//!
//! **Determinism contract:** telemetry only *observes*. It never draws
//! randomness, never feeds timing back into tuning decisions, and keeps
//! wall-clock numbers out of every `"results"` payload — a traced run and
//! an untraced run produce byte-identical results (enforced by
//! `crates/bench/tests/observer_inertness.rs`).
//!
//! The crate is std-only (no external dependencies, not even the
//! workspace's vendored stubs) so any crate in the stack can depend on it.

pub mod journal;
pub mod memprof;
pub mod metrics;
pub mod span;
pub mod telemetry;

pub use journal::{parse_journal, Journal, TraceEvent};
pub use memprof::{MemDelta, MemStats, ThreadMemStats};
pub use metrics::{Counter, Gauge, MetricsSnapshot, Registry};
pub use span::{collect_phases, PhaseRecord, SpanGuard};
pub use telemetry::{global, span, Telemetry};
