//! Optimizer-*quality* flight recorder (see `docs/observability.md`,
//! "Optimizer-quality diagnostics").
//!
//! The telemetry stack (`dbtune-obs` / `dbtune-trace`) answers *where
//! time goes*; this crate answers *whether the search is working*. The
//! tuner loop emits one [`record::IterationRecord`] per iteration —
//! incumbent score, simple/cumulative regret against the workload's
//! known simulated optimum, suggestion novelty, eval outcome, and (for
//! model-based optimizers) the surrogate's *pre-observation* predictive
//! mean/variance at the chosen point. Records travel through the
//! existing JSONL journal as `diag` events, gated by
//! `Telemetry::diag_enabled` exactly like tracing: off by default, and
//! results are byte-identical with the gate in either position.
//!
//! From a stream of records this crate computes:
//!
//! * **Convergence** ([`summary`]): best-so-far curves at deterministic
//!   checkpoints, final simple/cumulative regret, outcome tallies,
//!   novelty statistics — the regret-over-time view the paper's §6
//!   ranking (and PAPERS.md's DOT) argue is the metric that matters.
//! * **Calibration** ([`mod@calibration`]): standardized residuals
//!   `z = (y - mu) / sigma` of the surrogate's one-step-ahead
//!   predictions, negative log predictive density, z-score coverage of
//!   the 1-sigma/2-sigma intervals, and the exploration/exploitation
//!   share. A well-calibrated surrogate covers ~68.3% / ~95.4%;
//!   systematic deviation flags an over- or under-confident model long
//!   before it shows up as a regret regression.
//! * **Reports** ([`report`]): per-session text reports plus a
//!   cross-optimizer ranking table, rendered by the `diag_report`
//!   binary and summarized into the committed `BENCH_quality.json`
//!   baseline by `quality_baseline`.
//!
//! **Determinism contract:** everything here is a pure function of the
//! journal bytes. Scores cross the JSONL boundary as IEEE-754 bit words
//! (`*_bits` fields), so a report recomputed from a committed journal
//! reproduces the committed summaries exactly.
//!
//! The crate is std-only (its sole dependency is `dbtune-obs`) so
//! quality analysis can run anywhere a journal exists.

pub mod calibration;
pub mod record;
pub mod report;
pub mod summary;

pub use calibration::{calibration, Calibration};
pub use record::{extract_records, IterationRecord, OUTCOME_CRASH, OUTCOME_FAULT, OUTCOME_OK};
pub use report::{render_ranking, render_session_report};
pub use summary::{group_sessions, summarize_session, ConvergenceSummary};
