//! Core database-configuration-tuning library.
//!
//! Implements the three modules of the paper's unified tuning pipeline:
//!
//! * **Knob selection** ([`importance`]): Lasso (OtterTune), Gini score
//!   (Tuneful), fANOVA, ablation analysis, and SHAP — five importance
//!   measurements ranking the 197 knobs, from which top-k tuning spaces
//!   are derived (§5).
//! * **Configuration optimization** ([`optimizer`]): vanilla BO,
//!   mixed-kernel BO, SMAC, TPE, TuRBO, DDPG, GA, and random search — the
//!   seven optimizers of Table 3 plus a control (§6).
//! * **Knowledge transfer** ([`transfer`]): workload mapping (OtterTune),
//!   RGPE ensembles (ResTune), and DDPG fine-tuning (CDBTune) (§7).
//!
//! The [`tuner`] module drives full tuning sessions against a
//! `dbtune-dbsim` instance (or any [`tuner::SimObjective`] implementor, e.g.
//! the surrogate benchmark): LHS initialization, failure handling by
//! worst-seen substitution, improvement accounting, and per-iteration
//! algorithm-overhead measurement.
//!
//! The [`exec`] module parallelizes grids of such sessions over a worker
//! pool with a shared, deterministic evaluation cache — results are
//! bit-identical for any worker count (see `docs/execution.md`).
//!
//! The [`telemetry`] module (re-exporting the `dbtune-obs` crate)
//! instruments all of the above: hierarchical spans decompose algorithm
//! overhead into surrogate-fit / acquisition / bookkeeping phases
//! (Figure 9), a metrics registry carries executor and cache counters,
//! and an optional JSONL trace journal records every span close — with
//! results guaranteed byte-identical whether tracing is on or off (see
//! `docs/observability.md`).

pub mod acquisition;
pub mod exec;
pub mod gp;
pub mod importance;
pub mod incremental;
pub mod optimizer;
pub mod repository;
pub mod sampling;
pub mod service;
pub mod space;
pub mod telemetry;
pub mod transfer;
pub mod tuner;

pub use exec::{
    cell_seed, resolve_workers, run_grid, run_grid_contained, CacheKey, CacheStats,
    CachedObjective, CellOutcome, DeterministicObjective, EvalCache, RetryPolicy,
};
// The F1 lint's total-order float comparisons live in the workspace's
// lowest layer; re-exported here so downstream code can say
// `dbtune_core::ord::cmp_score` without depending on dbtune-linalg.
pub use dbtune_linalg::ord;
pub use space::{ConfigSpace, TuningSpace};
pub use tuner::{
    lhs_pool, run_session, run_session_resumable, CrashRegionMemory, FailurePolicy, Observation,
    PhaseTrace, PoolScorer, RecordedEval, SessionCheckpoint, SessionConfig, SessionResult,
    SimObjective,
};
