//! `dbtune` — database configuration tuning with hyper-parameter
//! optimization (reproduction of Zhang et al., VLDB 2022).
//!
//! This facade crate re-exports the workspace members under stable paths
//! and offers a [`prelude`] for examples and downstream users. The heavy
//! lifting lives in:
//!
//! * [`dbsim`](dbtune_dbsim) — the deterministic MySQL-5.7-style
//!   simulator (197-knob catalog, workloads, hardware, fault injection);
//! * [`core`](dbtune_core) — knob importance, optimizers, transfer,
//!   the session driver, and the parallel grid executor with its shared
//!   evaluation cache;
//! * [`ml`](dbtune_ml) / [`linalg`](dbtune_linalg) — the model and
//!   numerics substrate;
//! * [`benchmark`](dbtune_benchmark) — the §8 surrogate tuning benchmark.

pub use dbtune_benchmark as benchmark;
pub use dbtune_core as core;
pub use dbtune_dbsim as dbsim;
pub use dbtune_linalg as linalg;
pub use dbtune_ml as ml;

/// Everything a typical tuning script needs, in one import.
pub mod prelude {
    pub use dbtune_benchmark::{collect_samples, Dataset, SpeedupReport, SurrogateBenchmark};
    pub use dbtune_core::importance::{top_k, ImportanceInput, MeasureKind};
    pub use dbtune_core::optimizer::{Optimizer, OptimizerKind};
    pub use dbtune_core::transfer::{RgpeOptimizer, SourceTask, SurrogateKind};
    pub use dbtune_core::tuner::{
        run_session, FailurePolicy, Observation, SessionConfig, SessionResult, SimObjective,
    };
    pub use dbtune_core::{ConfigSpace, TuningSpace};
    pub use dbtune_dbsim::{
        DbSimulator, EvalResult, Hardware, KnobCatalog, Objective, Workload, METRICS_DIM,
    };
}
