//! The efficient database-tuning benchmark via surrogates (§8).
//!
//! Evaluating optimizers against a live DBMS costs minutes per iteration;
//! the paper's benchmark replaces workload replay with predictions from a
//! regression surrogate trained on an expensive offline sample:
//!
//! 1. [`collect`] gathers `(configuration, performance)` pairs the way the
//!    paper does — optimizer-driven sampling to densify high-performance
//!    regions plus LHS coverage of the rest;
//! 2. [`surrogate`] trains and cross-validates the Table 9 model zoo
//!    (RF, GB, SVR, NuSVR, KNN, Ridge) and picks the winner;
//! 3. [`objective`] wraps the chosen model as a drop-in, noise-free
//!    [`dbtune_core::tuner::SimObjective`], so every optimizer and
//!    experiment driver runs unchanged against the cheap benchmark.
//!    [`SpeedupReport`] sets the evaluation time a session measured
//!    against the workload replay it replaced: the paper's 150–311×
//!    speedup claim. The crate itself reads no clock.

pub mod collect;
pub mod objective;
pub mod surrogate;

pub use collect::{collect_samples, Dataset};
pub use objective::{SpeedupReport, SurrogateBenchmark};
pub use surrogate::{evaluate_zoo, SurrogateModelKind, ZooResult};
