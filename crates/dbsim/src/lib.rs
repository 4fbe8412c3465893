//! Deterministic MySQL-5.7-style DBMS simulator.
//!
//! The paper evaluates tuning algorithms against RDS MySQL 5.7 instances
//! replaying OLTP-Bench workloads — hardware we cannot access. This crate
//! substitutes an *analytic performance model* with the structural
//! properties the paper's analysis depends on:
//!
//! * a **197-knob catalog** mirroring MySQL 5.7 variable names, types,
//!   domains, and defaults (continuous, integer, and categorical knobs —
//!   the heterogeneity the paper studies);
//! * a long tail of near-irrelevant knobs plus a small set of impactful
//!   ones whose identity depends on the workload;
//! * **robust defaults** and "trap" knobs whose default is already optimal
//!   (high variance, zero tunability — the property that separates SHAP
//!   from variance-based importance measures);
//! * **knob interactions** (per-thread buffer memory × concurrency) and
//!   **crash regions** (memory overcommit fails the evaluation, which the
//!   tuning driver replaces with the worst seen performance, §4.1);
//! * nine **workload profiles** (Table 4) and four **hardware instance
//!   types** (Table 5) that move the optimum;
//! * a 40-dimensional vector of simulated **internal metrics** (the state
//!   input of DDPG and the distance space of workload mapping);
//! * multiplicative log-normal **measurement noise**, drawn from a token
//!   the caller passes in so every evaluation is a pure function of
//!   `(configuration, token)`, and a simulated **cost** per evaluation
//!   (3-minute stress test + restart) so the surrogate benchmark can
//!   report paper-style speedups;
//! * seeded **fault plans** ([`fault`]) injecting transient evaluation
//!   faults — timeouts, spurious crashes, corrupted metrics, stalls —
//!   on a replayable per-attempt schedule (see `docs/robustness.md`).

pub mod catalog;
pub mod fault;
pub mod hardware;
pub mod knob;
pub mod sim;
pub mod workload;

pub use catalog::KnobCatalog;
pub use fault::{FaultEvent, FaultPlan};
pub use hardware::Hardware;
pub use knob::{Domain, KnobSpec};
pub use sim::{DbSimulator, EvalResult, Objective, EVAL_SECONDS, METRICS_DIM, RESTART_SECONDS};
pub use workload::{Workload, WorkloadClass};
