//! `perfbench`: the dbtune workspace's end-to-end and per-layer
//! performance benchmark (see `README.md`).
//!
//! A run builds one workload's inputs from a seed, runs its fixed work in
//! passes with every program observer off, checks the results against
//! each other and against `expected.json`, and reports the metrics that
//! `BENCHMARK.json` declares. A traced run adds one pass under
//! outside-in timing wrappers plus fixed-input probes of single layers.

pub mod calib;
pub mod compare;
pub mod digest;
pub mod probes;
pub mod report;
pub mod run;
pub mod workloads;
pub mod wrap;
