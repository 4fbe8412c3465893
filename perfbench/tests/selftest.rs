//! Self-tests: every workload at reduced size through the library the
//! binary uses, the metric names against `BENCHMARK.json`, worker-count
//! independence of the digests, observer inertness, and the timing
//! wrappers' forwarding.

use dbtune_core::optimizer::{Optimizer, SurrogateIntrospect};
use dbtune_core::space::TuningSpace;
use dbtune_core::tuner::{EvalResult, SimObjective};
use dbtune_dbsim::{DbSimulator, Hardware, Objective, Workload as DbWorkload};
use perfbench::run::{run, Mode, Observer, RunConfig, RunOutcome};
use perfbench::workloads::{run_pass, setup, Size, Workload};
use perfbench::wrap::{TimedObjective, TimedOptimizer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::path::PathBuf;

/// Metric names of one `BENCHMARK.json` list, in file order.
fn declared(list: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the package");
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let entries = v
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == list))
        .and_then(|(_, e)| e.as_array())
        .expect("list present");
    entries
        .iter()
        .map(|e| {
            let o = e.as_object().expect("entry object");
            let name = o.iter().find(|(k, _)| k == "name").expect("name");
            name.1.as_str().expect("name string").to_string()
        })
        .collect()
}

fn smoke(workload: Workload, mode: Mode) -> RunOutcome {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{}-{}",
        workload.name(),
        mode.name()
    ));
    let cfg = RunConfig { workload, seed: 7, seconds: 0.0, size: Size::Smoke, mode, out };
    let outcome = run(&cfg, None);
    assert!(outcome.correct, "{} {}: {:?}", workload.name(), mode.name(), outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    outcome
}

fn names(outcome: &RunOutcome) -> Vec<String> {
    outcome.headline.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn every_workload_reports_the_declared_end_to_end_metrics() {
    let expected = declared("end_to_end");
    for workload in Workload::ALL {
        let outcome = smoke(workload, Mode::Run);
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        for m in &outcome.headline {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn every_traced_workload_reports_the_declared_per_layer_metrics() {
    let expected = declared("per_layer");
    for workload in Workload::ALL {
        let outcome = smoke(workload, Mode::Traced);
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        assert!(outcome.headline.iter().all(|m| m.value.is_finite() && m.value >= 0.0));
        // The record keeps the end-to-end metrics of the untraced passes too.
        assert!(outcome.all.iter().any(|m| m.name == "pass_s"));
    }
}

#[test]
fn observers_leave_the_digests_unchanged() {
    for (observer, metric) in [
        (Observer::Journal, "obs.journal_overhead_ratio"),
        (Observer::Memprof, "mem.allocs_per_eval"),
    ] {
        let outcome = smoke(Workload::ChaosSweep, Mode::Observe(observer));
        assert!(names(&outcome).iter().any(|n| n == metric), "{metric} missing");
    }
}

#[test]
fn paper_grid_digest_is_identical_at_one_and_two_workers() {
    let mut inputs = setup(Workload::PaperGrid, Size::Smoke, 11);
    inputs.workers = 1;
    let serial = run_pass(&inputs, false).sessions;
    inputs.workers = 2;
    let parallel = run_pass(&inputs, false).sessions;
    assert_eq!(serial.len(), 14);
    assert!(serial.iter().all(|s| s.digest.is_some()));
    assert_eq!(serial, parallel);
}

/// A backend whose every trait method returns something distinctive and
/// records the calls it receives.
#[derive(Default)]
struct Probe {
    evaluated: usize,
    cursor: u64,
}

impl SimObjective for Probe {
    fn evaluate(&mut self, full_cfg: &[f64]) -> EvalResult {
        self.evaluated += 1;
        EvalResult {
            value: full_cfg[0] * 2.0,
            failed: true,
            metrics: vec![3.0],
            simulated_secs: 4.0,
        }
    }
    fn objective(&self) -> Objective {
        Objective::Latency95
    }
    fn reference_value(&self, full_cfg: &[f64]) -> f64 {
        full_cfg[0] + 10.0
    }
    fn eval_cursor(&self) -> u64 {
        self.cursor + 100
    }
    fn seek_eval_cursor(&mut self, cursor: u64) {
        self.cursor = cursor;
    }
    fn optimum_value(&self, space: &TuningSpace) -> Option<f64> {
        Some(space.dim() as f64 + 0.5)
    }
    fn last_failure_was_transient(&self) -> bool {
        self.evaluated > 0
    }
}

#[test]
fn timed_objective_forwards_every_trait_method() {
    let mut timed = TimedObjective::new(Probe::default(), 1);
    assert!(!timed.last_failure_was_transient());
    let res = timed.evaluate(&[1.5, 0.0]);
    assert_eq!(
        (res.value, res.failed, res.metrics.clone(), res.simulated_secs),
        (3.0, true, vec![3.0], 4.0)
    );
    timed.evaluate(&[2.5, 0.0]);
    assert_eq!(timed.objective(), Objective::Latency95);
    assert_eq!(timed.reference_value(&[1.0]), 11.0);
    timed.seek_eval_cursor(5);
    assert_eq!(timed.eval_cursor(), 105);
    let sim = DbSimulator::new(DbWorkload::Job, Hardware::B, 1);
    let space = TuningSpace::with_default_base(sim.catalog(), vec![0, 1, 2], Hardware::B);
    assert_eq!(timed.optimum_value(&space), Some(3.5));
    assert!(timed.last_failure_was_transient());

    let (inner, log) = timed.into_parts();
    assert_eq!((inner.evaluated, inner.cursor), (2, 5));
    assert_eq!((log.decide_ns.len(), log.evaluate_ns.len()), (2, 2));
    assert_eq!(log.configs, vec![vec![1.5, 0.0]], "capture stops at its limit");
}

/// An optimizer overriding both provided methods; its prediction reports
/// how many observations reached it.
#[derive(Default)]
struct Fixed {
    observed: Vec<f64>,
}

impl SurrogateIntrospect for Fixed {
    fn last_prediction(&self) -> Option<(f64, f64)> {
        Some((self.observed.len() as f64, self.observed.iter().sum()))
    }
}

impl Optimizer for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn suggest(&mut self, _rng: &mut StdRng) -> Vec<f64> {
        vec![0.25]
    }
    fn observe(&mut self, _cfg: &[f64], score: f64, _metrics: &[f64]) {
        self.observed.push(score);
    }
    fn wants_lhs_init(&self) -> bool {
        false
    }
}

#[test]
fn timed_optimizer_forwards_every_trait_method() {
    let mut timed = TimedOptimizer::new(Fixed::default());
    assert_eq!(timed.name(), "fixed");
    assert!(!timed.wants_lhs_init());
    assert_eq!(timed.last_prediction(), Some((0.0, 0.0)));
    let cfg = timed.suggest(&mut StdRng::seed_from_u64(1));
    assert_eq!(cfg, vec![0.25]);
    timed.observe(&cfg, 7.0, &[]);
    assert_eq!(timed.last_prediction(), Some((1.0, 7.0)));
}
